package figures

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// TestScalabilityWindowSpeedup is the PR's acceptance bar: aggregate
// ORFS-direct throughput at window 8 must exceed the synchronous
// (window 1) baseline by at least 25%.
func TestScalabilityWindowSpeedup(t *testing.T) {
	c := DefaultConfig()
	base, err := c.msRun("orfs-direct", 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := c.msRun("orfs-direct", 1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wide.mbps < base.mbps*1.25 {
		t.Errorf("window 8 = %.1f MB/s, want >= 1.25x window 1 (%.1f MB/s)", wide.mbps, base.mbps)
	}
	t.Logf("orfs-direct: window 1 = %.1f MB/s, window 8 = %.1f MB/s (%.0f%%)",
		base.mbps, wide.mbps, 100*(wide.mbps/base.mbps-1))
}

// TestScalabilityBufferedAndNBDWindows: the other two scenarios must
// also gain from the window (readahead and queued block requests).
func TestScalabilityBufferedAndNBDWindows(t *testing.T) {
	c := DefaultConfig()
	for _, scen := range []string{"orfs-buffered", "nbd"} {
		base, err := c.msRun(scen, 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := c.msRun(scen, 1, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		if wide.mbps <= base.mbps {
			t.Errorf("%s: window 8 = %.1f MB/s not above window 1 = %.1f MB/s", scen, wide.mbps, base.mbps)
		}
	}
}

// TestWindowOneMatchesSynchronousClient: a window-1 session must add
// zero simulated cost — the same workload through the raw synchronous
// client produces the exact same aggregate throughput (this is the
// property that keeps Fig 7(a)/7(b) bit-identical).
func TestWindowOneMatchesSynchronousClient(t *testing.T) {
	c := DefaultConfig()
	viaSession, err := c.msRun("orfs-direct", 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	// The same workload, written against the synchronous client.
	env := sim.NewEngine()
	cl := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	server := cl.AddNode("server")
	serverFS := memfs.New("backing", server, 0)
	srv := rfsrv.NewServer(server, serverFS)
	if _, err := srv.ServeMX(mx.Attach(server), 1, 4); err != nil {
		t.Fatal(err)
	}
	var syncMBps float64
	var failure error
	env.Spawn("seed", func(p *sim.Proc) {
		seedVA, _ := server.Kernel.Mmap(scalFilePerCli, "seed")
		attr, err := serverFS.Create(p, serverFS.Root(), "f0")
		if err != nil {
			failure = err
			return
		}
		if _, err := serverFS.WriteDirect(p, attr.Ino, 0, vecKernel(server.Kernel, seedVA, scalFilePerCli)); err != nil {
			failure = err
			return
		}
		node := cl.AddNode("client0")
		env.Spawn("cl0", func(p *sim.Proc) {
			fc, err := rfsrv.NewMXClient(mx.Attach(node), 10, true, node.Kernel, server.ID, 1)
			if err != nil {
				failure = err
				return
			}
			va, _ := node.Kernel.Mmap(scalChunk, "scal-buf")
			t0 := p.Now()
			for off := int64(0); off < scalFilePerCli; off += scalChunk {
				if _, err := fc.Read(p, attr.Ino, off, core.Of(core.KernelSeg(node.Kernel, va, scalChunk))); err != nil {
					failure = err
					return
				}
			}
			syncMBps = mbps(scalFilePerCli, p.Now()-t0)
		})
	})
	env.Run(0)
	if failure != nil {
		t.Fatal(failure)
	}
	if syncMBps != viaSession.mbps {
		t.Errorf("window-1 session %.6f MB/s != synchronous client %.6f MB/s", viaSession.mbps, syncMBps)
	}
	_ = kernel.ErrBadOffset
}
