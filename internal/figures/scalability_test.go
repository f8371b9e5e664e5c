package figures

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/rig"
	"repro/internal/sim"
)

// TestScalabilityWindowSpeedup is the window's acceptance bar: one
// client streaming O_DIRECT-style reads must gain at least 25% in
// aggregate throughput at window 8 over the synchronous window 1. The
// bar only means something while window 1 leaves the link room to gain
// — at least a fifth of it idle — which the figures' 64 KB chunk no
// longer does since a kernel read's data came back in eager pieces
// (window 1 reaches 220 of the link's 250 MB/s), so the test reads
// 16 KB chunks, one eager message each, whose window 1 waits out every
// round trip with the link idle.
func TestScalabilityWindowSpeedup(t *testing.T) {
	const chunk = 16 * 1024
	link := hw.DefaultParams().LinkBandwidthXD / 1e6
	base, wide := directReads(t, chunk, 1), directReads(t, chunk, 8)
	if base > 0.8*link {
		t.Fatalf("window 1 = %.1f MB/s of a %.0f MB/s link: less than a fifth idle, no room for the window to show", base, link)
	}
	if wide < base*1.25 {
		t.Errorf("window 8 = %.1f MB/s, want >= 1.25x window 1 (%.1f MB/s)", wide, base)
	}
	t.Logf("%d KB direct reads: window 1 = %.1f MB/s, window 8 = %.1f MB/s (%.0f%%)",
		chunk>>10, base, wide, 100*(wide/base-1))
}

// directReads streams one client's file in chunk-byte reads through a
// one-server cluster at the given window and returns the throughput.
func directReads(t *testing.T, chunk, window int) float64 {
	t.Helper()
	r, err := rig.New(rig.Desc{Servers: 1, Replicas: 1, Stripe: msStripe, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	var inos []kernel.InodeID
	var samples []sim.Time
	span, err := r.Run("cl", 1, func(p *sim.Proc) (err error) {
		inos, err = msSeedStriped(p, r, 1, 1, msFilePerCli)
		return err
	}, func(p *sim.Proc, _ int) error {
		cl, err := r.Cluster(p, r.HW.AddNode("client0"), 10)
		if err != nil {
			return err
		}
		samples, err = msDirectReads(p, cl, inos[0], chunk)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return summarize(samples, msFilePerCli, span).mbps
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

// TestWindowOneMatchesSynchronousClient: a window-1 session IS the
// synchronous protocol and adds zero simulated cost. The pin is what
// the same workload — one client reading its file in 64 KB requests
// into kernel buffers — delivered through the bare synchronous client
// the session replaced, recorded on the last commit that had one at
// 177.15 MB/s (this is the property that keeps Fig 7(a)/7(b)
// bit-identical), and re-pinned when such a read's data started to
// come back in eager pieces instead of one rendezvous: 220.42 MB/s.
func TestWindowOneMatchesSynchronousClient(t *testing.T) {
	viaSession, err := DefaultConfig().msRun("orfs-direct", 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const syncMBps = 220.41873370890443
	if viaSession.mbps != syncMBps {
		t.Errorf("window-1 session %.9f MB/s != synchronous client %.9f MB/s", viaSession.mbps, syncMBps)
	}
}
