package rig_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

func desc(servers, replicas int) rig.Desc {
	return rig.Desc{Servers: servers, Replicas: replicas, Stripe: 2 * mem.PageSize, Window: 4}
}

func mustRig(t *testing.T, d rig.Desc) *rig.Rig {
	t.Helper()
	r, err := rig.New(d)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func noSetup(*sim.Proc) error { return nil }

// TestRunFirstErrorWins: the first error is the one reported, and a
// body that fails later is not a finisher — it neither hides the first
// error nor stretches the makespan.
func TestRunFirstErrorWins(t *testing.T) {
	r := mustRig(t, desc(1, 1))
	errA, errB := errors.New("first"), errors.New("second")
	span, err := r.Run("w", 3, noSetup, func(p *sim.Proc, i int) error {
		switch i {
		case 0:
			p.Sleep(10 * time.Microsecond)
			return errA
		case 1:
			p.Sleep(50 * time.Microsecond)
			return errB
		}
		p.Sleep(30 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, errA) || errors.Is(err, errB) {
		t.Fatalf("err = %v, want the first failure", err)
	}
	if !strings.Contains(err.Error(), "w0") {
		t.Errorf("err %q does not name the failing process", err)
	}
	if span != 30*time.Microsecond {
		t.Errorf("makespan %v, want 30µs: only the successful body is a finisher", span)
	}
}

// TestRunReportsDeadlock: a body parked forever is an error naming its
// process, not a silently short count.
func TestRunReportsDeadlock(t *testing.T) {
	r := mustRig(t, desc(1, 1))
	never := sim.NewSignal(r.Env)
	_, err := r.Run("w", 3, noSetup, func(p *sim.Proc, i int) error {
		if i == 1 {
			never.Wait(p)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "w1") || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want a deadlock naming w1", err)
	}
	if _, err := r.Run("s", 0, func(p *sim.Proc) error { never.Wait(p); return nil }, nil); err == nil ||
		!strings.Contains(err.Error(), "setup never returned") {
		t.Fatalf("parked setup: err = %v", err)
	}
}

// TestRunMakespan: the makespan runs from the end of setup to the last
// finisher, and a failing setup spawns nothing.
func TestRunMakespan(t *testing.T) {
	r := mustRig(t, desc(1, 1))
	span, err := r.Run("w", 3, func(p *sim.Proc) error {
		p.Sleep(5 * time.Microsecond)
		return nil
	}, func(p *sim.Proc, i int) error {
		p.Sleep(time.Duration(i+1) * 10 * time.Microsecond)
		return nil
	})
	if err != nil || span != 30*time.Microsecond {
		t.Fatalf("makespan %v (err %v), want 30µs", span, err)
	}
	boom := errors.New("boom")
	ran := false
	_, err = r.Run("w", 1, func(*sim.Proc) error { return boom }, func(*sim.Proc, int) error {
		ran = true
		return nil
	})
	if !errors.Is(err, boom) || ran {
		t.Fatalf("failing setup: err = %v, body ran = %v", err, ran)
	}
}

func TestDescValidation(t *testing.T) {
	for name, d := range map[string]rig.Desc{
		"zero servers":       desc(0, 1),
		"replicas > servers": desc(2, 3),
		"zero replicas":      desc(2, 0),
		"zero window":        {Servers: 1, Replicas: 1, Stripe: mem.PageSize},
		"unaligned stripe":   {Servers: 1, Replicas: 1, Stripe: mem.PageSize + 1, Window: 1},
		"negative timeout":   {Servers: 1, Replicas: 1, Stripe: mem.PageSize, Window: 1, Timeout: -1},
	} {
		if _, err := rig.New(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := rig.NewBare(d, nil); err == nil {
			t.Errorf("%s: accepted bare", name)
		}
	}
}

// TestShardedRigAgrees: Desc.Sharded switches server, store and client
// together. One create per owner residue must land on exactly that
// residue's owner group (the servers' ownership check accepted it, the
// client routed it there and nowhere else) under an inode the group's
// primary minted (the store partition matches the routing).
func TestShardedRigAgrees(t *testing.T) {
	const n, replicas = 4, 2
	d := desc(n, replicas)
	d.Sharded = true
	r := mustRig(t, d)
	_, err := r.Run("c", 0, func(p *sim.Proc) error {
		cl, err := r.Cluster(p, r.HW.AddNode("client"), 10)
		if err != nil {
			return err
		}
		seen := make([]bool, n)
		for k := 0; k < 64; k++ {
			dir, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: fmt.Sprintf("d%d", k)})
			if err != nil {
				return err
			}
			res := int((dir.Attr.Ino - 2) % n)
			if seen[res] {
				continue
			}
			seen[res] = true
			f, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir.Attr.Ino, Name: "f"})
			if err != nil {
				return err
			}
			if got := int((f.Attr.Ino - 2) % n); got != res {
				t.Errorf("residue %d: file minted with residue %d", res, got)
			}
			for j, fs := range r.Stores {
				owner := (j-res+n)%n < replicas
				a, err := fs.Lookup(p, dir.Attr.Ino, "f")
				if owner && (err != nil || a.Ino != f.Attr.Ino) {
					t.Errorf("residue %d: owner %d holds %v (%v), want ino %d", res, j, a.Ino, err, f.Attr.Ino)
				}
				if !owner && err == nil {
					t.Errorf("residue %d: non-owner %d holds the entry", res, j)
				}
			}
		}
		for res, ok := range seen {
			if !ok {
				t.Errorf("no directory landed on residue %d", res)
			}
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestClustersShareOneView: the first cluster a rig builds publishes
// the rig's membership view, restricting its members restricts the
// view, and a later cluster attaches to it and follows a membership
// change the first one drives.
func TestClustersShareOneView(t *testing.T) {
	r := mustRig(t, desc(3, 1))
	_, err := r.Run("c", 0, func(p *sim.Proc) error {
		op, err := r.Cluster(p, r.HW.AddNode("operator"), 10)
		if err != nil {
			return err
		}
		if r.View == nil {
			return errors.New("the first cluster published no view")
		}
		if err := op.SetMembers(2); err != nil {
			return err
		}
		cl, err := r.Cluster(p, r.HW.AddNode("client"), 10)
		if err != nil {
			return err
		}
		if got := fmt.Sprint(r.View.Members(), cl.Members()); got != "[0 1] [0 1]" {
			return fmt.Errorf("view and attached members %s, want [0 1] [0 1]", got)
		}
		if err := op.Join(p, 2); err != nil {
			return err
		}
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: 0}); err != nil {
			return err
		}
		if got := fmt.Sprint(cl.Members()); got != "[0 1 2]" {
			return fmt.Errorf("attached cluster's members after the join %s, want [0 1 2]", got)
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestClusterOnBareRig: a bare rig has no file servers to be a client
// of.
func TestClusterOnBareRig(t *testing.T) {
	r, err := rig.NewBare(desc(2, 1), func(*rig.Rig, *hw.Node) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run("c", 0, func(p *sim.Proc) error {
		_, err := r.Cluster(p, r.HW.AddNode("client"), 10)
		return err
	}, nil)
	if err == nil {
		t.Fatal("Cluster on a bare rig succeeded")
	}
}

// A finished rig stays reachable for ever — its daemon processes are
// goroutines parked on it — so whatever a rig keeps of the frames and
// payload buffers it freed is kept for the life of the process. The
// pools are therefore process-wide and GC-emptied: building, loading
// and tearing down the same rig over and over must leave the heap
// flat, each cycle's frames feeding the next, where rig-owned free
// lists would grow it by one rig's worth per cycle.
func TestHeapStaysFlatAcrossRigs(t *testing.T) {
	const (
		fileBytes = 16 << 20 // "one rig's worth": the frames a cycle allocates and frees
		chunk     = 64 * 1024
		cycles    = 20
	)
	cycle := func() {
		r := mustRig(t, rig.Desc{Servers: 1, Replicas: 1, Stripe: chunk, Window: 4})
		var ino kernel.InodeID
		_, err := r.Run("load", 0, func(p *sim.Proc) error {
			cl, err := r.Cluster(p, r.HW.AddNode("client"), 10)
			if err != nil {
				return err
			}
			resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Name: "f"})
			if err != nil {
				return err
			}
			ino = resp.Attr.Ino
			kern := cl.Node().Kernel
			va, err := kern.Mmap(chunk, "buf")
			if err != nil {
				return err
			}
			vec := core.Of(core.KernelSeg(kern, va, chunk))
			for off := int64(0); off < fileBytes; off += chunk {
				if _, err := cl.Write(p, ino, off, vec); err != nil {
					return err
				}
			}
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Tear down as bench/ does: the store's blocks and every kernel
		// mapping go back to the allocator.
		if err := r.Stores[0].Resize(ino, 0); err != nil {
			t.Fatal(err)
		}
		for _, n := range r.HW.Nodes() {
			n.Kernel.Destroy()
		}
	}
	inUse := func() uint64 {
		// A sync.Pool is emptied by two collections, not one: the first
		// only moves it to its victim cache. With one, the frames the
		// last teardown pooled (up to a rig's worth) are still counted,
		// and how many depends on when the collector last ran.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	cycle() // warm the pools
	before := inUse()
	for i := 0; i < cycles; i++ {
		cycle()
	}
	after := inUse()
	t.Logf("HeapInuse %d KB -> %d KB over %d build/load/tear-down cycles of %d KB each",
		before>>10, after>>10, cycles, fileBytes>>10)
	if after > before+fileBytes {
		t.Errorf("heap grew by %d KB over %d cycles: freed frames or payload buffers are being retained per rig",
			(after-before)>>10, cycles)
	}
}
