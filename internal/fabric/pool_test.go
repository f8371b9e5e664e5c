package fabric_test

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestPoolRecycling: released buffers are reused (same class), and
// class rounding is page-granular — no more simulated contiguous
// memory than a direct MmapContig.
func TestPoolRecycling(t *testing.T) {
	env := sim.NewEngine()
	cl := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	node := cl.AddNode("n")
	pool := fabric.PoolOf(node)

	b1, err := pool.Get(5000)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Size() != 2*mem.PageSize {
		t.Errorf("Get(5000) class = %d, want %d (page rounding)", b1.Size(), 2*mem.PageSize)
	}
	before := node.Mem.Allocated()
	b1.Release()
	b2, err := pool.Get(8000) // same 2-page class: must reuse b1
	if err != nil {
		t.Fatal(err)
	}
	if b2.VA() != b1.VA() {
		t.Error("released buffer was not recycled for a same-class Get")
	}
	if node.Mem.Allocated() != before {
		t.Errorf("recycled Get allocated %d new frames", node.Mem.Allocated()-before)
	}
	if pool.Hits.N != 1 {
		t.Errorf("pool hits = %d, want 1", pool.Hits.N)
	}
}

// TestPoolRegistrationTravels: a pooled buffer registered with a GM
// transport stays registered across reuse — the second RegisterWith is
// free, extending registration caching to pooled consumers.
func TestPoolRegistrationTravels(t *testing.T) {
	env := sim.NewEngine()
	cl := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	node := cl.AddNode("n")
	done := false
	env.Spawn("t", func(p *sim.Proc) {
		tr, err := fabric.NewGM(gm.Attach(node), 1, true)
		if err != nil {
			t.Error(err)
			return
		}
		pool := fabric.PoolOf(node)
		b, err := pool.Get(4 * mem.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		t0 := p.Now()
		if err := b.RegisterWith(p, tr); err != nil {
			t.Error(err)
			return
		}
		if p.Now() == t0 {
			t.Error("first RegisterWith charged nothing")
		}
		b.Release()
		b2, err := pool.Get(4 * mem.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		if b2 != b {
			t.Error("expected the registered buffer back")
		}
		t1 := p.Now()
		if err := b2.RegisterWith(p, tr); err != nil {
			t.Error(err)
			return
		}
		if p.Now() != t1 {
			t.Error("repeated RegisterWith paid registration again")
		}
		done = true
	})
	env.Run(0)
	if !done {
		t.Fatal("test body did not run")
	}
}

// TestPoolPhysVec: a buffer's physical vector describes exactly the
// leading bytes its extents do, and is rebuilt in place — describing a
// buffer for each message allocates nothing once it has been described.
func TestPoolPhysVec(t *testing.T) {
	env := sim.NewEngine()
	node := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD).AddNode("n")
	b, err := fabric.PoolOf(node).Get(3 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3 * mem.PageSize, 1, mem.PageSize + 7, 0} {
		v := b.PhysVec(n)
		xs, err := v.Extents()
		if err != nil || v.TotalLen() != n || n > 0 && !v.AllPhysical() {
			t.Fatalf("PhysVec(%d) = %v (%v)", n, v, err)
		}
		if want := mem.Clip(b.Extents(b.Size()), n); !reflect.DeepEqual(xs, want) && n > 0 {
			t.Errorf("PhysVec(%d) covers %v, want %v", n, xs, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { b.PhysVec(2 * mem.PageSize) }); allocs != 0 {
		t.Errorf("PhysVec allocated %.0f times per call", allocs)
	}
}
