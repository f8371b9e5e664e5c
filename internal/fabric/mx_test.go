package fabric_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/mx"
	"repro/internal/sim"
)

// BenchmarkMXRoundTrip is one 4 KB round trip per iteration between two
// MX kernel endpoints over physical buffers — a receive posted and a
// message sent each way, every Op waited and released — the path the
// rfsrv client and server take for every request. Released requests
// come back from their endpoint's free list, so it runs at 0 allocs/op.
func BenchmarkMXRoundTrip(b *testing.B) {
	const n, tag = 4096, 1
	env := sim.NewEngine()
	cl := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	na, nb := cl.AddNode("a"), cl.AddNode("b")
	open := func(node *hw.Node) (fabric.Transport, core.Vector) {
		t, err := fabric.NewMX(mx.Attach(node), 1, true)
		if err != nil {
			b.Fatal(err)
		}
		f, err := node.Mem.AllocFrame()
		if err != nil {
			b.Fatal(err)
		}
		return t, core.Of(core.PhysSeg(f.Addr(), n))
	}
	ta, va := open(na)
	tb, vb := open(nb)
	leg := func(p *sim.Proc, from, to fabric.Transport, dst hw.NodeID, src, into core.Vector) {
		rop, err := to.PostRecv(p, core.Exact(tag), into)
		if err != nil {
			b.Fatal(err)
		}
		sop, err := from.Send(p, dst, 1, tag, src)
		if err != nil {
			b.Fatal(err)
		}
		if st := rop.Wait(p); st.Err != nil || st.Len != n {
			b.Fatalf("recv: %+v", st)
		}
		sop.Wait(p)
		rop.Release()
		sop.Release()
	}
	b.ReportAllocs()
	env.Spawn("roundtrip", func(p *sim.Proc) {
		leg(p, ta, tb, nb.ID, va, vb) // warm the free lists
		leg(p, tb, ta, na.ID, vb, va)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			leg(p, ta, tb, nb.ID, va, vb)
			leg(p, tb, ta, na.ID, vb, va)
		}
	})
	env.Run(0)
}
