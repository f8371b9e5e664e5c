package fabric_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/mx"
	"repro/internal/sim"
)

// TestDriverTraceRecords pins what the drivers hand to a trace function
// (cmd/netpipe -trace prints it): one GM and one MX message between two
// nodes yield a send and a receive record each, and the virtual time,
// format and arguments of all four equal what the drivers emitted
// before their call sites were guarded with Engine.Tracing — the guard
// only decides whether the arguments are built, never what they are.
func TestDriverTraceRecords(t *testing.T) {
	env := sim.NewEngine()
	var got []string
	env.SetTrace(func(at sim.Time, format string, args ...any) {
		got = append(got, fmt.Sprintf("%dns %q %v", at.Nanoseconds(), format, args))
	})
	cl := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	na, nb := cl.AddNode("a"), cl.AddNode("b")
	const size = 3000
	env.Spawn("trace", func(p *sim.Proc) {
		open := func(n *hw.Node) (g, m fabric.Transport) {
			g, err := fabric.NewGM(gm.Attach(n), 1, true)
			if err != nil {
				t.Fatal(err)
			}
			m, err = fabric.NewMX(mx.Attach(n), 2, true)
			if err != nil {
				t.Fatal(err)
			}
			return g, m
		}
		gmA, mxA := open(na)
		gmB, mxB := open(nb)
		for i, pr := range []struct{ from, to fabric.Transport }{{gmA, gmB}, {mxA, mxB}} {
			vec := func(tr fabric.Transport) core.Vector {
				node := tr.Node()
				va, err := node.Kernel.Mmap(size, "buf")
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.Register(p, node.Kernel, va, size); err != nil {
					t.Fatal(err)
				}
				return core.Of(core.KernelSeg(node.Kernel, va, size))
			}
			info := uint64(0x40 + i)
			rop, err := pr.to.PostRecv(p, core.Exact(info), vec(pr.to))
			if err != nil {
				t.Fatal(err)
			}
			sop, err := pr.from.Send(p, nb.ID, pr.to.LocalEP(), info, vec(pr.from))
			if err != nil {
				t.Fatal(err)
			}
			if st := rop.Wait(p); st.Err != nil || st.Len != size {
				t.Fatalf("receive: %+v", st)
			}
			sop.Wait(p)
		}
	})
	env.Run(0)
	// Recorded from the commit before the guards went in.
	want := []string{
		`12350ns "gm[%s:%d] send %dB tag=%#x -> node %d port %d" [a 1 3000 64 1 1]`,
		`40506ns "gm[%s:%d] recv %dB tag=%#x from node %d" [b 1 3000 64 0]`,
		`48956ns "mx[%s:%d] send %dB info=%#x -> node %d ep %d" [a 2 3000 65 1 2]`,
		`79118ns "mx[%s:%d] recv %dB info=%#x from node %d" [b 2 3000 65 0]`,
	}
	if !slices.Equal(got, want) {
		t.Errorf("trace records differ from the golden:\n got:\n%s\nwant:\n%s", lines(got), lines(want))
	}
}

func lines(xs []string) (s string) {
	for _, x := range xs {
		s += "\t" + x + "\n"
	}
	return s
}
