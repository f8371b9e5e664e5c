package fabric_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/mx"
	"repro/internal/sim"
)

// traceRun sends one 3000-byte GM message and then one MX message from
// node a to node b with probe installed on both NICs (nil: none), and
// returns the engine once the run has drained.
func traceRun(t *testing.T, probe func(hw.Step)) *sim.Engine {
	env := sim.NewEngine()
	cl := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	na, nb := cl.AddNode("a"), cl.AddNode("b")
	na.NIC.SetProbe(probe)
	nb.NIC.SetProbe(probe)
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
	return env
}

// TestProbeTraceLines pins the per-message trace cmd/netpipe -trace
// prints — each message's fw-send and fw-recv NIC steps — for one GM
// and one MX message: virtual time, node, stage, tag and wire bytes.
// The GM tag carries the destination port in its low byte. Each fw-recv
// line falls at the instant the receiving driver's handler runs.
func TestProbeTraceLines(t *testing.T) {
	var got []string
	traceRun(t, func(s hw.Step) {
		if s.Frag < 0 {
			got = append(got, s.String())
		}
	})
	want := []string{
		"14150ns a fw-send tag=0x4001 3017B",
		"40506ns b fw-recv tag=0x4001 3017B",
		"53056ns a fw-send tag=0x41 3018B",
		"79118ns b fw-recv tag=0x41 3018B",
	}
	if !slices.Equal(got, want) {
		t.Errorf("trace lines differ from the golden:\n got:\n%s\nwant:\n%s", lines(got), lines(want))
	}
}

// TestProbeMovesNoEvent: the probe only observes. A run with it
// installed ends at the same virtual instant after the same number of
// events as a run without it.
func TestProbeMovesNoEvent(t *testing.T) {
	steps := 0
	on := traceRun(t, func(hw.Step) { steps++ })
	off := traceRun(t, nil)
	if steps == 0 {
		t.Fatal("the probe heard no step")
	}
	if on.Now() != off.Now() || on.Events() != off.Events() {
		t.Errorf("probe on: %v after %d events; off: %v after %d events", on.Now(), on.Events(), off.Now(), off.Events())
	}
}

func lines(xs []string) (s string) {
	for _, x := range xs {
		s += "\t" + x + "\n"
	}
	return s
}
