package hw

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The goldens in testdata were recorded from the commit whose transmit
// and link stages were still processes (txPump, linkPump), with the
// probe calls added at the same program points. The event-callback
// stages must reproduce them exactly: same steps, same instants, same
// order within an instant. -update rewrites them from the code under
// test, which is only right after a deliberate change to the model.
//
// One such change: the stages' per-destination FIFOs, where a
// single-fragment message passes another node's bulk data at the next
// fragment boundary. pipeline_schedule.golden was re-recorded for it
// (b's 64-byte m202 to c now leaves after the first fragment of its
// m201 to a, not after all three); pipeline_two_nodes.golden, where
// every NIC sends to one node only, was recorded from the FIFO stages
// and must not move.
var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// golden compares got with testdata/<name>, line by line.
func golden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d (of %d recorded, %d now):\n got %q\nwant %q", name, i+1, len(want), len(got), g, w)
		}
	}
}

// gatherBuf returns the extents of a fresh n-byte user buffer on node.
func gatherBuf(t testing.TB, node *Node, n int) []mem.Extent {
	t.Helper()
	as := node.NewUserSpace("app")
	va, err := as.Mmap(n, "buf")
	if err != nil {
		t.Fatal(err)
	}
	xs, err := as.Resolve(va, n)
	if err != nil {
		t.Fatal(err)
	}
	return xs
}

// TestPipelineScheduleMatchesGolden runs two senders into one receiver
// while the receiver sends the other way, to both, so its firmware
// processor is wanted by its transmit stage, its receive process and
// the driver's handler at once, and compares every pipeline step —
// (time, node, stage, message, fragment), in event order — with the
// recording.
func TestPipelineScheduleMatchesGolden(t *testing.T) {
	golden(t, "pipeline_schedule.golden", pipelineSchedule(t, true))
}

// TestTwoNodeScheduleIsTheFIFOSchedule runs the same scenario without
// node c: each NIC then sends to one destination only, where the
// per-destination FIFOs are one FIFO, and the schedule must be the one
// the single-FIFO stages recorded, step for step.
func TestTwoNodeScheduleIsTheFIFOSchedule(t *testing.T) {
	golden(t, "pipeline_two_nodes.golden", pipelineSchedule(t, false))
}

// pipelineSchedule runs the golden scenario — with node c's traffic, or
// a and b alone — and returns its pipeline steps.
func pipelineSchedule(t *testing.T, withC bool) []string {
	env := sim.NewEngine()
	p := DefaultParams()
	c := NewCluster(env, p, PCIXD)
	na, nb, nc := c.AddNode("a"), c.AddNode("b"), c.AddNode("c")
	var got []string
	contended := 0 // steps that found somebody queued for the receiver's firmware
	for _, n := range c.Nodes() {
		n := n
		n.NIC.probe = func(stage string, m *Message, frag int) {
			if nb.NIC.Firmware.QueueLen() > 0 {
				contended++
			}
			got = append(got, fmt.Sprintf("%dns %s %s m%d f%d", env.Now().Nanoseconds(), n.Name, stage, m.Tag, frag))
		}
		n.NIC.Handle(protoTest, func(proc *sim.Proc, m *Message) {
			// A driver that uses the firmware from its handler, as GM's
			// translation lookup does.
			n.NIC.Firmware.Use(proc, p.GMLookup)
			got = append(got, fmt.Sprintf("%dns %s handled m%d", proc.Now().Nanoseconds(), n.Name, m.Tag))
		})
	}
	// Tags name the message: 1xx from a, 2xx from b, 3xx from c.
	send := func(from, to *Node, tag uint64, at sim.Time, j *TxJob) {
		if !withC && (from == nc || to == nc) {
			return
		}
		j.Msg = &Message{Dst: to.ID, Proto: protoTest, Tag: tag, Header: []byte{byte(tag)}}
		env.After(at, func() { from.NIC.Send(j) })
	}
	send(na, nb, 101, 0, &TxJob{Gather: gatherBuf(t, na, 3*mem.PageSize+100)})
	send(nc, nb, 301, 0, &TxJob{Gather: gatherBuf(t, nc, 2*mem.PageSize)})
	send(nb, na, 201, 0, &TxJob{Gather: gatherBuf(t, nb, 2*mem.PageSize+9)})
	send(na, nb, 102, 0, &TxJob{Inline: staged(make([]byte, 100)), PIO: true})
	send(nc, nb, 302, 5*us, &TxJob{Inline: staged(make([]byte, 3000))})
	send(nb, nc, 202, 20*us, &TxJob{Inline: staged(make([]byte, 64)), PIO: true})
	send(na, nb, 103, 30*us, &TxJob{Gather: gatherBuf(t, na, mem.PageSize)})
	send(nb, na, 203, 40*us, &TxJob{Gather: gatherBuf(t, nb, 5*mem.PageSize)})
	send(nc, nb, 303, 41*us, &TxJob{Inline: staged(make([]byte, 2*mem.PageSize)), PIO: true})
	// Bursts of small messages both ways: the receiver's firmware is
	// wanted by its transmit stage (callbacks), its receive process and
	// the handler (a process) together, so the wait queue mixes both.
	for i := uint64(0); i < 6; i++ {
		send(nb, na, 210+i, 100*us, &TxJob{Inline: staged(make([]byte, 64)), PIO: true})
		send(na, nb, 110+i, 98*us+sim.Time(i)*700, &TxJob{Inline: staged(make([]byte, 64)), PIO: true})
		send(nc, nb, 310+i, 98*us+sim.Time(i)*900, &TxJob{Inline: staged(make([]byte, 32)), PIO: true})
	}
	env.Run(0)
	if len(got) < 80 || contended == 0 {
		t.Fatalf("%d steps recorded, %d with the receiver's firmware contended: the scenario missed its point", len(got), contended)
	}
	return got
}

// TestFaultsLeaveTheNICAsBefore drives the fault paths of the transmit
// and link stages — a kill during a fragment's DMA, a kill while the
// stage is queued for the DMA engine, a kill with a second job queued,
// a stall across a queued job, a destination dead at delivery — and
// compares what each leaves behind with the recording: the frames both
// cards dropped, and for every message when TxDone fired, when (if
// ever) it was delivered, and whether its payload buffer went back to
// the pool (it must not while lost fragments still reference it).
func TestFaultsLeaveTheNICAsBefore(t *testing.T) {
	scenarios := []struct {
		name  string
		fault func(r *testRig, p *sim.Proc)
	}{
		{"kill during a fragment's DMA", func(r *testRig, p *sim.Proc) {
			p.Sleep(15 * us) // fragment 1 of message 0 is crossing the PCI bus, fragment 0 is on the link
			r.a.NIC.Kill()
		}},
		{"kill while queued for the DMA engine", func(r *testRig, p *sim.Proc) {
			r.a.NIC.TxDMA.Acquire(p) // something else owns the engine: the stage queues behind it
			p.Sleep(10 * us)
			r.a.NIC.Kill()
			p.Sleep(10 * us)
			r.a.NIC.TxDMA.Release()
		}},
		{"kill with a job queued", func(r *testRig, p *sim.Proc) {
			p.Sleep(1 * us) // message 0 is in firmware processing, message 1 waits in the queue
			r.a.NIC.Kill()
		}},
		{"kill with frames queued for the wire", func(r *testRig, p *sim.Proc) {
			p.Sleep(40 * us) // the DMA engine outruns the link: fragments wait in the link queue
			r.a.NIC.Kill()
		}},
		{"stall across a queued job", func(r *testRig, p *sim.Proc) {
			p.Sleep(1 * us)
			r.a.NIC.StallFor(40 * us)
			p.Sleep(20 * us)
			r.a.NIC.StallFor(45 * us) // extended while the stages sleep on the first
		}},
		{"destination dead at delivery", func(r *testRig, p *sim.Proc) {
			p.Sleep(30 * us) // message 0 is half across
			r.b.NIC.Kill()
		}},
	}
	var got []string
	for _, sc := range scenarios {
		r := newRig(PCIXD)
		sizes := []int{5 * mem.PageSize, 2 * mem.PageSize, mem.PageSize}
		msgs := make([]*Message, len(sizes))
		txDone := make([]sim.Time, len(sizes))
		delivered := make([]sim.Time, len(sizes))
		r.b.NIC.handlers[protoTest] = func(p *sim.Proc, m *Message) { delivered[m.Tag] = p.Now() }
		send := func(i int) {
			msgs[i] = &Message{Dst: r.b.ID, Proto: protoTest, Tag: uint64(i)}
			r.a.NIC.Send(&TxJob{Msg: msgs[i], Gather: gatherBuf(t, r.a, sizes[i])})
			r.env.Spawn("txdone", func(p *sim.Proc) {
				msgs[i].TxDone.Wait(p)
				txDone[i] = p.Now()
			})
		}
		r.env.Spawn("send", func(p *sim.Proc) {
			send(0)
			send(1) // queued behind message 0
			p.Sleep(300 * us)
			r.a.NIC.Revive()
			r.b.NIC.Revive()
			send(2) // after the fault: must arrive
		})
		r.env.Spawn("fault", func(p *sim.Proc) { sc.fault(r, p) })
		r.env.Run(0)
		got = append(got, fmt.Sprintf("%s: a dropped %d frames %d B, b dropped %d frames %d B",
			sc.name, r.a.NIC.Dropped.N, r.a.NIC.Dropped.Bytes, r.b.NIC.Dropped.N, r.b.NIC.Dropped.Bytes))
		for i, m := range msgs {
			arrival := "lost"
			if delivered[i] > 0 {
				arrival = fmt.Sprintf("delivered %dns", delivered[i].Nanoseconds())
			}
			got = append(got, fmt.Sprintf("  m%d txdone %dns, %s, buffer held %v", i, txDone[i].Nanoseconds(), arrival, m.staged != nil))
			if !m.TxDone.Fired() {
				t.Errorf("%s: TxDone of message %d never fired: a sender would hang", sc.name, i)
			}
		}
		if delivered[2] == 0 {
			t.Errorf("%s: the message sent after the fault was not delivered", sc.name)
		}
	}
	golden(t, "faults.golden", got)
}
