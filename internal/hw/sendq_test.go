package hw

import (
	"testing"

	"repro/internal/sim"
)

// The tests in this file pin the send queues' rule (sendQueue) at both
// forwarding stages: a single-fragment message passes another node's
// bulk data at the next fragment boundary, never its own node's, and
// multi-fragment messages go one at a time in Seq order.

// step is one pipeline step of the sender's NIC.
type step struct {
	stage string
	tag   uint64
	frag  int
	at    sim.Time
}

// fanRig is one sender, a, and two receivers, b and c, recording a's
// pipeline steps, the tags each receiver was handed in order, and when.
type fanRig struct {
	env     *sim.Engine
	a, b, c *Node
	steps   []step
	got     map[NodeID][]uint64
	at      map[uint64]sim.Time
	msgs    map[uint64]*Message
	txDone  map[uint64]int // TxDone firings seen, per tag
}

// 64 KB is seventeen fragments with the envelope; 64 B is one.
const (
	bulk  = 64 << 10
	small = 64
)

func newFanRig() *fanRig {
	env := sim.NewEngine()
	c := NewCluster(env, DefaultParams(), PCIXD)
	r := &fanRig{env: env, got: map[NodeID][]uint64{}, at: map[uint64]sim.Time{},
		msgs: map[uint64]*Message{}, txDone: map[uint64]int{}}
	r.a, r.b, r.c = c.AddNode("a"), c.AddNode("b"), c.AddNode("c")
	r.a.NIC.SetProbe(func(s Step) {
		r.steps = append(r.steps, step{s.Stage, s.Msg.Tag, s.Frag, s.At})
	})
	for _, n := range []*Node{r.b, r.c} {
		n := n
		n.NIC.Handle(protoTest, func(p *sim.Proc, m *Message) {
			r.got[n.ID] = append(r.got[n.ID], m.Tag)
			r.at[m.Tag] = p.Now()
		})
	}
	return r
}

// send has a gather-send size bytes to node to at virtual time at,
// tagged tag, counting its TxDone firings.
func (r *fanRig) send(t *testing.T, to *Node, tag uint64, size int, at sim.Time) {
	t.Helper()
	xs := gatherBuf(t, r.a, size)
	m := &Message{Dst: to.ID, Proto: protoTest, Tag: tag, TxDone: sim.NewSignal(r.env)}
	m.TxDone.WaitFunc(func() { r.txDone[tag]++ })
	r.msgs[tag] = m
	r.env.After(at, func() { r.a.NIC.Send(&TxJob{Msg: m, Gather: xs}) })
}

// stage returns a's steps of one stage, in order.
func (r *fanRig) stage(name string) []step {
	var out []step
	for _, s := range r.steps {
		if s.stage == name {
			out = append(out, s)
		}
	}
	return out
}

// after returns the tags of the first two steps of a stage that end
// after t: the step in progress at t, and the one the stage took next.
func (r *fanRig) after(t *testing.T, name string, at sim.Time) (current, next uint64) {
	t.Helper()
	steps := r.stage(name)
	for i, s := range steps {
		if s.at > at {
			if i+1 >= len(steps) {
				t.Fatalf("no %s step after the one in progress at %v", name, at)
			}
			return s.tag, steps[i+1].tag
		}
	}
	t.Fatalf("no %s step ends after %v", name, at)
	return 0, 0
}

// when returns the instant of a's step (stage, tag, frag).
func (r *fanRig) when(t *testing.T, stage string, tag uint64, frag int) sim.Time {
	t.Helper()
	for _, s := range r.steps {
		if s.stage == stage && s.tag == tag && s.frag == frag {
			return s.at
		}
	}
	t.Fatalf("no %s step of m%d f%d", stage, tag, frag)
	return 0
}

// span returns the first and last instants of a message's steps at a
// stage.
func (r *fanRig) span(name string, tag uint64) (first, last sim.Time) {
	first = -1
	for _, s := range r.stage(name) {
		if s.tag == tag {
			if first < 0 {
				first = s.at
			}
			last = s.at
		}
	}
	return first, last
}

// A 64 KB message sent at 0 spends 6.1 µs in firmware send processing,
// then the DMA engine moves a 4 KB fragment every 8.4 µs and the link
// one every 16.4 µs. So at 12 µs fragment 0 is crossing the PCI bus
// (the transmit stage is mid-message, its first boundary at 14.5 µs),
// and at 160 µs all seventeen fragments are DMA'd but only eight have
// left on the wire (the link stage is mid-message with the rest
// queued).
const (
	midDMA  = 12 * us
	midLink = 160 * us
)

func TestSmallMessagePassesOtherNodesBulk(t *testing.T) {
	t.Run("transmit stage", func(t *testing.T) {
		r := newFanRig()
		r.send(t, r.b, 1, bulk, 0)
		r.send(t, r.c, 2, small, midDMA)
		r.env.Run(0)
		if cur, next := r.after(t, "txdma", midDMA); cur != 1 || next != 2 {
			t.Fatalf("DMA took m%d after the fragment of m%d in progress, want m2 after m1's", next, cur)
		}
		if r.when(t, "txdma", 2, 0) > r.when(t, "txdma", 1, 1) {
			t.Fatal("the 64-byte message waited for more than the fragment in progress")
		}
		if r.at[2] >= r.at[1] {
			t.Fatalf("c got its 64 bytes at %v, after b's 64 KB at %v", r.at[2], r.at[1])
		}
	})
	t.Run("link stage", func(t *testing.T) {
		r := newFanRig()
		r.send(t, r.b, 1, bulk, 0)
		r.send(t, r.c, 2, small, midLink)
		r.env.Run(0)
		if _, last := r.span("txdma", 1); last > midLink {
			t.Fatalf("m1's DMA ran until %v: the scenario wants it done by %v", last, midLink)
		}
		queued := r.when(t, "txdma", 2, 0)
		if cur, next := r.after(t, "link", queued); cur != 1 || next != 2 {
			t.Fatalf("the link took m%d after the fragment of m%d on the wire, want m2 after m1's", next, cur)
		}
		if _, last := r.span("link", 1); r.when(t, "link", 2, 0) > last {
			t.Fatal("m1's last fragment left before m2")
		}
	})
}

func TestSmallMessageNeverPassesItsOwnNodesBulk(t *testing.T) {
	for _, sc := range []struct {
		name, stage string
		at          sim.Time
	}{
		{"transmit stage", "txdma", midDMA},
		{"link stage", "link", midLink},
	} {
		t.Run(sc.name, func(t *testing.T) {
			r := newFanRig()
			r.send(t, r.b, 1, bulk, 0)
			r.send(t, r.b, 2, small, sc.at)
			r.env.Run(0)
			_, last := r.span(sc.stage, 1)
			if first, _ := r.span(sc.stage, 2); first < last {
				t.Fatalf("%s: m2 at %v before m1's last fragment at %v", sc.stage, first, last)
			}
			if got := r.got[r.b.ID]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
				t.Fatalf("b got %v, want [1 2]", got)
			}
		})
	}
}

func TestBulkMessagesGoInSeqOrder(t *testing.T) {
	for _, sc := range []struct {
		name       string
		first, sec func(*fanRig) *Node
	}{
		{"b then c", func(r *fanRig) *Node { return r.b }, func(r *fanRig) *Node { return r.c }},
		{"c then b", func(r *fanRig) *Node { return r.c }, func(r *fanRig) *Node { return r.b }},
	} {
		t.Run(sc.name, func(t *testing.T) {
			r := newFanRig()
			r.send(t, sc.first(r), 1, bulk, 0)
			r.send(t, sc.sec(r), 2, bulk, 0)
			r.env.Run(0)
			for _, stage := range []string{"txdma", "link"} {
				_, last := r.span(stage, 1)
				if first, _ := r.span(stage, 2); first < last {
					t.Errorf("%s: m2 began at %v, before m1 ended at %v (no sharing between bulk messages)", stage, first, last)
				}
			}
			if r.at[2] <= r.at[1] {
				t.Errorf("m2 delivered at %v, not after m1 at %v", r.at[2], r.at[1])
			}
		})
	}
}

// TestFaultsWhileASmallMessageHasOvertaken kills or stalls the sender
// while its 64-byte message to c has set its 64 KB message to b aside
// at a fragment boundary. Every TxDone fires exactly once, every wire
// byte is either transmitted or counted dropped, and the held message
// either resumes (stall) or is dropped (kill) — the stage is not left
// holding it: a pair sent after revival arrives.
func TestFaultsWhileASmallMessageHasOvertaken(t *testing.T) {
	t.Run("kill", func(t *testing.T) {
		r := newFanRig()
		r.send(t, r.b, 1, bulk, 0)
		r.send(t, r.c, 2, small, midDMA)
		const kill = 15 * us // m1's fragment 0 is done; m2 is in firmware send processing
		r.env.After(kill, r.a.NIC.Kill)
		r.env.After(400*us, r.a.NIC.Revive)
		r.send(t, r.b, 3, bulk, 500*us)
		r.send(t, r.c, 4, small, 500*us)
		r.env.Run(0)
		if fw := r.when(t, "fw-send", 2, -1); fw < kill || r.when(t, "txdma", 1, 0) > kill {
			t.Fatalf("the kill at %v missed the overtaking (m2's firmware done %v)", kill, fw)
		}
		wire, sent := 0, 0
		for tag := uint64(1); tag <= 2; tag++ {
			wire += r.msgs[tag].wireLen
		}
		for _, s := range r.stage("link") {
			if s.tag <= 2 {
				sent += r.a.NIC.fragBytes(r.msgs[s.tag], s.frag)
			}
		}
		if d := int(r.a.NIC.Dropped.Bytes); sent+d != wire {
			t.Errorf("%d B transmitted + %d B dropped, want the %d wire bytes", sent, d, wire)
		}
		if _, ok := r.at[1]; ok {
			t.Error("m1 delivered though the card died mid-message")
		}
		if _, ok := r.at[2]; ok {
			t.Error("m2 delivered though the card died in its firmware processing")
		}
		for tag := uint64(1); tag <= 4; tag++ {
			if r.txDone[tag] != 1 {
				t.Errorf("m%d: TxDone fired %d times, want 1", tag, r.txDone[tag])
			}
		}
		if r.at[3] == 0 || r.at[4] == 0 {
			t.Errorf("after revival: m3 delivered %v, m4 %v — the stage is stuck", r.at[3], r.at[4])
		}
	})
	t.Run("stall", func(t *testing.T) {
		r := newFanRig()
		r.send(t, r.b, 1, bulk, 0)
		r.send(t, r.c, 2, small, midDMA)
		const stall, until = 13 * us, 34 * us // across m1's first fragment boundary
		r.env.After(stall, func() { r.a.NIC.StallFor(until - stall) })
		r.env.Run(0)
		if fw := r.when(t, "fw-send", 2, -1); fw < until {
			t.Errorf("m2's firmware processing ended at %v, inside the stall", fw)
		}
		if r.when(t, "txdma", 2, 0) > r.when(t, "txdma", 1, 1) {
			t.Error("m2 lost its place across the stall: m1's fragment 1 went first")
		}
		if r.at[1] == 0 || r.at[2] == 0 || r.at[2] > r.at[1] {
			t.Errorf("deliveries m1 %v, m2 %v: want both, m2 first", r.at[1], r.at[2])
		}
		for tag := uint64(1); tag <= 2; tag++ {
			if r.txDone[tag] != 1 {
				t.Errorf("m%d: TxDone fired %d times, want 1", tag, r.txDone[tag])
			}
		}
		if r.a.NIC.Dropped.N != 0 {
			t.Errorf("a stall dropped %d frames", r.a.NIC.Dropped.N)
		}
	})
}

// TestSendQueueCompactsAFIFOThatNeverDrains pushes and pops one FIFO so
// that it never empties: its backing array must stop growing.
func TestSendQueueCompactsAFIFOThatNeverDrains(t *testing.T) {
	q := sendQueue[int]{env: sim.NewEngine()}
	m := &Message{Dst: 1, frags: 1}
	for i := 0; i < 4; i++ {
		q.push(m, i)
	}
	for i := 4; i < 10000; i++ {
		m.Seq = uint64(i)
		q.push(m, i)
		if got := q.pop(q.pick()); got != i-4 {
			t.Fatalf("popped %d, want %d", got, i-4)
		}
	}
	if c := cap(q.fifos[0].buf); c > fifoCap {
		t.Fatalf("a FIFO holding 4 values grew to capacity %d", c)
	}
	for i := 9996; i < 10000; i++ {
		if got := q.pop(q.pick()); got != i {
			t.Fatalf("popped %d, want %d", got, i)
		}
	}
	if !q.empty() {
		t.Fatal("the queue is not empty after its last pop")
	}
}
