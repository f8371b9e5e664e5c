package hw

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

const us = time.Microsecond

// testRig builds a two-node cluster with a trivial echo-less protocol
// handler that records deliveries. The handler keeps each message past
// its return, so — the ownership rule on Message — it keeps a copy of
// the payload, not the NIC's pooled buffer.
type testRig struct {
	env  *sim.Engine
	p    *Params
	c    *Cluster
	a, b *Node
	got  []*Message
	when []sim.Time
}

const protoTest uint8 = 9

func newRig(model LinkModel) *testRig {
	env := sim.NewEngine()
	p := DefaultParams()
	c := NewCluster(env, p, model)
	r := &testRig{env: env, p: p, c: c}
	r.a = c.AddNode("a")
	r.b = c.AddNode("b")
	r.b.NIC.Handle(protoTest, r.record)
	return r
}

func (r *testRig) record(proc *sim.Proc, m *Message) {
	kept := *m
	kept.Payload = append([]byte(nil), m.Payload...)
	r.got = append(r.got, &kept)
	r.when = append(r.when, proc.Now())
}

// staged returns b as an Inline payload, the way a driver's Stage does
// from host memory.
func staged(b []byte) *Staged {
	s := getPayload(len(b))
	copy(s.b, b)
	return s
}

func TestInlineDeliveryCarriesBytes(t *testing.T) {
	r := newRig(PCIXD)
	payload := []byte("hello fabric")
	r.env.Spawn("send", func(p *sim.Proc) {
		r.a.NIC.Send(&TxJob{
			Msg:    &Message{Dst: r.b.ID, Proto: protoTest, Kind: 1, Tag: 42, Header: []byte("hdr")},
			Inline: staged(payload),
			PIO:    true,
		})
	})
	r.env.Run(0)
	if len(r.got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(r.got))
	}
	m := r.got[0]
	if !bytes.Equal(m.Payload, payload) || string(m.Header) != "hdr" || m.Tag != 42 {
		t.Fatalf("message corrupted: %+v", m)
	}
	if m.Src != r.a.ID || m.Dst != r.b.ID {
		t.Fatalf("bad addressing: src=%d dst=%d", m.Src, m.Dst)
	}
}

func TestGatherDeliveryReadsHostMemory(t *testing.T) {
	r := newRig(PCIXD)
	as := r.a.NewUserSpace("app")
	va, err := as.Mmap(2*mem.PageSize, "buf")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i)
	}
	as.WriteBytes(va, data)
	xs, _ := as.Resolve(va, len(data))
	r.env.Spawn("send", func(p *sim.Proc) {
		r.a.NIC.Send(&TxJob{
			Msg:    &Message{Dst: r.b.ID, Proto: protoTest},
			Gather: xs,
		})
	})
	r.env.Run(0)
	if len(r.got) != 1 || !bytes.Equal(r.got[0].Payload, data) {
		t.Fatal("gather payload corrupted")
	}
}

func TestTxDoneFiresBeforeDeliveryForGather(t *testing.T) {
	r := newRig(PCIXD)
	as := r.a.NewUserSpace("app")
	va, _ := as.Mmap(mem.PageSize, "buf")
	xs, _ := as.Resolve(va, 1024)
	var txAt, rxAt sim.Time
	msg := &Message{Dst: r.b.ID, Proto: protoTest}
	r.env.Spawn("send", func(p *sim.Proc) {
		r.a.NIC.Send(&TxJob{Msg: msg, Gather: xs})
		msg.TxDone.Wait(p)
		txAt = p.Now()
	})
	r.env.Run(0)
	rxAt = r.when[0]
	if txAt == 0 || rxAt == 0 {
		t.Fatal("signals did not fire")
	}
	if txAt >= rxAt {
		t.Fatalf("TxDone at %v not before delivery at %v", txAt, rxAt)
	}
}

func TestInOrderDeliveryPerSender(t *testing.T) {
	r := newRig(PCIXD)
	r.env.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			r.a.NIC.Send(&TxJob{
				Msg:    &Message{Dst: r.b.ID, Proto: protoTest, Tag: uint64(i)},
				Inline: staged(make([]byte, 100*(i%7))),
				PIO:    true,
			})
		}
	})
	r.env.Run(0)
	if len(r.got) != 20 {
		t.Fatalf("delivered %d, want 20", len(r.got))
	}
	for i, m := range r.got {
		if m.Tag != uint64(i) {
			t.Fatalf("out of order: position %d has tag %d", i, m.Tag)
		}
	}
	t.Run("interleaved destinations", func(t *testing.T) {
		// One sender, three receivers, a mix of one-fragment and bulk
		// messages in bursts and trickles: small messages pass other
		// nodes' bulk data all the time, and every receiver must still
		// see its own messages in the order they were sent.
		r := newFanRig()
		d := r.a.Cluster.AddNode("d")
		d.NIC.Handle(protoTest, func(p *sim.Proc, m *Message) { r.got[d.ID] = append(r.got[d.ID], m.Tag) })
		to := []*Node{r.b, r.c, d}
		sizes := []int{small, bulk, 3000, 9000, small, 20000, 1}
		for i := 0; i < 60; i++ {
			at := sim.Time(i/6) * 40 * us // bursts of six
			r.send(t, to[(i*i+i/4)%3], uint64(i), sizes[i%len(sizes)], at)
		}
		r.env.Run(0)
		total := 0
		for _, n := range to {
			got := r.got[n.ID]
			total += len(got)
			for k := 1; k < len(got); k++ {
				if got[k] < got[k-1] {
					t.Fatalf("%s got %v: out of order at position %d", n.Name, got, k)
				}
			}
		}
		if total != 60 {
			t.Fatalf("delivered %d, want 60", total)
		}
		passed, links := false, r.stage("link")
		for i := 1; i < len(links); i++ {
			passed = passed || links[i].tag < links[i-1].tag
		}
		if !passed {
			t.Fatal("no message ever left before an older one: the scenario missed its point")
		}
	})
}

// One-way time for a minimal message should be a few microseconds —
// the NIC+wire component of the paper's latencies (host costs are
// charged by the drivers, not here).
func TestSmallMessageWireLatency(t *testing.T) {
	r := newRig(PCIXD)
	r.env.Spawn("send", func(p *sim.Proc) {
		r.a.NIC.Send(&TxJob{
			Msg:    &Message{Dst: r.b.ID, Proto: protoTest},
			Inline: staged([]byte{1}),
			PIO:    true,
		})
	})
	r.env.Run(0)
	lat := r.when[0]
	// GM MCP path: fwSend 1.5 + link(17B) ~0.07 + prop 0.3 + rxDMA
	// (0.7+~0) + fwRecv 1.5 ≈ 4.1µs.
	if lat < 3*us || lat > 6*us {
		t.Fatalf("1-byte NIC+wire latency = %v, want 3–6µs", lat)
	}
}

// Large transfers must pipeline: total time ≈ link-bound, not the sum
// of DMA + link + DMA.
func TestLargeMessagePipelines(t *testing.T) {
	r := newRig(PCIXD)
	const size = 1 << 20
	as := r.a.NewUserSpace("app")
	va, _ := as.Mmap(size, "buf")
	xs, _ := as.Resolve(va, size)
	r.env.Spawn("send", func(p *sim.Proc) {
		r.a.NIC.Send(&TxJob{Msg: &Message{Dst: r.b.ID, Proto: protoTest}, Gather: xs})
	})
	r.env.Run(0)
	lat := r.when[0]
	linkOnly := r.p.LinkTime(PCIXD, size)
	// Serialized DMA+link+DMA would be ≈ linkOnly + 2*size/533MB/s ≈
	// linkOnly + 3.9ms. Pipelined should be well under linkOnly*1.15.
	if lat > linkOnly*115/100 {
		t.Fatalf("1MB latency %v exceeds pipelined bound (link-only %v)", lat, linkOnly)
	}
	if lat < linkOnly {
		t.Fatalf("1MB latency %v below link occupancy %v (impossible)", lat, linkOnly)
	}
}

func TestXEModelIsFaster(t *testing.T) {
	oneWay := func(model LinkModel) sim.Time {
		r := newRig(model)
		const size = 1 << 20
		as := r.a.NewUserSpace("app")
		va, _ := as.Mmap(size, "buf")
		xs, _ := as.Resolve(va, size)
		r.env.Spawn("send", func(p *sim.Proc) {
			r.a.NIC.Send(&TxJob{Msg: &Message{Dst: r.b.ID, Proto: protoTest}, Gather: xs})
		})
		r.env.Run(0)
		return r.when[0]
	}
	xd, xe := oneWay(PCIXD), oneWay(PCIXE)
	ratio := float64(xd) / float64(xe)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("XD/XE 1MB ratio = %.2f, want ≈2 (250 vs 500 MB/s)", ratio)
	}
}

func TestFullDuplex(t *testing.T) {
	// Simultaneous transfers in both directions must not halve
	// bandwidth: links are full duplex (§3.1).
	r := newRig(PCIXD)
	r.a.NIC.Handle(protoTest, r.record)
	const size = 1 << 20
	mk := func(n *Node) []mem.Extent {
		as := n.NewUserSpace("app")
		va, _ := as.Mmap(size, "buf")
		xs, _ := as.Resolve(va, size)
		return xs
	}
	xa, xb := mk(r.a), mk(r.b)
	r.env.Spawn("sa", func(p *sim.Proc) {
		r.a.NIC.Send(&TxJob{Msg: &Message{Dst: r.b.ID, Proto: protoTest}, Gather: xa})
	})
	r.env.Spawn("sb", func(p *sim.Proc) {
		r.b.NIC.Send(&TxJob{Msg: &Message{Dst: r.a.ID, Proto: protoTest}, Gather: xb})
	})
	r.env.Run(0)
	if len(r.when) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(r.when))
	}
	bound := r.p.LinkTime(PCIXD, size) * 115 / 100
	for _, w := range r.when {
		if w > bound {
			t.Fatalf("duplex transfer took %v, want < %v (no shared-medium serialization)", w, bound)
		}
	}
}

func TestTwoSendersShareOneReceiverLinkFairly(t *testing.T) {
	// Three nodes: a and c both send 1MB to b. The receiver's RxDMA is
	// the shared stage; both transfers should finish in about twice the
	// single-transfer time, not 1x (shared) and not >3x.
	env := sim.NewEngine()
	p := DefaultParams()
	c := NewCluster(env, p, PCIXD)
	na, nb, nc := c.AddNode("a"), c.AddNode("b"), c.AddNode("c")
	var when []sim.Time
	nb.NIC.Handle(protoTest, func(proc *sim.Proc, m *Message) { when = append(when, proc.Now()) })
	const size = 1 << 20
	send := func(n *Node) {
		as := n.NewUserSpace("app")
		va, _ := as.Mmap(size, "buf")
		xs, _ := as.Resolve(va, size)
		env.Spawn("s", func(proc *sim.Proc) {
			n.NIC.Send(&TxJob{Msg: &Message{Dst: nb.ID, Proto: protoTest}, Gather: xs})
		})
	}
	send(na)
	send(nc)
	env.Run(0)
	if len(when) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(when))
	}
	single := p.DMATime(PCIXD, size) // rx DMA is the contended stage
	last := when[1]
	if last < single*18/10 {
		t.Fatalf("contended completion %v too fast (single rxDMA %v)", last, single)
	}
}

func TestTransTable(t *testing.T) {
	tt := NewTransTable(3)
	k := func(i uint64) TransKey { return TransKey{AS: 1, VPN: i} }
	for i := uint64(0); i < 3; i++ {
		if err := tt.Insert(k(i), mem.PhysAddr(i*mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tt.Insert(k(9), 0); err == nil {
		t.Fatal("insert into full table succeeded")
	}
	// Re-inserting an existing key is allowed (update).
	if err := tt.Insert(k(1), mem.PhysAddr(7*mem.PageSize)); err != nil {
		t.Fatal(err)
	}
	if pa, ok := tt.Lookup(k(1)); !ok || pa != 7*mem.PageSize {
		t.Fatalf("lookup = %#x,%v", pa, ok)
	}
	tt.Remove(k(0))
	if _, ok := tt.Lookup(k(0)); ok {
		t.Fatal("removed key still present")
	}
	if tt.Used() != 2 {
		t.Fatalf("used = %d, want 2", tt.Used())
	}
	// ASID disambiguates: same VPN, different space.
	if err := tt.Insert(TransKey{AS: 2, VPN: 1}, mem.PhysAddr(8*mem.PageSize)); err != nil {
		t.Fatal(err)
	}
	if pa, _ := tt.Lookup(TransKey{AS: 1, VPN: 1}); pa != 7*mem.PageSize {
		t.Fatal("ASID collision in table")
	}
}

func TestCPUContention(t *testing.T) {
	env := sim.NewEngine()
	p := DefaultParams()
	c := NewCluster(env, p, PCIXD)
	n := c.AddNode("n")
	var finish []sim.Time
	// Three 1MB copies on a 2-core CPU: third must wait.
	for i := 0; i < 3; i++ {
		env.Spawn("cp", func(proc *sim.Proc) {
			n.CPU.Copy(proc, 1<<20)
			finish = append(finish, proc.Now())
		})
	}
	env.Run(0)
	one := p.CopyTime(1 << 20)
	if finish[0] != one || finish[1] != one {
		t.Fatalf("first two copies at %v/%v, want %v", finish[0], finish[1], one)
	}
	if finish[2] != 2*one {
		t.Fatalf("third copy at %v, want %v (queued)", finish[2], 2*one)
	}
	if n.CPU.CopyStats.N != 3 || n.CPU.CopyStats.Bytes != 3<<20 {
		t.Fatalf("copy stats %+v", n.CPU.CopyStats)
	}
}

func TestParamsCurveShapes(t *testing.T) {
	p := DefaultParams()
	// Fig 1(b): registration of 16 pages ≈ 16*3µs; dereg dominated by
	// 200µs base; copy of 64KB on P4 ≈ 60µs beats register+dereg.
	reg := p.RegTime(16)
	if reg < 45*us || reg > 55*us {
		t.Errorf("RegTime(16) = %v, want ≈49µs", reg)
	}
	if d := p.DeregTime(1); d < 200*us {
		t.Errorf("DeregTime(1) = %v, want ≥200µs", d)
	}
	cp := p.CopyTimeAt(64*1024, p.CopyBandwidthP4)
	rd := p.RegTime(16) + p.DeregTime(16)
	if cp >= rd {
		t.Errorf("64KB copy (%v) should beat register+dereg (%v)", cp, rd)
	}
	// Crossover: registration alone eventually beats copying (large,
	// reused buffers are what registration is for).
	bigPages := 256 // 1MB
	if p.RegTime(bigPages) < p.CopyTimeAt(bigPages*4096, p.CopyBandwidthP3) {
		// 256 pages: reg = 769µs, P3 copy = 1906µs: reg cheaper.
	} else {
		t.Errorf("1MB: registration (%v) should be cheaper than P3 copy (%v)",
			p.RegTime(bigPages), p.CopyTimeAt(bigPages*4096, p.CopyBandwidthP3))
	}
}

func TestFragCounts(t *testing.T) {
	p := DefaultParams()
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {1 << 20, 256},
	}
	for _, c := range cases {
		if got := p.Frags(c.n); got != c.want {
			t.Errorf("Frags(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// Payload buffers are pooled, so a fault must never put a buffer back
// that a message still references: a stream of same-size-class
// multi-fragment messages runs across a kill of the destination and a
// kill of the source, each mid-message, and every message that does
// arrive carries exactly its own bytes — checked while the handler
// runs, which is when the buffer is the message's. The second case
// sends to two nodes, every third message a one-fragment one to the
// node the bulk message before it does not go to, so the faults also
// land while small messages pass bulk ones.
func TestFaultsNeverAliasPayloadBuffers(t *testing.T) {
	t.Run("one destination", func(t *testing.T) { aliasStream(t, 1) })
	t.Run("two destinations", func(t *testing.T) { aliasStream(t, 2) })
}

// aliasStream is TestFaultsNeverAliasPayloadBuffers over dests
// receivers.
func aliasStream(t *testing.T, dests int) {
	env := sim.NewEngine()
	p := DefaultParams()
	c := NewCluster(env, p, PCIXD)
	a := c.AddNode("a")
	var to []*Node
	for i := 0; i < dests; i++ {
		to = append(to, c.AddNode(fmt.Sprint("r", i)))
	}
	const (
		n   = 48
		big = 5 * mem.PageSize // several fragments, one size class
	)
	size := func(i int) int {
		if dests > 1 && i%3 == 2 {
			return 1000 // one fragment
		}
		return big
	}
	dst := func(i int) *Node {
		if dests > 1 && i%3 == 2 {
			return to[(i+1)%dests]
		}
		return to[i%dests]
	}
	pattern := func(tag uint64, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(uint64(i)*7 + tag*131)
		}
		return b
	}
	delivered := map[uint64]bool{}
	for _, r := range to {
		r.NIC.Handle(protoTest, func(_ *sim.Proc, m *Message) {
			if !bytes.Equal(m.Payload, pattern(m.Tag, size(int(m.Tag)))) {
				t.Errorf("message %d delivered with another message's bytes", m.Tag)
			}
			if delivered[m.Tag] {
				t.Errorf("message %d delivered twice", m.Tag)
			}
			delivered[m.Tag] = true
		})
	}
	as := a.NewUserSpace("app")
	srcs := make([][]mem.Extent, n)
	for i := range srcs {
		va, err := as.Mmap(size(i), "buf")
		if err != nil {
			t.Fatal(err)
		}
		as.WriteBytes(va, pattern(uint64(i), size(i)))
		srcs[i], _ = as.Resolve(va, size(i))
	}
	one := p.LinkTime(PCIXD, big) // ≈ one message's occupancy of the wire
	env.Spawn("send", func(proc *sim.Proc) {
		for i, xs := range srcs {
			// Bursts of eight, back to back: several messages are in the
			// pipeline at once, each holding its own pooled buffer.
			a.NIC.Send(&TxJob{Msg: &Message{Dst: dst(i).ID, Proto: protoTest, Tag: uint64(i)}, Gather: xs})
			if i%8 == 7 {
				proc.Sleep(8 * one)
			}
		}
	})
	env.Spawn("faults", func(proc *sim.Proc) {
		proc.Sleep(3*one + one/2) // inside the first burst, mid-message
		to[0].NIC.Kill()
		proc.Sleep(2 * one)
		to[0].NIC.Revive()
		proc.Sleep(14 * one) // inside the third burst
		a.NIC.Kill()
		proc.Sleep(2 * one)
		a.NIC.Revive()
	})
	env.Run(0)
	lost := a.NIC.Dropped.N + to[0].NIC.Dropped.N
	if lost == 0 || len(delivered) == 0 || len(delivered) == n {
		t.Fatalf("%d of %d delivered, %d frames dropped: the faults missed the stream", len(delivered), n, lost)
	}
	for i := n - dests; i < n; i++ {
		if !delivered[uint64(i)] {
			t.Errorf("message %d, sent after both revivals, was not delivered", i)
		}
	}
}
