package gm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

const us = time.Microsecond

// rig is a two-node GM test fixture.
type rig struct {
	env    *sim.Engine
	p      *hw.Params
	a, b   *hw.Node
	ga, gb *GM
}

func newRig() *rig {
	env := sim.NewEngine()
	p := hw.DefaultParams()
	c := hw.NewCluster(env, p, hw.PCIXD)
	r := &rig{env: env, p: p}
	r.a, r.b = c.AddNode("a"), c.AddNode("b")
	r.ga, r.gb = Attach(r.a), Attach(r.b)
	return r
}

// waitRecv consumes events until a RecvComplete arrives.
func waitRecv(p *sim.Proc, pt *Port) Event {
	for {
		ev := pt.PollEvent(p)
		if ev.Type == RecvComplete {
			return ev
		}
	}
}

// waitSend consumes events until a send completion.
func waitSend(p *sim.Proc, pt *Port) {
	for pt.PollEvent(p).Type != SendComplete {
	}
}

func TestSendRecvDataIntegrity(t *testing.T) {
	r := newRig()
	asA := r.a.NewUserSpace("appA")
	asB := r.b.NewUserSpace("appB")
	const n = 3*mem.PageSize + 77
	vaA, _ := asA.Mmap(n, "src")
	vaB, _ := asB.Mmap(n, "dst")
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	asA.WriteBytes(vaA, data)

	var got []byte
	r.env.Spawn("b", func(p *sim.Proc) {
		pb, _ := r.gb.OpenPort(1, false)
		reg, err := pb.RegisterMemory(p, asB, vaB, n)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pb.PostRecv(p, 7, asB, vaB, n); err != nil {
			t.Error(err)
			return
		}
		ev := waitRecv(p, pb)
		if ev.Err != nil || ev.Len != n {
			t.Errorf("recv event %+v", ev)
		}
		got, _ = asB.ReadBytes(vaB, n)
		pb.DeregisterMemory(p, reg)
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		p.Sleep(1 * us) // let B post first
		pa, _ := r.ga.OpenPort(1, false)
		if _, err := pa.RegisterMemory(p, asA, vaA, n); err != nil {
			t.Error(err)
			return
		}
		if err := pa.Send(p, r.b.ID, 1, 7, asA, vaA, n); err != nil {
			t.Error(err)
		}
	})
	r.env.Run(0)
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted in flight")
	}
}

func TestSendUnregisteredFails(t *testing.T) {
	r := newRig()
	as := r.a.NewUserSpace("app")
	va, _ := as.Mmap(mem.PageSize, "buf")
	r.env.Spawn("a", func(p *sim.Proc) {
		pa, _ := r.ga.OpenPort(1, false)
		if err := pa.Send(p, r.b.ID, 1, 0, as, va, 100); err == nil {
			t.Error("send of unregistered memory succeeded")
		}
	})
	r.env.Run(0)
}

func TestPartialRegistrationRejected(t *testing.T) {
	r := newRig()
	as := r.a.NewUserSpace("app")
	va, _ := as.Mmap(4*mem.PageSize, "buf")
	r.env.Spawn("a", func(p *sim.Proc) {
		pa, _ := r.ga.OpenPort(1, false)
		if _, err := pa.RegisterMemory(p, as, va, 2*mem.PageSize); err != nil {
			t.Error(err)
			return
		}
		// Sending past the registered prefix must fail.
		if err := pa.Send(p, r.b.ID, 1, 0, as, va, 3*mem.PageSize); err == nil {
			t.Error("send past registered range succeeded")
		}
		// Within the prefix is fine.
		if err := pa.Send(p, r.b.ID, 1, 0, as, va, 2*mem.PageSize); err != nil {
			t.Error(err)
		}
	})
	r.env.Run(0)
}

func TestRegistrationCost(t *testing.T) {
	// Fig 1(b): ~3 µs per page registration, 200 µs dereg base.
	r := newRig()
	as := r.a.NewUserSpace("app")
	const pages = 16
	va, _ := as.Mmap(pages*mem.PageSize, "buf")
	var regTime, deregTime sim.Time
	r.env.Spawn("a", func(p *sim.Proc) {
		pa, _ := r.ga.OpenPort(1, false)
		t0 := p.Now()
		reg, err := pa.RegisterMemory(p, as, va, pages*mem.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		regTime = p.Now() - t0
		t1 := p.Now()
		pa.DeregisterMemory(p, reg)
		deregTime = p.Now() - t1
	})
	r.env.Run(0)
	if regTime < 45*us || regTime > 55*us {
		t.Errorf("register 16 pages took %v, want ≈49µs", regTime)
	}
	if deregTime < 200*us || deregTime > 210*us {
		t.Errorf("deregister took %v, want ≈200µs", deregTime)
	}
}

func TestRegistrationPinsPages(t *testing.T) {
	r := newRig()
	as := r.a.NewUserSpace("app")
	va, _ := as.Mmap(2*mem.PageSize, "buf")
	r.env.Spawn("a", func(p *sim.Proc) {
		pa, _ := r.ga.OpenPort(1, false)
		reg, _ := pa.RegisterMemory(p, as, va, 2*mem.PageSize)
		if as.PinCount(va) != 1 {
			t.Errorf("pin count = %d, want 1", as.PinCount(va))
		}
		pa.DeregisterMemory(p, reg)
		if as.PinCount(va) != 0 {
			t.Errorf("pin count after dereg = %d", as.PinCount(va))
		}
	})
	r.env.Run(0)
}

func TestTranslationTableExhaustion(t *testing.T) {
	r := newRig()
	r.p.TransTableCap = 8 // shrink for the test (before first use)
	env := sim.NewEngine()
	c := hw.NewCluster(env, r.p, hw.PCIXD)
	a := c.AddNode("a")
	ga := Attach(a)
	as := a.NewUserSpace("app")
	va, _ := as.Mmap(16*mem.PageSize, "buf")
	env.Spawn("a", func(p *sim.Proc) {
		pa, _ := ga.OpenPort(1, false)
		if _, err := pa.RegisterMemory(p, as, va, 6*mem.PageSize); err != nil {
			t.Error(err)
		}
		if _, err := pa.RegisterMemory(p, as, va+8*mem.PageSize, 6*mem.PageSize); err == nil {
			t.Error("registration beyond table capacity succeeded")
		}
		// Failure must unwind: pins released, entries removed.
		if as.PinCount(va+8*mem.PageSize) != 0 {
			t.Error("failed registration left pages pinned")
		}
		if a.NIC.Table.Used() != 6 {
			t.Errorf("table has %d entries, want 6", a.NIC.Table.Used())
		}
	})
	env.Run(0)
}

// pingPong measures GM one-way latency for a payload size.
func pingPong(t *testing.T, kernel bool, size, iters int) sim.Time {
	t.Helper()
	r := newRig()
	mk := func(n *hw.Node) *vm.AddressSpace {
		if kernel {
			return n.Kernel
		}
		return n.NewUserSpace("app")
	}
	asA, asB := mk(r.a), mk(r.b)
	vaA, _ := asA.Mmap(size+mem.PageSize, "buf")
	vaB, _ := asB.Mmap(size+mem.PageSize, "buf")
	var elapsed sim.Time
	done := sim.NewSignal(r.env)
	r.env.Spawn("b", func(p *sim.Proc) {
		pb, _ := r.gb.OpenPort(1, kernel)
		if _, err := pb.RegisterMemory(p, asB, vaB, size); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < iters; i++ {
			pb.PostRecv(p, 1, asB, vaB, size)
			waitRecv(p, pb)
			pb.Send(p, r.a.ID, 1, 2, asB, vaB, size)
		}
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		pa, _ := r.ga.OpenPort(1, kernel)
		if _, err := pa.RegisterMemory(p, asA, vaA, size); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(10 * us) // let B get ready
		t0 := p.Now()
		for i := 0; i < iters; i++ {
			pa.PostRecv(p, 2, asA, vaA, size)
			pa.Send(p, r.b.ID, 1, 1, asA, vaA, size)
			waitRecv(p, pa)
		}
		elapsed = p.Now() - t0
		done.Fire()
	})
	r.env.Run(0)
	if !done.Fired() {
		t.Fatal("ping-pong did not complete")
	}
	return elapsed / sim.Time(2*iters)
}

func TestUserLatencyCalibration(t *testing.T) {
	// §5.1: GM user-space 1-byte one-way ≈ 6.7 µs.
	lat := pingPong(t, false, 1, 50)
	if lat < 6200*time.Nanosecond || lat > 7200*time.Nanosecond {
		t.Errorf("GM user 1B one-way = %v, want ≈6.7µs", lat)
	}
}

func TestKernelPenaltyCalibration(t *testing.T) {
	// §5.1: "small message latency is 2 µs higher in the kernel".
	u := pingPong(t, false, 1, 50)
	k := pingPong(t, true, 1, 50)
	diff := k - u
	if diff < 1600*time.Nanosecond || diff > 2400*time.Nanosecond {
		t.Errorf("kernel-user latency gap = %v (user %v, kernel %v), want ≈2µs", diff, u, k)
	}
}

func TestLargeMessageBandwidth(t *testing.T) {
	// Raw GM must approach the 250 MB/s link for 1MB transfers
	// (Fig 5(b)).
	const size = 1 << 20
	lat := pingPong(t, false, size, 4)
	bw := float64(size) / lat.Seconds() / 1e6
	if bw < 230 || bw > 252 {
		t.Errorf("GM 1MB bandwidth = %.1f MB/s, want ≈244", bw)
	}
}

func TestSendTokensLimitOutstanding(t *testing.T) {
	r := newRig()
	as := r.a.NewUserSpace("app")
	const n = 64
	va, _ := as.Mmap(n*mem.PageSize, "bufs")
	r.env.Spawn("sink", func(p *sim.Proc) {
		pb, _ := r.gb.OpenPort(1, false)
		asB := r.b.NewUserSpace("sink")
		vb, _ := asB.Mmap(mem.PageSize, "dst")
		pb.RegisterMemory(p, asB, vb, mem.PageSize)
		for i := 0; i < n; i++ {
			pb.PostRecv(p, 0, asB, vb, mem.PageSize)
			waitRecv(p, pb)
		}
	})
	maxInFlight := 0
	r.env.Spawn("a", func(p *sim.Proc) {
		pa, _ := r.ga.OpenPort(1, false)
		pa.RegisterMemory(p, as, va, n*mem.PageSize)
		for i := 0; i < n; i++ {
			if err := pa.Send(p, r.b.ID, 1, 0, as, va+vm.VirtAddr(i*mem.PageSize), mem.PageSize); err != nil {
				t.Error(err)
			}
			if f := pa.tokens.InUse(); f > maxInFlight {
				maxInFlight = f
			}
		}
	})
	r.env.Run(0)
	if maxInFlight > r.p.GMSendTokens {
		t.Errorf("in-flight sends %d exceeded token limit %d", maxInFlight, r.p.GMSendTokens)
	}
	if maxInFlight < 2 {
		t.Errorf("pipelining never exceeded 1 in-flight send (max %d)", maxInFlight)
	}
}

func TestPhysicalPrimitivesKernelOnly(t *testing.T) {
	r := newRig()
	r.env.Spawn("a", func(p *sim.Proc) {
		user, _ := r.ga.OpenPort(1, false)
		if err := user.SendPhysical(p, r.b.ID, 1, 0, nil); err == nil {
			t.Error("SendPhysical allowed from user port")
		}
		if err := user.PostRecvPhysical(p, 0, nil); err == nil {
			t.Error("PostRecvPhysical allowed from user port")
		}
	})
	r.env.Run(0)
}

func TestPhysicalVsVirtualLatency(t *testing.T) {
	// Fig 4(a): physical-address primitives beat registered-virtual by
	// ~0.5 µs per side (≈1 µs total one-way).
	oneWay := func(physical bool) sim.Time {
		r := newRig()
		kA, kB := r.a.Kernel, r.b.Kernel
		const size = 1024
		vaA, _ := kA.MmapContig(size, "src")
		vaB, _ := kB.MmapContig(size, "dst")
		xsA, _ := kA.Resolve(vaA, size)
		xsB, _ := kB.Resolve(vaB, size)
		const iters = 50
		var elapsed sim.Time
		r.env.Spawn("b", func(p *sim.Proc) {
			pb, _ := r.gb.OpenPort(1, true)
			if !physical {
				pb.RegisterMemory(p, kB, vaB, size)
			}
			for i := 0; i < iters; i++ {
				if physical {
					pb.PostRecvPhysical(p, 1, xsB)
					waitRecv(p, pb)
					pb.SendPhysical(p, r.a.ID, 1, 2, xsB)
				} else {
					pb.PostRecv(p, 1, kB, vaB, size)
					waitRecv(p, pb)
					pb.Send(p, r.a.ID, 1, 2, kB, vaB, size)
				}
			}
		})
		r.env.Spawn("a", func(p *sim.Proc) {
			pa, _ := r.ga.OpenPort(1, true)
			if !physical {
				pa.RegisterMemory(p, kA, vaA, size)
			}
			p.Sleep(10 * us)
			t0 := p.Now()
			for i := 0; i < iters; i++ {
				if physical {
					pa.PostRecvPhysical(p, 2, xsA)
					pa.SendPhysical(p, r.b.ID, 1, 1, xsA)
				} else {
					pa.PostRecv(p, 2, kA, vaA, size)
					pa.Send(p, r.b.ID, 1, 1, kA, vaA, size)
				}
				waitRecv(p, pa)
			}
			elapsed = p.Now() - t0
		})
		r.env.Run(0)
		return elapsed / (2 * iters)
	}
	virt := oneWay(false)
	phys := oneWay(true)
	gain := virt - phys
	if gain < 800*time.Nanosecond || gain > 1200*time.Nanosecond {
		t.Errorf("physical primitive gain = %v (virt %v, phys %v), want ≈1µs", gain, virt, phys)
	}
}

func TestASIDSeparation(t *testing.T) {
	// Two processes with identical virtual addresses registered on the
	// same node: the NIC table must keep them apart (the GMKRC 64-bit
	// pointer trick's purpose).
	r := newRig()
	p1 := r.a.NewUserSpace("p1")
	p2 := r.a.NewUserSpace("p2")
	va1, _ := p1.Mmap(mem.PageSize, "b")
	va2, _ := p2.Mmap(mem.PageSize, "b")
	if va1 != va2 {
		t.Fatalf("expected colliding virtual addresses, got %#x / %#x", va1, va2)
	}
	p1.WriteBytes(va1, []byte("from p1"))
	p2.WriteBytes(va2, []byte("from p2"))
	var got1, got2 []byte
	r.env.Spawn("recv", func(p *sim.Proc) {
		pb, _ := r.gb.OpenPort(1, false)
		asB := r.b.NewUserSpace("sink")
		vb, _ := asB.Mmap(mem.PageSize, "dst")
		pb.RegisterMemory(p, asB, vb, mem.PageSize)
		pb.PostRecv(p, 0, asB, vb, mem.PageSize)
		waitRecv(p, pb)
		got1, _ = asB.ReadBytes(vb, 7)
		pb.PostRecv(p, 0, asB, vb, mem.PageSize)
		waitRecv(p, pb)
		got2, _ = asB.ReadBytes(vb, 7)
	})
	r.env.Spawn("send", func(p *sim.Proc) {
		pa, _ := r.ga.OpenPort(1, true) // shared kernel port
		pa.RegisterMemory(p, p1, va1, mem.PageSize)
		pa.RegisterMemory(p, p2, va2, mem.PageSize)
		p.Sleep(5 * us)
		pa.Send(p, r.b.ID, 1, 0, p1, va1, 7)
		p.Sleep(50 * us)
		pa.Send(p, r.b.ID, 1, 0, p2, va2, 7)
	})
	r.env.Run(0)
	if string(got1) != "from p1" || string(got2) != "from p2" {
		t.Fatalf("ASID collision: got %q / %q", got1, got2)
	}
}

func TestTruncationReported(t *testing.T) {
	r := newRig()
	asA := r.a.NewUserSpace("a")
	asB := r.b.NewUserSpace("b")
	vaA, _ := asA.Mmap(2*mem.PageSize, "src")
	vaB, _ := asB.Mmap(mem.PageSize, "dst")
	r.env.Spawn("b", func(p *sim.Proc) {
		pb, _ := r.gb.OpenPort(1, false)
		pb.RegisterMemory(p, asB, vaB, 100)
		pb.PostRecv(p, 0, asB, vaB, 100)
		ev := waitRecv(p, pb)
		if ev.Err == nil || ev.Len != 100 {
			t.Errorf("expected truncation, got %+v", ev)
		}
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		p.Sleep(1 * us)
		pa, _ := r.ga.OpenPort(1, false)
		pa.RegisterMemory(p, asA, vaA, 2*mem.PageSize)
		pa.Send(p, r.b.ID, 1, 0, asA, vaA, 2*mem.PageSize)
	})
	r.env.Run(0)
}

// An unexpected message waits in the port's queue while later messages
// of the same size class arrive, match and are delivered — through the
// very pool buffer the first one arrived in (hw.Message: a payload is
// the NIC's once the handler returns). The queue must hold its own
// copy.
func TestUnexpectedMessageMatchedLater(t *testing.T) {
	r := newRig()
	asA := r.a.NewUserSpace("a")
	asB := r.b.NewUserSpace("b")
	vaA, _ := asA.Mmap(mem.PageSize, "src")
	vaB, _ := asB.Mmap(2*mem.PageSize, "dst")
	const later = 4
	var got []byte
	r.env.Spawn("a", func(p *sim.Proc) {
		pa, _ := r.ga.OpenPort(1, false)
		pa.RegisterMemory(p, asA, vaA, mem.PageSize)
		asA.WriteBytes(vaA, []byte("early bird"))
		pa.Send(p, r.b.ID, 1, 5, asA, vaA, 10)
		for i := 0; i < later; i++ {
			waitSend(p, pa) // the source buffer is free again
			asA.WriteBytes(vaA, []byte(fmt.Sprintf("late no. %d", i)))
			pa.Send(p, r.b.ID, 1, 6, asA, vaA, 10)
		}
	})
	r.env.Spawn("b", func(p *sim.Proc) {
		pb, _ := r.gb.OpenPort(1, false)
		pb.RegisterMemory(p, asB, vaB, 2*mem.PageSize)
		for i := 0; i < later; i++ {
			pb.PostRecv(p, 6, asB, vaB+mem.PageSize, 10)
		}
		for i := 0; i < later; i++ {
			if ev := waitRecv(p, pb); ev.Tag != 6 || ev.Len != 10 {
				t.Errorf("pre-posted receive %d: event %+v", i, ev)
			}
			if b, _ := asB.ReadBytes(vaB+mem.PageSize, 10); string(b) != fmt.Sprintf("late no. %d", i) {
				t.Errorf("pre-posted receive %d delivered %q", i, b)
			}
		}
		p.Sleep(100 * us) // tag 5 arrived long before its post
		pb.PostRecv(p, 5, asB, vaB, mem.PageSize)
		ev := waitRecv(p, pb)
		if ev.Len != 10 {
			t.Errorf("late-matched event %+v", ev)
		}
		got, _ = asB.ReadBytes(vaB, 10)
	})
	r.env.Run(0)
	if string(got) != "early bird" {
		t.Fatalf("late match corrupted data: %q", got)
	}
}

func TestDirectedSendWritesRemoteMemory(t *testing.T) {
	r := newRig()
	asA := r.a.NewUserSpace("a")
	asB := r.b.NewUserSpace("b")
	vaA, _ := asA.Mmap(mem.PageSize, "src")
	vaB, _ := asB.Mmap(2*mem.PageSize, "window")
	asA.WriteBytes(vaA, []byte("rdma payload"))
	done := sim.NewSignal(r.env)
	r.env.Spawn("b", func(p *sim.Proc) {
		pb, _ := r.gb.OpenPort(1, false)
		if _, err := pb.RegisterMemory(p, asB, vaB, 2*mem.PageSize); err != nil {
			t.Error(err)
			return
		}
		done.Fire()
		// No receive posted: the data must appear anyway.
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		done.Wait(p)
		pa, _ := r.ga.OpenPort(1, false)
		if _, err := pa.RegisterMemory(p, asA, vaA, mem.PageSize); err != nil {
			t.Error(err)
			return
		}
		// Write into the middle of B's registered window.
		if err := pa.DirectedSend(p, r.b.ID, 1, 0, asA, vaA, 12, vaB+100); err != nil {
			t.Error(err)
			return
		}
		// Wait for our send completion (ACK) so the write has landed.
		for {
			ev := pa.PollEvent(p)
			if ev.Type == SendComplete {
				break
			}
		}
		got, _ := asB.ReadBytes(vaB+100, 12)
		if string(got) != "rdma payload" {
			t.Errorf("remote memory = %q", got)
		}
	})
	r.env.Run(0)
}

func TestDirectedSendToUnregisteredDrops(t *testing.T) {
	r := newRig()
	asA := r.a.NewUserSpace("a")
	asB := r.b.NewUserSpace("b")
	vaA, _ := asA.Mmap(mem.PageSize, "src")
	vaB, _ := asB.Mmap(mem.PageSize, "window") // never registered
	var pb *Port
	r.env.Spawn("b", func(p *sim.Proc) {
		pb, _ = r.gb.OpenPort(1, false)
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		p.Sleep(1 * us)
		pa, _ := r.ga.OpenPort(1, false)
		pa.RegisterMemory(p, asA, vaA, mem.PageSize)
		if err := pa.DirectedSend(p, r.b.ID, 1, 0, asA, vaA, 100, vaB); err != nil {
			t.Error(err)
		}
		p.Sleep(100 * us)
	})
	r.env.Run(0)
	if pb.DirectedDrops.N != 1 {
		t.Fatalf("drops = %d, want 1 (unregistered target)", pb.DirectedDrops.N)
	}
	if pb.PendingEvents() != 0 {
		t.Fatal("directed send generated a receive event")
	}
}

func TestDirectedSendRequiresLocalRegistration(t *testing.T) {
	r := newRig()
	as := r.a.NewUserSpace("a")
	va, _ := as.Mmap(mem.PageSize, "src")
	r.env.Spawn("a", func(p *sim.Proc) {
		pa, _ := r.ga.OpenPort(1, false)
		if err := pa.DirectedSend(p, r.b.ID, 1, 0, as, va, 10, 0x1234); err == nil {
			t.Error("directed send of unregistered local memory succeeded")
		}
	})
	r.env.Run(0)
}

// TestPostedQueueDrainsItsKeys pins the posted-receive table's size:
// reply tags carry a sequence number, so a port sees one distinct tag
// per request, and a matched receive must take its map entry with it.
func TestPostedQueueDrainsItsKeys(t *testing.T) {
	r := newRig()
	asA := r.a.NewUserSpace("appA")
	asB := r.b.NewUserSpace("appB")
	vaA, _ := asA.Mmap(mem.PageSize, "src")
	vaB, _ := asB.Mmap(mem.PageSize, "dst")
	const tags = 10000
	var pb *Port
	posted := sim.NewChan[uint64](r.env)
	r.env.Spawn("b", func(p *sim.Proc) {
		pb, _ = r.gb.OpenPort(1, false)
		if _, err := pb.RegisterMemory(p, asB, vaB, mem.PageSize); err != nil {
			t.Error(err)
			return
		}
		for tag := uint64(1); tag <= tags; tag++ {
			if err := pb.PostRecv(p, tag, asB, vaB, 8); err != nil {
				t.Error(err)
				return
			}
			posted.Send(tag)
			if ev := waitRecv(p, pb); ev.Err != nil || ev.Tag != tag {
				t.Errorf("recv event %+v, want tag %d", ev, tag)
				return
			}
		}
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		pa, _ := r.ga.OpenPort(1, false)
		if _, err := pa.RegisterMemory(p, asA, vaA, mem.PageSize); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < tags; i++ {
			if err := pa.Send(p, r.b.ID, 1, posted.Recv(p), asA, vaA, 8); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.env.Run(0)
	if n := len(pb.posted); n != 0 {
		t.Fatalf("%d posted-receive keys left after %d matched tags, want 0", n, tags)
	}
}
