package fabric_test

// The fabric conformance suite: every transport adapter — raw GM, raw
// MX, SOCKETS-GM, SOCKETS-MX and the TCP baseline — is run through the
// same battery of register/send/recv/ordering/error-path checks, so a
// future adapter (a sharded multi-NIC backend, say) gets its
// correctness tests for free by being added to builders().

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/sockets"
	"repro/internal/vm"
)

// pair is a connected transport pair: a on node A addressing B, and
// vice versa.
type pair struct {
	a, b     fabric.Transport
	aEP, bEP uint8 // remote endpoint numbers: a sends to (nodeB, bEP)
}

type builder struct {
	name  string
	model hw.LinkModel
	make  func(p *sim.Proc, na, nb *hw.Node) (pair, error)
}

func builders() []builder {
	msg := func(open func(n *hw.Node, id uint8) (fabric.Transport, error)) func(p *sim.Proc, na, nb *hw.Node) (pair, error) {
		return func(p *sim.Proc, na, nb *hw.Node) (pair, error) {
			ta, err := open(na, 1)
			if err != nil {
				return pair{}, err
			}
			tb, err := open(nb, 1)
			if err != nil {
				return pair{}, err
			}
			return pair{a: ta, b: tb, aEP: 1, bEP: 1}, nil
		}
	}
	stream := func(family string) func(p *sim.Proc, na, nb *hw.Node) (pair, error) {
		return func(p *sim.Proc, na, nb *hw.Node) (pair, error) {
			var sa, sb sockets.Stack
			var err error
			switch family {
			case "gm":
				if sa, err = sockets.NewGMStack(gm.Attach(na), 7); err != nil {
					return pair{}, err
				}
				if sb, err = sockets.NewGMStack(gm.Attach(nb), 7); err != nil {
					return pair{}, err
				}
			case "mx":
				if sa, err = sockets.NewMXStack(mx.Attach(na), 7); err != nil {
					return pair{}, err
				}
				if sb, err = sockets.NewMXStack(mx.Attach(nb), 7); err != nil {
					return pair{}, err
				}
			case "tcp":
				sa, sb = sockets.NewTCPStack(na), sockets.NewTCPStack(nb)
			}
			l, err := sb.Listen(5)
			if err != nil {
				return pair{}, err
			}
			var server sockets.Conn
			accepted := sim.NewSignal(p.Engine())
			p.Engine().Spawn("accept", func(ap *sim.Proc) {
				server, _ = l.Accept(ap)
				accepted.Fire()
			})
			client, err := sa.Dial(p, int(nb.ID), 5)
			if err != nil {
				return pair{}, err
			}
			accepted.Wait(p)
			return pair{a: fabric.NewStream(na, nb.ID, client), b: fabric.NewStream(nb, na.ID, server)}, nil
		}
	}
	return []builder{
		{"gm", hw.PCIXD, msg(func(n *hw.Node, id uint8) (fabric.Transport, error) {
			return fabric.NewGM(gm.Attach(n), id, true)
		})},
		{"mx", hw.PCIXD, msg(func(n *hw.Node, id uint8) (fabric.Transport, error) {
			return fabric.NewMX(mx.Attach(n), id, true)
		})},
		{"sockets-gm", hw.PCIXE, stream("gm")},
		{"sockets-mx", hw.PCIXE, stream("mx")},
		{"tcp", hw.PCIXE, stream("tcp")},
	}
}

// run executes body inside a simulation with a connected pair and
// fails the test on deadlock or setup error.
func run(t *testing.T, b builder, body func(p *sim.Proc, na, nb *hw.Node, pr pair)) {
	t.Helper()
	env := sim.NewEngine()
	cl := hw.NewCluster(env, hw.DefaultParams(), b.model)
	na, nb := cl.AddNode("a"), cl.AddNode("b")
	done := false
	env.Spawn("conformance", func(p *sim.Proc) {
		pr, err := b.make(p, na, nb)
		if err != nil {
			t.Error(err)
			return
		}
		body(p, na, nb, pr)
		done = true
	})
	env.Run(0)
	if !done && !t.Failed() {
		t.Fatal("conformance body deadlocked")
	}
}

// buf allocates a registered user buffer on the transport's node.
func buf(t *testing.T, p *sim.Proc, tr fabric.Transport, n int) (*vm.AddressSpace, vm.VirtAddr) {
	t.Helper()
	as := tr.Node().NewUserSpace("conf")
	va, err := as.Mmap(n, "buf")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Caps().NeedsReg {
		if err := tr.Register(p, as, va, n); err != nil {
			t.Fatal(err)
		}
	}
	return as, va
}

func pattern(n, seed int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*31 + seed)
	}
	return out
}

// TestConformanceRoundTrip: one registered user buffer each side, one
// message across, data intact, length and source reported.
func TestConformanceRoundTrip(t *testing.T) {
	const n = 20000
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			run(t, b, func(p *sim.Proc, na, nb *hw.Node, pr pair) {
				asA, vaA := buf(t, p, pr.a, n)
				asB, vaB := buf(t, p, pr.b, n)
				want := pattern(n, 5)
				asA.WriteBytes(vaA, want)

				recvd := sim.NewSignal(p.Engine())
				p.Engine().Spawn("receiver", func(rp *sim.Proc) {
					op, err := pr.b.PostRecv(rp, core.Exact(7), core.Of(core.UserSeg(asB, vaB, n)))
					if err != nil {
						t.Error(err)
						return
					}
					st := op.Wait(rp)
					if st.Err != nil || st.Len != n {
						t.Errorf("recv: len=%d err=%v", st.Len, st.Err)
						return
					}
					if st.Src != na.ID {
						t.Errorf("recv src = %d, want %d", st.Src, na.ID)
					}
					got, _ := asB.ReadBytes(vaB, n)
					if !bytes.Equal(got, want) {
						t.Error("payload corrupted in transit")
					}
					recvd.Fire()
				})
				p.Yield() // let the receiver post first
				op, err := pr.a.Send(p, nb.ID, pr.bEP, 7, core.Of(core.UserSeg(asA, vaA, n)))
				if err != nil {
					t.Fatal(err)
				}
				if !pr.a.Caps().EagerSend {
					if st := op.Wait(p); st.Err != nil {
						t.Fatal(st.Err)
					}
				}
				recvd.Wait(p)
			})
		})
	}
}

// TestConformanceOrdering: messages with the same match information
// arrive in send order.
func TestConformanceOrdering(t *testing.T) {
	const n, count = 4096, 4
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			run(t, b, func(p *sim.Proc, na, nb *hw.Node, pr pair) {
				// One distinct buffer per in-flight message: no
				// transport guarantees a buffer is reusable before its
				// completion, and this test deliberately does not wait.
				asA, vaA := buf(t, p, pr.a, count*n)
				asB, vaB := buf(t, p, pr.b, n)
				okRecv := false
				recvd := sim.NewSignal(p.Engine())
				p.Engine().Spawn("receiver", func(rp *sim.Proc) {
					for i := 0; i < count; i++ {
						op, err := pr.b.PostRecv(rp, core.Exact(9), core.Of(core.UserSeg(asB, vaB, n)))
						if err != nil {
							t.Error(err)
							return
						}
						st := op.Wait(rp)
						if st.Err != nil || st.Len != n {
							t.Errorf("msg %d: len=%d err=%v", i, st.Len, st.Err)
							return
						}
						got, _ := asB.ReadBytes(vaB, n)
						if !bytes.Equal(got, pattern(n, i)) {
							t.Errorf("message %d out of order or corrupted", i)
							return
						}
					}
					okRecv = true
					recvd.Fire()
				})
				p.Yield()
				for i := 0; i < count; i++ {
					slot := vaA + vm.VirtAddr(i*n)
					asA.WriteBytes(slot, pattern(n, i))
					if _, err := pr.a.Send(p, nb.ID, pr.bEP, 9, core.Of(core.UserSeg(asA, slot, n))); err != nil {
						t.Fatal(err)
					}
				}
				recvd.Wait(p)
				if !okRecv {
					t.Fatal("receiver did not finish")
				}
			})
		})
	}
}

// TestConformanceTruncation: message transports report truncation when
// the posted buffer is smaller than the message; streams buffer the
// excess for the next receive instead.
func TestConformanceTruncation(t *testing.T) {
	const n = 8192
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			run(t, b, func(p *sim.Proc, na, nb *hw.Node, pr pair) {
				asA, vaA := buf(t, p, pr.a, n)
				asB, vaB := buf(t, p, pr.b, n)
				asA.WriteBytes(vaA, pattern(n, 3))
				stream := pr.b.Caps().Stream
				recvd := sim.NewSignal(p.Engine())
				p.Engine().Spawn("receiver", func(rp *sim.Proc) {
					defer recvd.Fire()
					op, err := pr.b.PostRecv(rp, core.Exact(7), core.Of(core.UserSeg(asB, vaB, n/2)))
					if err != nil {
						t.Error(err)
						return
					}
					st := op.Wait(rp)
					if stream {
						// Stream: first read fills the buffer, second
						// drains the rest; no error either way.
						if st.Err != nil || st.Len != n/2 {
							t.Errorf("stream recv 1: len=%d err=%v", st.Len, st.Err)
							return
						}
						op2, err := pr.b.PostRecv(rp, core.Exact(7), core.Of(core.UserSeg(asB, vaB, n/2)))
						if err != nil {
							t.Error(err)
							return
						}
						if st2 := op2.Wait(rp); st2.Err != nil || st2.Len != n/2 {
							t.Errorf("stream recv 2: len=%d err=%v", st2.Len, st2.Err)
						}
						return
					}
					if st.Err == nil {
						t.Error("truncated delivery reported no error")
					}
					if st.Len != n/2 {
						t.Errorf("truncated delivery len=%d, want %d", st.Len, n/2)
					}
				})
				p.Yield()
				if _, err := pr.a.Send(p, nb.ID, pr.bEP, 7, core.Of(core.UserSeg(asA, vaA, n))); err != nil {
					t.Fatal(err)
				}
				recvd.Wait(p)
			})
		})
	}
}

// TestConformanceCapErrors: capability violations fail loudly instead
// of corrupting data — vectors on non-vectorial transports, wildcard
// matches where only exact tags exist, physical segments on streams,
// unregistered buffers on registering transports.
func TestConformanceCapErrors(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			run(t, b, func(p *sim.Proc, na, nb *hw.Node, pr pair) {
				caps := pr.a.Caps()
				as, va := buf(t, p, pr.a, 2*vm.PageSize)
				two := core.Vector{
					core.UserSeg(as, va, vm.PageSize),
					core.UserSeg(as, va+vm.VirtAddr(vm.PageSize), vm.PageSize),
				}
				if !caps.Vectors {
					if _, err := pr.a.Send(p, nb.ID, pr.bEP, 1, two); err == nil {
						t.Error("multi-segment send accepted without vector support")
					}
				}
				if !caps.Vectors && !caps.Stream {
					wild := core.Match{Bits: 1, Mask: 1}
					if _, err := pr.a.PostRecv(p, wild, core.Of(core.UserSeg(as, va, 64))); err == nil {
						t.Error("wildcard match accepted by exact-tag transport")
					}
				}
				if caps.Stream {
					phys := core.Of(core.PhysSeg(0x1000, 64))
					if _, err := pr.a.Send(p, nb.ID, pr.bEP, 1, phys); err == nil {
						t.Error("physical segment accepted by stream transport")
					}
				}
				if caps.NeedsReg {
					raw := pr.a.Node().NewUserSpace("unreg")
					uva, _ := raw.Mmap(vm.PageSize, "u")
					if _, err := pr.a.Send(p, nb.ID, pr.bEP, 1, core.Of(core.UserSeg(raw, uva, 64))); err == nil {
						t.Error("unregistered buffer accepted by registering transport")
					}
				}
			})
		})
	}
}

// TestConformanceAcquireRelease: the per-transfer registration path.
// On registering transports Acquire runs the buffer through the
// registration cache (and the release closure of a cache-disabled
// transport deregisters immediately); elsewhere both are free no-ops.
func TestConformanceAcquireRelease(t *testing.T) {
	const n = 16384
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			run(t, b, func(p *sim.Proc, na, nb *hw.Node, pr pair) {
				asA := pr.a.Node().NewUserSpace("conf")
				vaA, _ := asA.Mmap(n, "buf")
				asB, vaB := buf(t, p, pr.b, n)
				want := pattern(n, 11)
				asA.WriteBytes(vaA, want)
				v := core.Of(core.UserSeg(asA, vaA, n))
				release, err := pr.a.Acquire(p, v)
				if err != nil {
					t.Fatal(err)
				}
				recvd := sim.NewSignal(p.Engine())
				p.Engine().Spawn("receiver", func(rp *sim.Proc) {
					op, err := pr.b.PostRecv(rp, core.Exact(3), core.Of(core.UserSeg(asB, vaB, n)))
					if err != nil {
						t.Error(err)
						return
					}
					st := op.Wait(rp)
					if st.Err != nil || st.Len != n {
						t.Errorf("recv: len=%d err=%v", st.Len, st.Err)
						return
					}
					got, _ := asB.ReadBytes(vaB, n)
					if !bytes.Equal(got, want) {
						t.Error("acquired-buffer payload corrupted")
					}
					recvd.Fire()
				})
				p.Yield()
				op, err := pr.a.Send(p, nb.ID, pr.bEP, 3, v)
				if err != nil {
					t.Fatal(err)
				}
				if !pr.a.Caps().EagerSend {
					if st := op.Wait(p); st.Err != nil {
						t.Fatal(st.Err)
					}
				}
				recvd.Wait(p)
				release()
			})
		})
	}
}

// TestConformanceRegisterDeregister: long-lived registration is
// idempotent across the fabric: register, use, deregister; transports
// without registration accept the calls as no-ops.
func TestConformanceRegisterDeregister(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			run(t, b, func(p *sim.Proc, na, nb *hw.Node, pr pair) {
				as := pr.a.Node().NewUserSpace("conf")
				va, _ := as.Mmap(4*vm.PageSize, "buf")
				if err := pr.a.Register(p, as, va, 4*vm.PageSize); err != nil {
					t.Fatal(err)
				}
				if err := pr.a.Deregister(p, as, va); err != nil && pr.a.Caps().NeedsReg {
					t.Fatal(err)
				}
				if pr.a.Caps().NeedsReg {
					// Double deregistration must fail loudly.
					if err := pr.a.Deregister(p, as, va); err == nil {
						t.Error("double deregistration accepted")
					}
				}
			})
		})
	}
}

// TestConformanceZeroLength: message transports complete a zero-byte
// transfer (empty vector) — the shape zero-length file reads/writes
// produce. Streams are excluded: a zero-byte stream write carries no
// signal by definition.
func TestConformanceZeroLength(t *testing.T) {
	for _, b := range builders()[:2] { // gm, mx
		t.Run(b.name, func(t *testing.T) {
			run(t, b, func(p *sim.Proc, na, nb *hw.Node, pr pair) {
				recvd := sim.NewSignal(p.Engine())
				p.Engine().Spawn("receiver", func(rp *sim.Proc) {
					op, err := pr.b.PostRecv(rp, core.Exact(4), core.Vector{})
					if err != nil {
						t.Error(err)
						return
					}
					st := op.Wait(rp)
					if st.Err != nil || st.Len != 0 {
						t.Errorf("zero-length recv: len=%d err=%v", st.Len, st.Err)
					}
					recvd.Fire()
				})
				p.Yield()
				if _, err := pr.a.Send(p, nb.ID, pr.bEP, 4, core.Vector{}); err != nil {
					t.Fatal(err)
				}
				recvd.Wait(p)
			})
		})
	}
}

// TestConformanceNotifyOp: a receive Op that implements
// fabric.NotifyOp — MX's, and a stream's, which is complete when
// PostRecv returns — runs its OnDone function exactly once, at the
// instant the receive completes and inline when it already has, charges
// nothing for it, and leaves the completion's charge to the Wait that
// consumes it, once. GM's Ops complete only inside a Wait and do not
// implement it.
func TestConformanceNotifyOp(t *testing.T) {
	const n, poll = 4096, 10 * time.Nanosecond
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			run(t, b, func(p *sim.Proc, na, nb *hw.Node, pr pair) {
				asA, vaA := buf(t, p, pr.a, n)
				asB, vaB := buf(t, p, pr.b, n)
				asA.WriteBytes(vaA, pattern(n, 3))
				env := p.Engine()
				recvd := sim.NewSignal(env)
				env.Spawn("receiver", func(rp *sim.Proc) {
					defer recvd.Fire()
					op, err := pr.b.PostRecv(rp, core.Exact(5), core.Of(core.UserSeg(asB, vaB, n)))
					if err != nil {
						t.Error(err)
						return
					}
					nop, ok := op.(fabric.NotifyOp)
					if want := b.name != "gm"; ok != want {
						t.Errorf("receive Op implements NotifyOp: %v, want %v", ok, want)
					}
					if !ok {
						op.Wait(rp)
						return
					}
					cpu := nb.CPU.Resource()
					calls, at := 0, sim.Time(-1)
					busy, posted := cpu.BusyTime(), rp.Now()
					nop.OnDone(func() { calls, at = calls+1, env.Now() })
					if cpu.BusyTime() != busy || rp.Now() != posted {
						t.Error("OnDone charged the host")
					}
					// Poll the completion in steps of poll: the function must
					// have run inside the step in which the Op became done.
					pending := sim.Time(-1)
					for !op.Done() {
						pending = rp.Now()
						rp.Sleep(poll)
					}
					if done := rp.Now(); calls != 1 || at <= pending || at > done {
						t.Errorf("OnDone ran %d times, at %v; the receive completed after %v, by %v", calls, at, pending, done)
					}
					inline := false
					nop.OnDone(func() { inline = true })
					if !inline {
						t.Error("OnDone on a completed Op did not run its function inline")
					}
					t0 := rp.Now()
					st := op.Wait(rp)
					t1 := rp.Now()
					op.Wait(rp)
					if t2 := rp.Now(); t2 != t1 || (t1 > t0) != !pr.b.Caps().Stream {
						t.Errorf("Waits after the completion took %v, then %v: want the completion charged once (nothing on a stream)", t1-t0, t2-t1)
					}
					if st.Err != nil || st.Len != n {
						t.Errorf("recv: len=%d err=%v", st.Len, st.Err)
					}
					if got, _ := asB.ReadBytes(vaB, n); !bytes.Equal(got, pattern(n, 3)) {
						t.Error("payload corrupted in transit")
					}
					if calls != 1 {
						t.Errorf("OnDone's function ran %d times", calls)
					}
				})
				p.Yield() // let the receiver post first
				if _, err := pr.a.Send(p, nb.ID, pr.bEP, 5, core.Of(core.UserSeg(asA, vaA, n))); err != nil {
					t.Fatal(err)
				}
				recvd.Wait(p)
			})
		})
	}
}

// TestConformanceGMUncachedRelease: with the registration cache
// disabled, Acquire's release pays the immediate deregistration — the
// Fig 3(b) "without Reg. Cache" discipline.
func TestConformanceGMUncachedRelease(t *testing.T) {
	env := sim.NewEngine()
	cl := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	na, _ := cl.AddNode("a"), cl.AddNode("b")
	done := false
	env.Spawn("t", func(p *sim.Proc) {
		tr, err := fabric.NewGM(gm.Attach(na), 1, true, fabric.WithCachePages(0))
		if err != nil {
			t.Error(err)
			return
		}
		as := na.NewUserSpace("u")
		va, _ := as.Mmap(4*vm.PageSize, "b")
		v := core.Of(core.UserSeg(as, va, 4*vm.PageSize))
		release, err := tr.Acquire(p, v)
		if err != nil {
			t.Error(err)
			return
		}
		if tr.Cache().Pages() == 0 {
			t.Error("acquire registered nothing")
		}
		t0 := p.Now()
		release()
		if tr.Cache().Pages() != 0 {
			t.Error("uncached release left pages registered")
		}
		if p.Now()-t0 < 200000 { // DeregBase is 200µs
			t.Errorf("uncached release paid only %v, want ≥200µs", p.Now()-t0)
		}
		done = true
	})
	env.Run(0)
	if !done {
		t.Fatal(fmt.Errorf("body did not run"))
	}
}

// TestGMSameTagFIFO: several receives enrolled under one tag complete
// in post order (the per-key FIFO threaded through the Ops), a
// cancelled one leaves the queue without disturbing its neighbours, and
// an Op whose primitive failed after enrolment does not linger to
// swallow a later completion.
func TestGMSameTagFIFO(t *testing.T) {
	run(t, builders()[0], func(p *sim.Proc, na, nb *hw.Node, pr pair) {
		const tag, n = 9, 64
		asB, vaB := buf(t, p, pr.b, 4*vm.PageSize)
		slot := func(i int) core.Vector { return core.Of(core.UserSeg(asB, vaB+vm.VirtAddr(i*vm.PageSize), n)) }
		var ops [3]fabric.Op
		for i := range ops {
			var err error
			if ops[i], err = pr.b.PostRecv(p, core.Exact(tag), slot(i)); err != nil {
				t.Fatal(err)
			}
		}
		// An unregistered range fails inside the port, after enrolment.
		if _, err := pr.b.PostRecv(p, core.Exact(tag), core.Of(core.UserSeg(asB, vaB+vm.VirtAddr(64*vm.PageSize), n))); err == nil {
			t.Fatal("posting an unregistered range succeeded")
		}
		if !fabric.Cancel(p, ops[2]) {
			t.Fatal("cancel of the newest unmatched receive refused")
		}
		asA, vaA := buf(t, p, pr.a, 2*vm.PageSize)
		for i := 0; i < 2; i++ {
			asA.WriteBytes(vaA+vm.VirtAddr(i*vm.PageSize), pattern(n, i))
			if _, err := pr.a.Send(p, nb.ID, pr.bEP, tag, core.Of(core.UserSeg(asA, vaA+vm.VirtAddr(i*vm.PageSize), n))); err != nil {
				t.Fatal(err)
			}
		}
		// Waiting the LATER op first drains both completions; each must
		// have been routed to the Op posted in that position.
		for _, i := range []int{1, 0} {
			if st := ops[i].Wait(p); st.Err != nil || st.Len != n {
				t.Fatalf("receive %d: %+v", i, st)
			}
			if got, _ := asB.ReadBytes(vaB+vm.VirtAddr(i*vm.PageSize), n); !bytes.Equal(got, pattern(n, i)) {
				t.Errorf("receive %d holds the wrong message", i)
			}
		}
		if st := ops[2].Wait(p); st.Err == nil {
			t.Errorf("cancelled receive completed with %+v", st)
		}
	})
}
