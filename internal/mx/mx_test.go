package mx

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

const us = time.Microsecond

type rig struct {
	env    *sim.Engine
	p      *hw.Params
	a, b   *hw.Node
	ma, mb *MX
}

func newRig() *rig {
	env := sim.NewEngine()
	p := hw.DefaultParams()
	c := hw.NewCluster(env, p, hw.PCIXD)
	r := &rig{env: env, p: p}
	r.a, r.b = c.AddNode("a"), c.AddNode("b")
	r.ma, r.mb = Attach(r.a), Attach(r.b)
	return r
}

// sendRecvOnce moves a payload of n bytes A→B through fresh user
// endpoints and returns what B received.
func sendRecvOnce(t *testing.T, n int) []byte {
	t.Helper()
	r := newRig()
	asA := r.a.NewUserSpace("appA")
	asB := r.b.NewUserSpace("appB")
	vaA, _ := asA.Mmap(n+mem.PageSize, "src")
	vaB, _ := asB.Mmap(n+mem.PageSize, "dst")
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	asA.WriteBytes(vaA, data)
	var got []byte
	r.env.Spawn("b", func(p *sim.Proc) {
		eb, _ := r.mb.OpenEndpoint(1, false)
		req, err := eb.Recv(p, core.Exact(99), core.Of(core.UserSeg(asB, vaB, n)))
		if err != nil {
			t.Error(err)
			return
		}
		st := req.Wait(p)
		if st.Err != nil || st.Len != n || st.Info != 99 {
			t.Errorf("recv status %+v", st)
		}
		got, _ = asB.ReadBytes(vaB, n)
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		p.Sleep(1 * us)
		ea, _ := r.ma.OpenEndpoint(1, false)
		req, err := ea.Send(p, r.b.ID, 1, 99, core.Of(core.UserSeg(asA, vaA, n)))
		if err != nil {
			t.Error(err)
			return
		}
		if st := req.Wait(p); st.Err != nil {
			t.Errorf("send status %+v", st)
		}
	})
	r.env.Run(0)
	if !bytes.Equal(got, data) {
		t.Fatalf("payload of %d bytes corrupted", n)
	}
	return got
}

func TestAllRegimesDataIntegrity(t *testing.T) {
	// Small (PIO), medium (bounce copies), large (rendezvous) — and the
	// regime boundaries themselves.
	for _, n := range []int{1, 127, 128, 129, 4096, 32767, 32768, 32769, 100000, 1 << 20} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { sendRecvOnce(t, n) })
	}
}

func TestVectorialScatterGather(t *testing.T) {
	// Send a 3-segment vector (user + user), receive into a 2-segment
	// vector; bytes must concatenate in order (§4.1 vectorial support).
	r := newRig()
	asA := r.a.NewUserSpace("appA")
	asB := r.b.NewUserSpace("appB")
	s1, _ := asA.Mmap(mem.PageSize, "s1")
	s2, _ := asA.Mmap(mem.PageSize, "s2")
	d1, _ := asB.Mmap(mem.PageSize, "d1")
	d2, _ := asB.Mmap(mem.PageSize, "d2")
	asA.WriteBytes(s1, []byte("hello, "))
	asA.WriteBytes(s2, []byte("vectors!"))
	var got []byte
	r.env.Spawn("b", func(p *sim.Proc) {
		eb, _ := r.mb.OpenEndpoint(1, false)
		req, err := eb.Recv(p, core.MatchAll, core.Vector{
			core.UserSeg(asB, d1, 5),
			core.UserSeg(asB, d2, 10),
		})
		if err != nil {
			t.Error(err)
			return
		}
		st := req.Wait(p)
		if st.Len != 15 {
			t.Errorf("len = %d, want 15", st.Len)
		}
		g1, _ := asB.ReadBytes(d1, 5)
		g2, _ := asB.ReadBytes(d2, 10)
		got = append(g1, g2...)
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		p.Sleep(1 * us)
		ea, _ := r.ma.OpenEndpoint(1, false)
		ea.Send(p, r.b.ID, 1, 5, core.Vector{
			core.UserSeg(asA, s1, 7),
			core.UserSeg(asA, s2, 8),
		})
	})
	r.env.Run(0)
	if string(got) != "hello, vectors!" {
		t.Fatalf("got %q", got)
	}
}

func TestMatchingSelectsCorrectRecv(t *testing.T) {
	r := newRig()
	asB := r.b.NewUserSpace("appB")
	asA := r.a.NewUserSpace("appA")
	vaA, _ := asA.Mmap(mem.PageSize, "src")
	asA.WriteBytes(vaA, []byte("payload-x"))
	bufs := make([]vm.VirtAddr, 3)
	for i := range bufs {
		bufs[i], _ = asB.Mmap(mem.PageSize, "dst")
	}
	results := map[uint64]string{}
	r.env.Spawn("b", func(p *sim.Proc) {
		eb, _ := r.mb.OpenEndpoint(1, false)
		// Post three receives with distinct exact matches, out of order.
		var reqs []*Request
		for i, info := range []uint64{30, 10, 20} {
			req, _ := eb.Recv(p, core.Exact(info), core.Of(core.UserSeg(asB, bufs[i], 64)))
			reqs = append(reqs, req)
		}
		for _, req := range reqs {
			st := req.Wait(p)
			got, _ := asB.ReadBytes(bufs[indexOf(reqs, req)], st.Len)
			results[st.Info] = string(got)
		}
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		p.Sleep(1 * us)
		ea, _ := r.ma.OpenEndpoint(1, false)
		for _, info := range []uint64{10, 20, 30} {
			asA.WriteBytes(vaA, []byte(fmt.Sprintf("payload-%d", info)))
			req, _ := ea.Send(p, r.b.ID, 1, info, core.Of(core.UserSeg(asA, vaA, 10)))
			req.Wait(p) // serialize so the buffer can be reused
		}
	})
	r.env.Run(0)
	for _, info := range []uint64{10, 20, 30} {
		want := fmt.Sprintf("payload-%d", info)
		if results[info][:len(want)] != want {
			t.Errorf("match %d got %q", info, results[info])
		}
	}
}

func indexOf(rs []*Request, r *Request) int {
	for i, x := range rs {
		if x == r {
			return i
		}
	}
	return -1
}

func TestUnexpectedEagerAndRendezvous(t *testing.T) {
	for _, n := range []int{64, 8192, 100000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := newRig()
			asA := r.a.NewUserSpace("appA")
			asB := r.b.NewUserSpace("appB")
			vaA, _ := asA.Mmap(n+mem.PageSize, "src")
			vaB, _ := asB.Mmap(n+mem.PageSize, "dst")
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i ^ 0x5a)
			}
			asA.WriteBytes(vaA, data)
			var got []byte
			r.env.Spawn("a", func(p *sim.Proc) {
				ea, _ := r.ma.OpenEndpoint(1, false)
				ea.Send(p, r.b.ID, 1, 7, core.Of(core.UserSeg(asA, vaA, n)))
			})
			r.env.Spawn("b", func(p *sim.Proc) {
				eb, _ := r.mb.OpenEndpoint(1, false)
				p.Sleep(200 * us) // message (or RTS) arrives unexpected
				req, err := eb.Recv(p, core.Exact(7), core.Of(core.UserSeg(asB, vaB, n)))
				if err != nil {
					t.Error(err)
					return
				}
				st := req.Wait(p)
				if st.Len != n || st.Err != nil {
					t.Errorf("status %+v", st)
				}
				got, _ = asB.ReadBytes(vaB, n)
			})
			r.env.Run(0)
			if !bytes.Equal(got, data) {
				t.Fatal("late-posted receive corrupted data")
			}
		})
	}
}

// An unexpected eager message sits in the endpoint's queue while later
// messages of its size class arrive matched and are delivered through
// the pool buffer it came in (hw.Message: a payload is the NIC's once
// the handler returns); the queued copy must be the endpoint's own.
func TestUnexpectedEagerSurvivesBufferReuse(t *testing.T) {
	for _, n := range []int{64, 8192} { // PIO-sized and bounce-copied
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := newRig()
			asA := r.a.NewUserSpace("appA")
			asB := r.b.NewUserSpace("appB")
			vaA, _ := asA.Mmap(n, "src")
			vaB, _ := asB.Mmap(2*n+mem.PageSize, "dst")
			fill := func(seed int) []byte {
				b := make([]byte, n)
				for i := range b {
					b[i] = byte(i*3 + seed*41)
				}
				return b
			}
			const later = 4
			r.env.Spawn("a", func(p *sim.Proc) {
				ea, _ := r.ma.OpenEndpoint(1, false)
				for i := 0; i <= later; i++ {
					// Message 0 (info 7) finds no receive; 1..later (info 8) do.
					// An eager send completes once the bytes are staged, so
					// the source is free to refill.
					asA.WriteBytes(vaA, fill(i))
					req, err := ea.Send(p, r.b.ID, 1, uint64(7+min(i, 1)), core.Of(core.UserSeg(asA, vaA, n)))
					if err != nil {
						t.Error(err)
						return
					}
					req.Wait(p)
				}
			})
			r.env.Spawn("b", func(p *sim.Proc) {
				eb, _ := r.mb.OpenEndpoint(1, false)
				dst := vaB + vm.VirtAddr(n+mem.PageSize)
				for i := 1; i <= later; i++ {
					req, _ := eb.Recv(p, core.Exact(8), core.Of(core.UserSeg(asB, dst, n)))
					if st := req.Wait(p); st.Len != n || st.Err != nil {
						t.Errorf("matched receive %d: status %+v", i, st)
					}
					if got, _ := asB.ReadBytes(dst, n); !bytes.Equal(got, fill(i)) {
						t.Errorf("matched receive %d delivered the wrong bytes", i)
					}
				}
				p.Sleep(200 * us)
				req, _ := eb.Recv(p, core.Exact(7), core.Of(core.UserSeg(asB, vaB, n)))
				if st := req.Wait(p); st.Len != n || st.Err != nil {
					t.Errorf("late-posted receive: status %+v", st)
				}
				if got, _ := asB.ReadBytes(vaB, n); !bytes.Equal(got, fill(0)) {
					t.Error("the unexpected message's bytes did not survive the reuse of its buffer")
				}
			})
			r.env.Run(0)
		})
	}
}

func TestWaitAny(t *testing.T) {
	r := newRig()
	asA := r.a.NewUserSpace("appA")
	asB := r.b.NewUserSpace("appB")
	vaA, _ := asA.Mmap(mem.PageSize, "src")
	vaB, _ := asB.Mmap(4*mem.PageSize, "dst")
	var infos []uint64
	r.env.Spawn("b", func(p *sim.Proc) {
		eb, _ := r.mb.OpenEndpoint(1, false)
		for i := 0; i < 3; i++ {
			eb.Recv(p, core.MatchAll, core.Of(core.UserSeg(asB, vaB+vm.VirtAddr(i*mem.PageSize), 128)))
		}
		for i := 0; i < 3; i++ {
			req := eb.WaitAny(p)
			st, ok := req.Test()
			if !ok {
				t.Error("WaitAny returned incomplete request")
			}
			infos = append(infos, st.Info)
		}
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		p.Sleep(1 * us)
		ea, _ := r.ma.OpenEndpoint(1, false)
		for i := uint64(1); i <= 3; i++ {
			req, _ := ea.Send(p, r.b.ID, 1, i, core.Of(core.UserSeg(asA, vaA, 32)))
			req.Wait(p)
		}
	})
	r.env.Run(0)
	if len(infos) != 3 || infos[0] != 1 || infos[1] != 2 || infos[2] != 3 {
		t.Fatalf("WaitAny order %v", infos)
	}
}

// TestWaitedReceivesLeaveTheCompletionQueue pins the WaitAny queue's
// size: a receive retired through Request.Wait (every rfsrv, fabric
// and nbd receive is) must not stay queued for the endpoint's life.
// Receives waited out of completion order leave once the older ones
// ahead of them are consumed.
func TestWaitedReceivesLeaveTheCompletionQueue(t *testing.T) {
	r := newRig()
	asA := r.a.NewUserSpace("appA")
	asB := r.b.NewUserSpace("appB")
	vaA, _ := asA.Mmap(mem.PageSize, "src")
	vaB, _ := asB.Mmap(mem.PageSize, "dst")
	const rounds = 5000 // two receives each
	var eb *Endpoint
	ready := sim.NewChan[struct{}](r.env)
	r.env.Spawn("b", func(p *sim.Proc) {
		eb, _ = r.mb.OpenEndpoint(1, false)
		dst := core.Of(core.UserSeg(asB, vaB, 128))
		for i := 0; i < rounds; i++ {
			first, _ := eb.Recv(p, core.Exact(1), dst)
			second, _ := eb.Recv(p, core.Exact(2), dst)
			ready.Send(struct{}{})
			if st := second.Wait(p); st.Err != nil {
				t.Error(st.Err)
			}
			if n := eb.completions.Len(); n != 2 {
				t.Errorf("round %d: %d completions queued behind the unconsumed first receive, want 2", i, n)
				return
			}
			if st := first.Wait(p); st.Err != nil {
				t.Error(st.Err)
			}
		}
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		ea, _ := r.ma.OpenEndpoint(1, false)
		src := core.Of(core.UserSeg(asA, vaA, 32))
		for i := 0; i < rounds; i++ {
			ready.Recv(p)
			for info := uint64(1); info <= 2; info++ {
				req, _ := ea.Send(p, r.b.ID, 1, info, src)
				req.Wait(p)
			}
		}
	})
	r.env.Run(0)
	if n := eb.completions.Len(); n != 0 {
		t.Fatalf("%d completions still queued after %d waited receives, want 0", n, 2*rounds)
	}
}

func TestTruncation(t *testing.T) {
	for _, n := range []int{4096, 100000} { // medium and rendezvous
		r := newRig()
		asA := r.a.NewUserSpace("appA")
		asB := r.b.NewUserSpace("appB")
		vaA, _ := asA.Mmap(n, "src")
		vaB, _ := asB.Mmap(mem.PageSize, "dst")
		small := 512
		r.env.Spawn("b", func(p *sim.Proc) {
			eb, _ := r.mb.OpenEndpoint(1, false)
			req, _ := eb.Recv(p, core.MatchAll, core.Of(core.UserSeg(asB, vaB, small)))
			st := req.Wait(p)
			if st.Err == nil || st.Len != small {
				t.Errorf("n=%d: want truncation to %d, got %+v", n, small, st)
			}
		})
		r.env.Spawn("a", func(p *sim.Proc) {
			p.Sleep(1 * us)
			ea, _ := r.ma.OpenEndpoint(1, false)
			ea.Send(p, r.b.ID, 1, 0, core.Of(core.UserSeg(asA, vaA, n)))
		})
		r.env.Run(0)
	}
}

// mxPingPong measures one-way latency over user or kernel endpoints.
func mxPingPong(t *testing.T, kernel bool, size, iters int) sim.Time {
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
	seg := func(as *vm.AddressSpace, va vm.VirtAddr) core.Vector {
		if kernel {
			return core.Of(core.KernelSeg(as, va, size))
		}
		return core.Of(core.UserSeg(as, va, size))
	}
	var elapsed sim.Time
	r.env.Spawn("b", func(p *sim.Proc) {
		eb, _ := r.mb.OpenEndpoint(1, kernel)
		for i := 0; i < iters; i++ {
			req, err := eb.Recv(p, core.MatchAll, seg(asB, vaB))
			if err != nil {
				t.Error(err)
				return
			}
			req.Wait(p)
			sreq, _ := eb.Send(p, r.a.ID, 1, 2, seg(asB, vaB))
			_ = sreq
		}
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		ea, _ := r.ma.OpenEndpoint(1, kernel)
		p.Sleep(20 * us)
		t0 := p.Now()
		for i := 0; i < iters; i++ {
			rreq, _ := ea.Recv(p, core.MatchAll, seg(asA, vaA))
			ea.Send(p, r.b.ID, 1, 1, seg(asA, vaA))
			rreq.Wait(p)
		}
		elapsed = p.Now() - t0
	})
	r.env.Run(0)
	return elapsed / sim.Time(2*iters)
}

func TestUserLatencyCalibration(t *testing.T) {
	// §5.1: MX 1-byte one-way ≈ 4.2 µs.
	lat := mxPingPong(t, false, 1, 50)
	if lat < 3800*time.Nanosecond || lat > 4700*time.Nanosecond {
		t.Errorf("MX user 1B one-way = %v, want ≈4.2µs", lat)
	}
}

func TestKernelEqualsUserLatency(t *testing.T) {
	// §5.1: "latency ... [does] not differ between user and kernel".
	u := mxPingPong(t, false, 1, 50)
	k := mxPingPong(t, true, 1, 50)
	diff := k - u
	if diff < -300*time.Nanosecond || diff > 300*time.Nanosecond {
		t.Errorf("MX kernel-user gap = %v (user %v kernel %v), want ≈0", diff, u, k)
	}
}

func TestLargeBandwidthNearLink(t *testing.T) {
	const size = 1 << 20
	lat := mxPingPong(t, false, size, 4)
	bw := float64(size) / lat.Seconds() / 1e6
	if bw < 220 || bw > 250 {
		t.Errorf("MX 1MB bandwidth = %.1f MB/s, want ≈235", bw)
	}
}

func TestKernelLargeBandwidthHigher(t *testing.T) {
	// §5.1: "large message bandwidth is even higher with the kernel
	// interface since the page locking overhead is lower".
	const size = 1 << 20
	u := mxPingPong(t, false, size, 4)
	k := mxPingPong(t, true, size, 4)
	if k >= u {
		t.Errorf("kernel 1MB one-way %v not faster than user %v", k, u)
	}
}

// mediumBandwidth measures ping-pong bandwidth at 32KB over kernel
// endpoints with contiguous kernel buffers under the given options.
func mediumBandwidth(t *testing.T, size int, opts ...Option) float64 {
	t.Helper()
	r := newRig()
	kA, kB := r.a.Kernel, r.b.Kernel
	vaA, _ := kA.MmapContig(size, "buf")
	vaB, _ := kB.MmapContig(size, "buf")
	const iters = 8
	var elapsed sim.Time
	r.env.Spawn("b", func(p *sim.Proc) {
		eb, _ := r.mb.OpenEndpoint(1, true, opts...)
		for i := 0; i < iters; i++ {
			req, _ := eb.Recv(p, core.MatchAll, core.Of(core.KernelSeg(kB, vaB, size)))
			req.Wait(p)
			eb.Send(p, r.a.ID, 1, 2, core.Of(core.KernelSeg(kB, vaB, size)))
		}
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		ea, _ := r.ma.OpenEndpoint(1, true, opts...)
		p.Sleep(20 * us)
		t0 := p.Now()
		for i := 0; i < iters; i++ {
			rreq, _ := ea.Recv(p, core.MatchAll, core.Of(core.KernelSeg(kA, vaA, size)))
			ea.Send(p, r.b.ID, 1, 1, core.Of(core.KernelSeg(kA, vaA, size)))
			rreq.Wait(p)
		}
		elapsed = p.Now() - t0
	})
	r.env.Run(0)
	oneWay := elapsed / (2 * iters)
	return float64(size) / oneWay.Seconds() / 1e6
}

func TestFig6CopyRemovalShape(t *testing.T) {
	const size = 32 * 1024
	std := mediumBandwidth(t, size)
	noSend := mediumBandwidth(t, size, WithNoSendCopy())
	noCopy := mediumBandwidth(t, size, WithNoSendCopy(), WithNoRecvCopy())

	// §5.1: "17 % bandwidth improvement for 32 kbytes messages" from
	// removing the send copy, "another 15 %" from the receive side.
	sendGain := (noSend - std) / std
	if sendGain < 0.12 || sendGain > 0.25 {
		t.Errorf("no-send-copy gain = %.1f%% (std %.1f, noSend %.1f MB/s), want ≈17%%",
			sendGain*100, std, noSend)
	}
	recvGain := (noCopy - noSend) / noSend
	if recvGain < 0.10 || recvGain > 0.30 {
		t.Errorf("no-recv-copy extra gain = %.1f%% (noSend %.1f, noCopy %.1f MB/s), want ≈15%%",
			recvGain*100, noSend, noCopy)
	}
}

func TestCopyRemovalRequiresContiguity(t *testing.T) {
	// A physically scattered kernel buffer must not take the
	// no-send-copy path (the paper: works "when sending up to 8
	// physically contiguous pages").
	r := newRig()
	kA := r.a.Kernel
	// Fragment kernel memory so Mmap yields scattered frames.
	j1, _ := kA.Mmap(mem.PageSize, "j1")
	j2, _ := kA.Mmap(mem.PageSize, "j2")
	kA.Munmap(j1, mem.PageSize)
	kA.Munmap(j2, mem.PageSize)
	va, _ := kA.Mmap(8*mem.PageSize, "buf")
	v := core.Of(core.KernelSeg(kA, va, 8*mem.PageSize))
	if contig, _ := v.PhysicallyContiguous(); contig {
		t.Skip("allocator produced contiguous frames; cannot exercise")
	}
	r.env.Spawn("a", func(p *sim.Proc) {
		ea, _ := r.ma.OpenEndpoint(1, true, WithNoSendCopy())
		if ea.zeroCopySend(v) {
			t.Error("scattered kernel-virtual vector took the zero-copy path")
		}
	})
	r.env.Run(0)
}

func TestPhysicalVectorsZeroCopyOnKernel(t *testing.T) {
	// Physically addressed kernel transfers skip both copies without
	// any option flags (the page-cache path).
	r := newRig()
	framesA, _ := r.a.Mem.AllocContig(2)
	framesB, _ := r.b.Mem.AllocContig(2)
	want := []byte("page cache payload")
	copy(framesA[0].Data(), want)
	var copiesA, copiesB int64
	r.env.Spawn("b", func(p *sim.Proc) {
		eb, _ := r.mb.OpenEndpoint(1, true)
		req, _ := eb.Recv(p, core.MatchAll, core.Of(core.PhysSeg(framesB[0].Addr(), 4096)))
		copies0 := r.b.CPU.CopyStats.N
		req.Wait(p)
		copiesB = r.b.CPU.CopyStats.N - copies0
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		p.Sleep(1 * us)
		ea, _ := r.ma.OpenEndpoint(1, true)
		copies0 := r.a.CPU.CopyStats.N
		req, _ := ea.Send(p, r.b.ID, 1, 0, core.Of(core.PhysSeg(framesA[0].Addr(), 4096)))
		req.Wait(p)
		copiesA = r.a.CPU.CopyStats.N - copies0
	})
	r.env.Run(0)
	if copiesA != 0 || copiesB != 0 {
		t.Errorf("physical kernel transfer used host copies: send=%d recv=%d", copiesA, copiesB)
	}
	if !bytes.Equal(framesB[0].Data()[:len(want)], want) {
		t.Error("payload corrupted")
	}
}

func TestUserEndpointNeverZeroCopiesMedium(t *testing.T) {
	r := newRig()
	as := r.a.NewUserSpace("app")
	va, _ := as.Mmap(8*mem.PageSize, "buf")
	v := core.Of(core.UserSeg(as, va, 4096))
	r.env.Spawn("a", func(p *sim.Proc) {
		ea, _ := r.ma.OpenEndpoint(1, false, WithNoSendCopy(), WithNoRecvCopy())
		if ea.zeroCopySend(v) {
			t.Error("user endpoint took kernel zero-copy path")
		}
	})
	r.env.Run(0)
}

func TestRendezvousPinsAndUnpins(t *testing.T) {
	r := newRig()
	asA := r.a.NewUserSpace("appA")
	asB := r.b.NewUserSpace("appB")
	const n = 128 * 1024
	vaA, _ := asA.Mmap(n, "src")
	vaB, _ := asB.Mmap(n, "dst")
	r.env.Spawn("b", func(p *sim.Proc) {
		eb, _ := r.mb.OpenEndpoint(1, false)
		req, _ := eb.Recv(p, core.MatchAll, core.Of(core.UserSeg(asB, vaB, n)))
		req.Wait(p)
		if asB.PinCount(vaB) != 0 {
			t.Error("recv buffer still pinned after completion")
		}
	})
	r.env.Spawn("a", func(p *sim.Proc) {
		p.Sleep(1 * us)
		ea, _ := r.ma.OpenEndpoint(1, false)
		req, _ := ea.Send(p, r.b.ID, 1, 0, core.Of(core.UserSeg(asA, vaA, n)))
		req.Wait(p)
		if asA.PinCount(vaA) != 0 {
			t.Error("send buffer still pinned after completion")
		}
	})
	r.env.Run(0)
}

func TestNoRegistrationAPIExists(t *testing.T) {
	// MX's public surface must not expose registration: this is a
	// compile-time property, but assert the behavioural consequence —
	// a fresh endpoint sends immediately with no setup calls.
	sendRecvOnce(t, 1000)
}

// Rendezvous ids are the sending node's own counter, so two senders'
// ids coincide as soon as both have sent equally many large messages.
// An endpoint holding two matched receives at once (a server with more
// than one request receive posted) must tell them apart by sender: each
// receive completes, with its own sender's bytes. Keyed by id alone the
// second RTS took over the first's receive and one of the two never
// completed. The same script runs with both RTSes arriving unexpected.
func TestCollidingRendezvousIDsFromTwoSenders(t *testing.T) {
	for _, posted := range []bool{true, false} {
		t.Run(fmt.Sprintf("posted=%v", posted), func(t *testing.T) {
			env := sim.NewEngine()
			c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
			senders := []*hw.Node{c.AddNode("a"), c.AddNode("b")}
			dst := c.AddNode("c")
			const n = 96 * 1024
			payload := func(i int) []byte { return bytes.Repeat([]byte{byte(0xA0 + i)}, n) }
			var sends []*Request
			for i, node := range senders {
				i, node, m := i, node, Attach(node)
				env.Spawn(node.Name, func(p *sim.Proc) {
					p.Sleep(sim.Time(1+i) * us)
					ep, _ := m.OpenEndpoint(1, true)
					va, _ := node.Kernel.Mmap(n, "src")
					node.Kernel.WriteBytes(va, payload(i))
					req, err := ep.Send(p, dst.ID, 1, 7, core.Of(core.KernelSeg(node.Kernel, va, n)))
					if err != nil {
						t.Error(err)
						return
					}
					if req.rndvID != 0 {
						t.Errorf("%s: rendezvous id %d, the test wants both senders' first (0)", node.Name, req.rndvID)
					}
					sends = append(sends, req)
				})
			}
			md := Attach(dst)
			var recvs [2]*Request
			var vas [2]vm.VirtAddr
			env.Spawn("c", func(p *sim.Proc) {
				ep, _ := md.OpenEndpoint(1, true)
				if !posted {
					p.Sleep(200 * us) // both RTSes wait in the unexpected queue
				}
				for i := range recvs {
					vas[i], _ = dst.Kernel.Mmap(n, "dst")
					var err error
					if recvs[i], err = ep.Recv(p, core.Exact(7), core.Of(core.KernelSeg(dst.Kernel, vas[i], n))); err != nil {
						t.Error(err)
					}
				}
			})
			env.Run(0)
			for _, req := range sends {
				if !req.Done() {
					t.Error("a send never completed")
				}
			}
			seen := make(map[hw.NodeID]bool)
			for i, req := range recvs {
				st, done := req.Test()
				if !done || st.Err != nil || st.Len != n {
					t.Fatalf("receive %d: done %v, status %+v", i, done, st)
				}
				seen[st.Src] = true
				got, _ := dst.Kernel.ReadBytes(vas[i], n)
				if want := payload(int(st.Src - senders[0].ID)); !bytes.Equal(got, want) {
					t.Errorf("receive %d completed for node %d but holds bytes %#x…, want %#x…", i, st.Src, got[0], want[0])
				}
			}
			if len(seen) != 2 {
				t.Errorf("both receives report the same sender: %v", seen)
			}
		})
	}
}

// TestUnexpectedEagerPaysTheDrainCopy: a 32 KB eager message sent from
// physical memory on a kernel endpoint lands zero-copy in a physical
// kernel receive posted before it arrives — its Wait costs the
// completion event and nothing more — but one that arrives before the
// receive is posted waits in the unexpected queue, in host memory, and
// the host copies it out when the receive matches it: its Wait costs
// CopyTime(32 KB) on top, whatever the receive's addressing.
func TestUnexpectedEagerPaysTheDrainCopy(t *testing.T) {
	const n = 32 << 10
	for _, tc := range []struct {
		name     string
		postAt   time.Duration // when the receiver posts; the sender sends at 1 µs
		wantCopy int64
	}{
		{"posted first", 0, 0},
		{"arrived first", 500 * us, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig()
			src, _ := r.a.Mem.AllocContig(n / mem.PageSize)
			dst, _ := r.b.Mem.AllocContig(n / mem.PageSize)
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(i*7 + 3)
			}
			r.a.Mem.Scatter([]mem.Extent{{Addr: src[0].Addr(), Len: n}}, want)
			var waited time.Duration
			var copied int64
			r.env.Spawn("b", func(p *sim.Proc) {
				eb, _ := r.mb.OpenEndpoint(1, true)
				p.Sleep(tc.postAt)
				req, err := eb.Recv(p, core.Exact(5), core.Of(core.PhysSeg(dst[0].Addr(), n)))
				if err != nil {
					t.Error(err)
					return
				}
				if tc.postAt > 0 && !req.Done() {
					t.Error("the message had not arrived before the receive was posted")
				}
				for !req.Done() {
					p.Sleep(us)
				}
				copies0, t0 := r.b.CPU.CopyStats.Bytes, p.Now()
				if st := req.Wait(p); st.Err != nil || st.Len != n {
					t.Errorf("status %+v", st)
				}
				waited, copied = p.Now()-t0, r.b.CPU.CopyStats.Bytes-copies0
			})
			r.env.Spawn("a", func(p *sim.Proc) {
				ea, _ := r.ma.OpenEndpoint(1, true)
				p.Sleep(us)
				if _, err := ea.Send(p, r.b.ID, 1, 5, core.Of(core.PhysSeg(src[0].Addr(), n))); err != nil {
					t.Error(err)
				}
			})
			r.env.Run(0)
			if copied != tc.wantCopy {
				t.Errorf("Wait copied %d bytes, want %d", copied, tc.wantCopy)
			}
			if want := r.p.MXHostEvent + time.Duration(tc.wantCopy/n)*r.p.CopyTime(n); waited != want {
				t.Errorf("Wait took %v, want %v", waited, want)
			}
			if got := r.b.Mem.Gather([]mem.Extent{{Addr: dst[0].Addr(), Len: n}}); !bytes.Equal(got, want) {
				t.Error("the payload landed corrupted")
			}
		})
	}
}
