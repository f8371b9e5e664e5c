package rfsrv_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// sessionOver builds a windowed session over a fresh kernel-side
// client of the given transport.
func (r *rig) sessionOver(t *testing.T, p *sim.Proc, transport string, ep uint8, window int) *rfsrv.Session {
	t.Helper()
	var fc *rfsrv.FabricClient
	var err error
	if transport == "mx" {
		fc, err = rfsrv.NewMXClient(r.mxC, ep, true, r.client.Kernel, r.server.ID, 1)
	} else {
		fc, err = rfsrv.NewGMClient(p, r.gmC, ep, true, r.client.Kernel, r.server.ID, 1, 1024)
	}
	if err != nil {
		t.Fatal(err)
	}
	sess, err := rfsrv.NewSession(p, fc, window)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSessionOutOfOrderCompletion issues a large read then a small
// one and retires the small one first: on MX the completions are
// independent, on GM the fabric routes the drained events to their
// operations, so out-of-order Waits must work on both.
func TestSessionOutOfOrderCompletion(t *testing.T) {
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			big := pattern(512 * 1024)
			small := bytes.Repeat([]byte{0x5A}, 4096)
			r.run(t, func(p *sim.Proc) {
				inoBig := r.seed(t, p, "big", big)
				inoSmall := r.seed(t, p, "small", small)
				sess := r.sessionOver(t, p, transport, 2, 4)
				kern := r.client.Kernel
				bigVA, _ := kern.Mmap(len(big), "big")
				smallVA, _ := kern.Mmap(len(small), "small")
				pdBig, err := sess.StartRead(p, inoBig, 0, core.Of(core.KernelSeg(kern, bigVA, len(big))))
				if err != nil {
					t.Fatal(err)
				}
				pdSmall, err := sess.StartRead(p, inoSmall, 0, core.Of(core.KernelSeg(kern, smallVA, len(small))))
				if err != nil {
					t.Fatal(err)
				}
				// Retire the later, smaller request first.
				respS, err := pdSmall.Wait(p)
				if err != nil || int(respS.N) != len(small) {
					t.Fatalf("small read: %v %v", respS, err)
				}
				tSmall := p.Now()
				respB, err := pdBig.Wait(p)
				if err != nil || int(respB.N) != len(big) {
					t.Fatalf("big read: %v %v", respB, err)
				}
				if p.Now() < tSmall {
					t.Fatal("time went backwards")
				}
				gotS, _ := kern.ReadBytes(smallVA, len(small))
				gotB, _ := kern.ReadBytes(bigVA, len(big))
				if !bytes.Equal(gotS, small) || !bytes.Equal(gotB, big) {
					t.Fatal("out-of-order retirement corrupted data")
				}
			})
		})
	}
}

// TestSessionWindowBackpressure fills a window-2 session and verifies
// that the third issue blocks until another process retires one of
// the outstanding requests — and that the window bound is never
// exceeded.
func TestSessionWindowBackpressure(t *testing.T) {
	r := newRig(t)
	data := pattern(256 * 1024)
	var issuedThird, retiredFirst sim.Time
	r.env.Spawn("main", func(p *sim.Proc) {
		ino := r.seed(t, p, "f", data)
		sess := r.sessionOver(t, p, "mx", 2, 2)
		kern := r.client.Kernel
		bufs := make([]core.Vector, 3)
		for i := range bufs {
			va, _ := kern.Mmap(64*1024, "buf")
			bufs[i] = core.Of(core.KernelSeg(kern, va, 64*1024))
		}
		pd0, err := sess.StartRead(p, ino, 0, bufs[0])
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.StartRead(p, ino, 64*1024, bufs[1]); err != nil {
			t.Error(err)
			return
		}
		if sess.InFlight() != 2 {
			t.Errorf("in-flight = %d, want 2", sess.InFlight())
		}
		// A helper retires the oldest request after a long delay; the
		// third StartRead below must block until then.
		r.env.Spawn("retirer", func(q *sim.Proc) {
			q.Sleep(5 * sim.Time(1e6)) // 5 ms, far beyond the read's RTT
			if _, err := pd0.Wait(q); err != nil {
				t.Error(err)
			}
			retiredFirst = q.Now()
		})
		pd2, err := sess.StartRead(p, ino, 128*1024, bufs[2])
		if err != nil {
			t.Error(err)
			return
		}
		issuedThird = p.Now()
		pd2.Wait(p)
		if sess.MaxInFlight() > 2 {
			t.Errorf("window exceeded: max in-flight %d > 2", sess.MaxInFlight())
		}
	})
	r.env.Run(0)
	if retiredFirst == 0 || issuedThird < retiredFirst {
		t.Errorf("third issue at %v did not block until the retire at %v", issuedThird, retiredFirst)
	}
}

// TestSessionStressNoCrossTalk: four client nodes, each with a
// window-8 session, hammer one two-worker server; every reply must
// land in its own session with its own file's bytes.
func TestSessionStressNoCrossTalk(t *testing.T) {
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	server := c.AddNode("server")
	serverFS := memfs.New("backing", server, 0)
	srv := rfsrv.NewServer(server, serverFS)
	if _, err := srv.ServeMX(mx.Attach(server), 1, 2); err != nil {
		t.Fatal(err)
	}
	const (
		clients  = 4
		window   = 8
		chunk    = 16 * 1024
		fileSize = 512 * 1024
	)
	finished := 0
	env.Spawn("seed", func(p *sim.Proc) {
		var inos [clients]kernel.InodeID
		for i := 0; i < clients; i++ {
			attr, err := serverFS.Create(p, serverFS.Root(), fmt.Sprintf("f%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			kva, _ := server.Kernel.Mmap(fileSize, "seed")
			server.Kernel.WriteBytes(kva, bytes.Repeat([]byte{byte(0x21 + i)}, fileSize))
			serverFS.WriteDirect(p, attr.Ino, 0, core.Of(core.KernelSeg(server.Kernel, kva, fileSize)))
			inos[i] = attr.Ino
		}
		for i := 0; i < clients; i++ {
			i := i
			node := c.AddNode(fmt.Sprintf("client%d", i))
			mxC := mx.Attach(node)
			env.Spawn(fmt.Sprintf("cl%d", i), func(p *sim.Proc) {
				fc, err := rfsrv.NewMXClient(mxC, uint8(10+i), true, node.Kernel, server.ID, 1)
				if err != nil {
					t.Error(err)
					return
				}
				sess, err := rfsrv.NewSession(p, fc, window)
				if err != nil {
					t.Error(err)
					return
				}
				kern := node.Kernel
				bufs := make([]core.Vector, window)
				for j := range bufs {
					va, _ := kern.Mmap(chunk, "buf")
					bufs[j] = core.Of(core.KernelSeg(kern, va, chunk))
				}
				type slot struct {
					pd  rfsrv.PendingOp
					buf int
				}
				var q []slot
				check := func(s slot) bool {
					resp, err := s.pd.Wait(p)
					if err != nil || int(resp.N) != chunk {
						t.Errorf("client %d: %v %v", i, resp, err)
						return false
					}
					raw, _ := kern.ReadBytes(bufs[s.buf][0].VA, chunk)
					for _, b := range raw {
						if b != byte(0x21+i) {
							t.Errorf("client %d: reply crossed sessions (byte %#x)", i, b)
							return false
						}
					}
					return true
				}
				for issued := 0; issued < fileSize/chunk; issued++ {
					if len(q) == window {
						s := q[0]
						q = q[1:]
						if !check(s) {
							return
						}
					}
					pd, err := sess.StartRead(p, inos[i], int64(issued)*chunk, bufs[issued%window])
					if err != nil {
						t.Error(err)
						return
					}
					q = append(q, slot{pd, issued % window})
				}
				for _, s := range q {
					if !check(s) {
						return
					}
				}
				if sess.MaxInFlight() != window {
					t.Errorf("client %d: max in-flight %d, want %d", i, sess.MaxInFlight(), window)
				}
				finished++
			})
		}
	})
	env.Run(0)
	if finished != clients {
		t.Fatalf("%d/%d clients finished", finished, clients)
	}
	// Every client has its own server-side session with the full
	// request count (the per-reply host work completes quickly, so
	// instantaneous Outstanding depth depends on timing; the counters
	// must balance regardless).
	if got := len(srv.Sessions()); got != clients {
		t.Errorf("server tracked %d client sessions, want %d", got, clients)
	}
	for _, cs := range srv.Sessions() {
		if cs.Served.N != fileSize/chunk {
			t.Errorf("session %v/%d served %d requests, want %d", cs.Node, cs.EP, cs.Served.N, fileSize/chunk)
		}
		if cs.Outstanding != 0 {
			t.Errorf("session %v/%d still has %d outstanding after quiesce", cs.Node, cs.EP, cs.Outstanding)
		}
	}
	assertServerQuiet(t, srv, server)
}

// TestMetaBatch packs several getattrs into combined request messages
// and checks the replies demux correctly on both transports.
func TestMetaBatch(t *testing.T) {
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			r.run(t, func(p *sim.Proc) {
				var inos []kernel.InodeID
				var sizes []int
				for i := 0; i < 6; i++ {
					ino := r.seed(t, p, fmt.Sprintf("f%d", i), pattern(1000+i*777))
					inos = append(inos, ino)
					sizes = append(sizes, 1000+i*777)
				}
				sess := r.sessionOver(t, p, transport, 2, 4)
				reqs := make([]*rfsrv.Req, len(inos))
				for i, ino := range inos {
					reqs[i] = &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}
				}
				// 6 requests through a window of 4: two flights.
				resps, err := sess.MetaBatch(p, reqs)
				if err != nil {
					t.Fatal(err)
				}
				if len(resps) != len(reqs) {
					t.Fatalf("%d responses for %d requests", len(resps), len(reqs))
				}
				for i, resp := range resps {
					if resp.Attr.Ino != inos[i] || resp.Attr.Size != int64(sizes[i]) {
						t.Errorf("batched getattr %d: %+v, want ino %d size %d", i, resp.Attr, inos[i], sizes[i])
					}
				}
				if sess.Batched.N == 0 {
					t.Error("no requests were combined")
				}
				if r.srv.Batched.N == 0 {
					t.Error("server unpacked no combined requests")
				}
			})
		})
	}
}

// TestNameTooLongStatus: an oversized name must surface as a status at
// the client API boundary — the sim used to panic in EncodeReq.
func TestNameTooLongStatus(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cl := r.mxKernelClient(t)
		long := string(bytes.Repeat([]byte{'x'}, rfsrv.MaxNameLen+1))
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: 0, Name: long})
		if err != rfsrv.ErrNameTooLong {
			t.Fatalf("err = %v, want ErrNameTooLong", err)
		}
		if resp == nil || resp.Status != rfsrv.StNameTooLong {
			t.Fatalf("resp = %+v, want status StNameTooLong", resp)
		}
		// Session path too.
		sess := r.sessionOver(t, p, "mx", 3, 2)
		if _, err := sess.StartMeta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: long}); err != rfsrv.ErrNameTooLong {
			t.Fatalf("session err = %v, want ErrNameTooLong", err)
		}
		// A maximal legal name still works end to end.
		legal := string(bytes.Repeat([]byte{'y'}, rfsrv.MaxNameLen))
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: legal}); err != nil {
			t.Fatalf("max-length name rejected: %v", err)
		}
	})
}

// TestORFSSessionEndToEnd drives the full VFS stack over a windowed
// session: buffered writes pipeline (write-behind), sequential
// buffered reads prefetch (readahead), and the bytes survive.
func TestORFSSessionEndToEnd(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		sess := r.sessionOver(t, p, "mx", 2, 8)
		fs := orfs.New("orfs", sess)
		osys := kernel.NewOS(r.client, 0)
		osys.Mount("/mnt", fs)
		as := r.client.NewUserSpace("app")
		buf, _ := as.Mmap(1<<20, "buf")

		data := pattern(300 * 1024)
		f, err := osys.Open(p, "/mnt/data", kernel.OCreate)
		if err != nil {
			t.Fatal(err)
		}
		as.WriteBytes(buf, data)
		if n, err := f.Write(p, as, buf, len(data)); err != nil || n != len(data) {
			t.Fatalf("write: %d %v", n, err)
		}
		if err := f.Close(p); err != nil { // flush + Sync drains write-behind
			t.Fatal(err)
		}

		// A different mount (cold cache) reads the file back buffered:
		// sequential page misses must prefetch through the window.
		sess2 := r.sessionOver(t, p, "mx", 3, 8)
		fs2 := orfs.New("orfs2", sess2)
		osys2 := kernel.NewOS(r.client, 0)
		osys2.Mount("/m2", fs2)
		g, err := osys2.Open(p, "/m2/data", 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := g.ReadAt(p, as, buf, len(data), 0)
		if err != nil || n != len(data) {
			t.Fatalf("buffered read: %d %v", n, err)
		}
		got, _ := as.ReadBytes(buf, n)
		if !bytes.Equal(got, data) {
			t.Fatal("windowed roundtrip corrupted data")
		}
		if fs2.ReadaheadHits.N == 0 {
			t.Error("sequential buffered read never hit the readahead window")
		}
		if fs.WriteOps.N < 2 {
			t.Error("write-behind issued no page writes")
		}
	})
}

var _ = mem.PageSize

// TestSessionWriteDrainsOnFault: a chunked Session.Write whose server
// dies mid-transfer must still retire every chunk it issued — the
// doomed ones expire at their reply deadline — and return the fault:
// no window slot stays held and no staging buffer or frame leaks. (The
// server itself stays wedged on the half-received chunk — it has no
// deadline of its own yet, ROADMAP item 2 — so nothing is retried.)
func TestSessionWriteDrainsOnFault(t *testing.T) {
	const size = 16 * rfsrv.MaxWriteChunk // 16 chunks through a window of 2
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		ino := r.seed(t, p, "f", nil)
		sess := r.sessionOver(t, p, "mx", 2, 2)
		sess.SetRequestTimeout(2 * time.Millisecond)
		kern := r.client.Kernel
		va, err := kern.Mmap(size, "src")
		if err != nil {
			t.Fatal(err)
		}
		kern.WriteBytes(va, pattern(size))
		src := core.Of(core.KernelSeg(kern, va, size))
		before := r.client.Mem.Allocated()
		r.server.NIC.KillAfter(3 * time.Millisecond) // a few chunks in
		_, err = sess.Write(p, ino, 0, src)
		if !fabric.IsFault(err) {
			t.Fatalf("write across a server kill = %v, want a transport fault", err)
		}
		if sess.MaxInFlight() != 2 {
			t.Errorf("max in flight %d, want the window (2): the transfer never pipelined", sess.MaxInFlight())
		}
		if sess.InFlight() != 0 {
			t.Errorf("%d window slots still held after the failed write", sess.InFlight())
		}
		if sess.Issued.N != sess.Completed.N {
			t.Errorf("issued %d requests, retired %d", sess.Issued.N, sess.Completed.N)
		}
		if got := r.client.Mem.Allocated(); got != before {
			t.Errorf("%d frames allocated after the failed write, %d before", got, before)
		}
		if err := fabric.PoolOf(r.client).CheckLeaks(); err != nil {
			t.Error(err)
		}
	})
}

// TestSessionWriteVirtualTime pins the chunked write's virtual time
// (recorded before Session.Write moved onto fabric.Pipeline): 1 MiB at
// window 4 over MX.
func TestSessionWriteVirtualTime(t *testing.T) {
	const size = 1 << 20
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		ino := r.seed(t, p, "f", nil)
		sess := r.sessionOver(t, p, "mx", 2, 4)
		kern := r.client.Kernel
		va, err := kern.Mmap(size, "src")
		if err != nil {
			t.Fatal(err)
		}
		kern.WriteBytes(va, pattern(size))
		t0 := p.Now()
		resp, err := sess.Write(p, ino, 0, core.Of(core.KernelSeg(kern, va, size)))
		if err != nil || resp.N != size {
			t.Fatalf("write: %v %v", resp, err)
		}
		const pin = 4983815 * time.Nanosecond
		if got := p.Now() - t0; got != pin {
			t.Errorf("1 MiB write at window 4 took %v (%d ns), pinned at %v", got, got.Nanoseconds(), pin)
		}
	})
}
