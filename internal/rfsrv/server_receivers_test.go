package rfsrv_test

// The MX server's posted receives (Server.Serve): as many as it has
// workers once it has seen two requests at once, exactly one before;
// and the block-store frames a read reply is sent from, and the pooled
// buffer a reply header is sent from, held until the NIC has read them.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// kvec maps n fresh kernel bytes on the rig's client node.
func (r *rig) kvec(t *testing.T, n int) core.Vector { return r.kvecOn(t, r.client, n) }

// kvecOn maps n fresh kernel bytes on node.
func (r *rig) kvecOn(t *testing.T, node *hw.Node, n int) core.Vector {
	t.Helper()
	va, err := node.Kernel.Mmap(n, "buf")
	if err != nil {
		t.Fatal(err)
	}
	return core.Of(core.KernelSeg(node.Kernel, va, n))
}

// TestServeAnswersAReadDuringAnotherClientsRendezvous: client A's 64 KB
// write from user memory — which MX pins for a rendezvous, where kernel
// memory would follow the header in eager pieces — sends its payload
// as a rendezvous of its own, whose receive the receiver that decoded
// A's header posts without waiting for it. Client B's 4 KB read,
// issued once A's request-to-send has reached the server, is received
// and answered while A's payload is still on the wire. With a single
// posted receive held across the payload, B's request waited in the
// unexpected queue for A's whole transfer and was answered after it.
func TestServeAnswersAReadDuringAnotherClientsRendezvous(t *testing.T) {
	const big, small = 64 * 1024, 4096
	r := newRigWorkers(t, 4)
	ra, rb := r.onNode("a"), r.onNode("b")
	var aDone, bDone sim.Time
	r.env.Spawn("setup", func(p *sim.Proc) {
		ino := r.seed(t, p, "f", pattern(small))
		a, b := ra.sessionOver(t, p, "mx", 2, 2), rb.sessionOver(t, p, "mx", 2, 1)
		// Two requests inside the server at once: from here on it keeps a
		// receive posted per worker.
		v := ra.kvec(t, 2*small)
		first, err1 := a.StartRead(p, ino, 0, v.Slice(0, small))
		second, err2 := a.StartRead(p, ino, 0, v.Slice(small, small))
		if err1 != nil || err2 != nil {
			t.Error(err1, err2)
			return
		}
		first.Wait(p)
		second.Wait(p)
		if cs := r.srv.Sessions()[0]; cs.MaxOutstanding != 2 {
			t.Errorf("warm-up reached a server depth of %d, want 2", cs.MaxOutstanding)
		}
		p.Sleep(100 * us) // the woken receivers post
		t0 := p.Now()
		r.env.Spawn("writer", func(p *sim.Proc) {
			as := ra.client.NewUserSpace("writer")
			va, err := as.Mmap(big, "src")
			if err != nil {
				t.Error(err)
				return
			}
			as.WriteBytes(va, pattern(big))
			src := core.Of(core.UserSeg(as, va, big))
			if resp, err := a.Write(p, ino, 0, src); err != nil || resp.N != big {
				t.Errorf("write: %+v %v", resp, err)
			}
			aDone = p.Now() - t0
		})
		r.env.Spawn("reader", func(p *sim.Proc) {
			p.Sleep(20 * us) // A's request-to-send has matched a receive by now
			if resp, err := b.Read(p, ino, 0, rb.kvec(t, small)); err != nil {
				t.Errorf("read: %+v %v", resp, err)
			}
			bDone = p.Now() - t0
		})
	})
	r.env.Run(0)
	if bDone == 0 || aDone == 0 {
		t.Fatal("a client never finished")
	}
	// The single-receive server finished the write at the same instant
	// and the read only once the write's payload was in (418 170 ns
	// while payloads landed in the request bounce). The read was
	// re-pinned 67 925 → 65 493 ns when its 4 KB kernel buffer started to
	// reach MX by physical address: the data lands by DMA, not by a copy
	// out of MX's receive bounce. The write moved from kernel memory
	// (370 526 ns) to user memory (372 926 ns: MX pins the pages) when a
	// kernel write's payload stopped taking a rendezvous.
	if want := [2]sim.Time{372926, 65493}; [2]sim.Time{aDone, bDone} != want || bDone >= aDone {
		t.Errorf("write and read finished %d and %d ns after the write was issued, pinned at %d and %d (the read first)",
			aDone, bDone, want[0], want[1])
	}
	assertServerQuiet(t, r.srv, r.server)
}

// TestSynchronousClientNeverWakesTheOtherReceivers: a server with four
// workers that never holds two requests at once runs the single-receive
// schedule. The pinned script's instants are the one-worker server's;
// the engine schedules the events the one-worker server schedules plus
// the start events of the three receivers and three workers that park;
// and the server's pool has handed out one bounce to the one receiver
// that posts, none to the other three — and none to the two write
// requests, whose payloads land in fresh frames.
func TestSynchronousClientNeverWakesTheOtherReceivers(t *testing.T) {
	r := newRigWorkers(t, 4)
	var got []sim.Time
	r.run(t, func(p *sim.Proc) { got = timedScript(t, r, p, "mx", 1) })
	if !reflect.DeepEqual(got, pinnedInstants["mx/1"]) {
		t.Errorf("virtual instants %v, pinned %v", got, pinnedInstants["mx/1"])
	}
	const (
		// This rig and script on the one-worker server: 2 254 while MX
		// copied medium messages, 2 278 since they go zero-copy (each
		// completes from its transmit's own event), 2 344 since a kernel
		// write's payload follows its header in eager pieces.
		oneWorker = 2344
		parked    = 6 // receivers and workers 2-4 start, and park
	)
	if got := r.env.Events(); got != oneWorker+parked {
		t.Errorf("%d events scheduled, want %d: the one-worker server's %d, +%d", got, oneWorker+parked, oneWorker, parked)
	}
	// 35 reply headers and a bounce each for the MX and the GM receiver
	// (while write payloads landed in the request bounce, each of the 2
	// write requests took one more: 39). What is out at the end: the two
	// receivers' bounces and the last header.
	if pool := fabric.PoolOf(r.server); pool.Gets.N != 37 || pool.Outstanding() != 3 {
		t.Errorf("server pool handed out %d buffers and %d are out, want 37 and 3", pool.Gets.N, pool.Outstanding())
	}
}

// TestReadDataOutlivesATruncate: a read's data is sent zero-copy from
// the block store's frames (the shared zero page for holes), and the NIC
// reads them only when the message reaches the head of its transmit
// queue. The server's NIC is stalled while the read is being served, a
// truncate of the same range is served the instant the stall ends —
// before the NIC has read more than a fragment — and frees the blocks;
// the read must still deliver the bytes it found, and every frame must
// be back at its reference count once the sends are done. Without the
// references readExtents takes, the NIC read from frames the allocator
// had taken back ("mem: read from unallocated frame").
func TestReadDataOutlivesATruncate(t *testing.T) {
	const pg = mem.PageSize
	for _, transport := range transports {
		for _, span := range []struct {
			name   string
			off, n int
		}{{"eager-24k", 6 * pg, 6 * pg}, {"rendezvous-48k", 0, 12 * pg}} {
			t.Run(transport+"/"+span.name, func(t *testing.T) {
				r := newRigWorkers(t, 2)
				rr, rt := r.onNode("reader"), r.onNode("truncater")
				// Pages 0-7 and 10-11 hold data, 8-9 are a hole.
				want := append(append(pattern(8*pg), make([]byte, 2*pg)...), pattern(2*pg)...)
				var got []byte
				var pfns []uint64
				var zeroRefs int
				var stallEnd, readDone sim.Time
				r.run(t, func(p *sim.Proc) {
					ino := r.seed(t, p, "f", want[:8*pg])
					tail := r.kvecOn(t, r.server, 2*pg)
					r.server.Kernel.WriteBytes(tail[0].VA, want[10*pg:])
					if _, err := r.serverFS.WriteDirect(p, ino, 10*pg, tail); err != nil {
						t.Fatal(err)
					}
					for idx := int64(0); idx < 12; idx++ {
						if f := r.serverFS.FrameAt(ino, idx); f != nil {
							pfns = append(pfns, f.PFN())
						}
					}
					reader, truncater := rr.sessionOver(t, p, transport, 2, 1), rt.sessionOver(t, p, transport, 2, 1)
					dst := rr.kvec(t, span.n)
					zeroRefs = r.srv.ZeroFrameRefs()
					pd, err := reader.StartRead(p, ino, int64(span.off), dst)
					if err != nil {
						t.Fatal(err)
					}
					for len(r.srv.Sessions()) == 0 || r.srv.Sessions()[0].Outstanding == 0 {
						p.Sleep(100 * time.Nanosecond)
					}
					// The request is inside the server and its reply is not
					// out yet: whatever it sends waits behind this stall.
					r.server.NIC.StallFor(500 * us)
					stallEnd = p.Now() + 500*us
					resp, err := truncater.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: 0})
					if err != nil || resp.Status != rfsrv.StOK {
						t.Fatalf("truncate: %+v %v", resp, err)
					}
					if resp, err := pd.Wait(p); err != nil || int(resp.N) != span.n {
						t.Fatalf("read: %+v %v", resp, err)
					}
					readDone = p.Now()
					got, _ = rr.client.Kernel.ReadBytes(dst[0].VA, span.n)
					// The next reply sweeps what the completed sends held.
					if _, err := reader.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil {
						t.Fatal(err)
					}
				})
				if readDone <= stallEnd {
					t.Errorf("the read completed at %v, inside the stall (until %v): its data was not held back", readDone, stallEnd)
				}
				if !bytes.Equal(got, want[span.off:span.off+span.n]) {
					t.Error("the read did not deliver the bytes the file held when it was served")
				}
				for _, pfn := range pfns {
					if f := r.server.Mem.Frame(pfn); f != nil {
						t.Errorf("frame %d of the truncated file is still allocated (%d references) after the read's send completed", pfn, f.RefCount())
					}
				}
				if now := r.srv.ZeroFrameRefs(); now != zeroRefs {
					t.Errorf("the zero page has %d references, %d before the hole was read", now, zeroRefs)
				}
				assertServerQuiet(t, r.srv, r.server)
			})
		}
	}
}

// TestReplyHeaderOutlivesTheNextReply: a readdir listing longer than
// MX's small-message limit goes out zero-copy from its pooled header
// buffer, and the NIC reads it only when the message reaches the head of
// its transmit queue. A batch carries the readdir and a getattr, so the
// server sends the getattr's reply straight after the listing's, while
// its NIC is stalled; the listing must still arrive as it was encoded.
// Without the staging rule the getattr's header took the pooled buffer
// the listing was still queued in, and the client read a getattr reply
// under the readdir's sequence number.
func TestReplyHeaderOutlivesTheNextReply(t *testing.T) {
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			r := newRigWorkers(t, 2)
			var names []string
			var resps []*rfsrv.Resp
			var stallEnd, done sim.Time
			r.run(t, func(p *sim.Proc) {
				for i := 0; i < 8; i++ {
					names = append(names, fmt.Sprintf("listed-file-%02d", i))
					r.seed(t, p, names[i], nil)
				}
				sess := r.sessionOver(t, p, transport, 2, 2)
				reqs := []*rfsrv.Req{{Op: rfsrv.OpReaddir}, {Op: rfsrv.OpGetattr}}
				var err error
				r.env.Spawn("batch", func(p *sim.Proc) {
					resps, err = sess.MetaBatch(p, reqs)
					done = p.Now()
				})
				for len(r.srv.Sessions()) == 0 || r.srv.Sessions()[0].Outstanding == 0 {
					p.Sleep(100 * time.Nanosecond)
				}
				// The batch is inside the server and neither reply is out
				// yet: both wait behind this stall.
				r.server.NIC.StallFor(500 * us)
				stallEnd = p.Now() + 500*us
				for done == 0 {
					p.Sleep(10 * us)
				}
				if err != nil {
					t.Fatalf("batch: %v", err)
				}
			})
			if done <= stallEnd {
				t.Errorf("the batch completed at %v, inside the stall (until %v): its replies were not held back", done, stallEnd)
			}
			if len(resps) != 2 || len(resps[0].Entries) != len(names) {
				t.Fatalf("readdir listed %+v, want %d entries", resps, len(names))
			}
			for i, e := range resps[0].Entries {
				if e.Name != names[i] {
					t.Errorf("entry %d is %q, want %q", i, e.Name, names[i])
				}
			}
			if resps[1].Attr.Ino != r.serverFS.Root() {
				t.Errorf("getattr answered inode %d, want the root", resps[1].Attr.Ino)
			}
			assertServerQuiet(t, r.srv, r.server)
		})
	}
}

// TestInboxFramesGoWithTheKernel: a receiver's inbox frames are the
// server node's kernel memory. A finished rig's receivers stay parked
// for good, posted into them, so they are given back when the node's
// kernel space is destroyed — as the pooled buffers mapped in it are —
// instead of living on with the parked process. Afterwards the server
// node holds only its shared zero page.
func TestInboxFramesGoWithTheKernel(t *testing.T) {
	r := newRigWorkers(t, 4)
	r.run(t, func(p *sim.Proc) {
		ino := r.seed(t, p, "f", nil)
		for _, transport := range transports {
			sess := r.sessionOver(t, p, transport, 2, 4)
			// Two requests at once, so more MX receivers post.
			first, err1 := sess.StartMeta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
			second, err2 := sess.StartMeta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			first.Wait(p)
			second.Wait(p)
		}
		if err := r.serverFS.Unlink(p, r.serverFS.Root(), "f"); err != nil {
			t.Fatal(err)
		}
	})
	if r.server.Mem.Allocated() <= 1 {
		t.Fatalf("the server holds %d frames while its receivers are posted", r.server.Mem.Allocated())
	}
	r.server.Kernel.Destroy()
	if got := r.server.Mem.Allocated(); got != 1 {
		t.Errorf("the server holds %d frames once its kernel space is destroyed, want 1 (the zero page)", got)
	}
}
