package rfsrv_test

// A write payload that travels as its own message (above the eager
// limit on MX, always on GM): its tag names the sending node, and the
// server installs it into the block store by page flip.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// TestSeparatePayloadsNameTheirSender: two clients on different nodes,
// on the same endpoint number and at the same sequence number, write
// more than the eager limit to one server at once — A a 256 KB chunk, B
// 40 KB issued just behind A's header, so B's whole payload is in
// before A's. A payload tag without the sender lets the receive A's
// header posted take B's bytes (and B's header A's): each client's
// bytes must land in its own file.
func TestSeparatePayloadsNameTheirSender(t *testing.T) {
	const big, small = rfsrv.MaxWriteChunk, 40 * 1024
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			r := newRigWorkers(t, 4)
			clients := []struct {
				r     *rig
				data  []byte
				delay sim.Time
				ino   kernel.InodeID
			}{
				{r.onNode("a"), bytes.Repeat([]byte{0xAA}, big), 0, 0},
				{r.onNode("b"), bytes.Repeat([]byte{0xBB}, small), 5 * us, 0},
			}
			done := 0
			r.run(t, func(p *sim.Proc) {
				for i := range clients {
					c := &clients[i]
					c.ino = r.seed(t, p, string(rune('a'+i)), nil)
					sess := c.r.sessionOver(t, p, transport, 2, 1) // both: endpoint 2, first seq 1
					src := c.r.kvec(t, len(c.data))
					c.r.client.Kernel.WriteBytes(src[0].VA, c.data)
					r.env.Spawn("writer", func(p *sim.Proc) {
						p.Sleep(c.delay) // B: behind A's header, ahead of most of A's payload
						if resp, err := sess.Write(p, c.ino, 0, src); err != nil || int(resp.N) != len(c.data) {
							t.Errorf("client %d's write: %+v %v", i, resp, err)
						}
						done++
					})
				}
			})
			if done != len(clients) {
				t.Fatalf("%d of %d writes finished", done, len(clients))
			}
			for i, c := range clients {
				if got, _ := r.serverFS.ContentOf(c.ino); !bytes.Equal(got, c.data) {
					t.Errorf("client %d's file does not hold its bytes (%d bytes, first %#x)", i, len(got), got[:min(len(got), 1)])
				}
			}
			assertServerQuiet(t, r.srv, r.server)
		})
	}
}

// TestOverwriteLeavesAQueuedReadItsBytes: a 64 KB read is served — its
// data a rendezvous sent zero-copy from the file's blocks — and, while
// the reader's stalled NIC holds the clear-to-send back so the server's
// NIC has read none of those blocks yet, a second client overwrites the
// whole range and its write completes. The install flips fresh frames
// in and Puts the old blocks, which the queued read still holds: the
// read delivers the bytes the file had when it was served, the file
// holds the new ones, and the old blocks are freed once the read's send
// is done. (Copying the payload into the blocks in place, as the bounce
// path does, would hand the reader the writer's bytes.) MX only: a GM
// server serves one request at a time, so the write cannot overtake
// the read's data.
func TestOverwriteLeavesAQueuedReadItsBytes(t *testing.T) {
	const size = 64 * 1024
	old, neu := pattern(size), bytes.Repeat([]byte{0x5C}, size)
	r := newRigWorkers(t, 4)
	rr, rw := r.onNode("reader"), r.onNode("writer")
	var got []byte
	var oldPFNs []uint64
	var writeDone, readDone sim.Time
	var ino kernel.InodeID
	r.run(t, func(p *sim.Proc) {
		ino = r.seed(t, p, "f", old)
		for idx := int64(0); idx < size/mem.PageSize; idx++ {
			oldPFNs = append(oldPFNs, r.serverFS.FrameAt(ino, idx).PFN())
		}
		reader, writer := rr.sessionOver(t, p, "mx", 2, 1), rw.sessionOver(t, p, "mx", 2, 1)
		dst := rr.kvec(t, size)
		pd, err := reader.StartRead(p, ino, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		for r.srv.RepliesInFlight() == 0 { // the read's data is queued at the server
			p.Sleep(100 * time.Nanosecond)
		}
		rr.client.NIC.StallFor(1000 * us)
		src := rw.kvec(t, size)
		rw.client.Kernel.WriteBytes(src[0].VA, neu)
		if resp, err := writer.Write(p, ino, 0, src); err != nil || resp.N != size {
			t.Fatalf("overwrite: %+v %v", resp, err)
		}
		writeDone = p.Now()
		if resp, err := pd.Wait(p); err != nil || resp.N != size {
			t.Fatalf("read: %+v %v", resp, err)
		}
		readDone = p.Now()
		got, _ = rr.client.Kernel.ReadBytes(dst[0].VA, size)
		// The next reply sweeps what the completed sends held.
		if _, err := writer.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil {
			t.Fatal(err)
		}
	})
	if writeDone >= readDone {
		t.Fatalf("the overwrite finished at %v, after the read (%v): it never overtook the read's data", writeDone, readDone)
	}
	if !bytes.Equal(got, old) {
		t.Error("the read delivered bytes the file did not hold when the read was served")
	}
	if content, _ := r.serverFS.ContentOf(ino); !bytes.Equal(content, neu) {
		t.Error("the file does not hold the overwrite's bytes")
	}
	for _, pfn := range oldPFNs {
		if f := r.server.Mem.Frame(pfn); f != nil {
			t.Errorf("old block %d is still allocated (%d references) after the read's send completed", pfn, f.RefCount())
		}
	}
	assertServerQuiet(t, r.srv, r.server)
}
