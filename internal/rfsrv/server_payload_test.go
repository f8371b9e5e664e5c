package rfsrv_test

// A write payload that travels as its own message (above the eager
// limit on MX, always on GM): its tag names the sending node, and the
// server installs it into the block store by page flip.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
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
// is done. (Copying the payload into the blocks in place, as an install
// does for a payload shifted off its in-page position, would hand the
// reader the writer's bytes.) MX only: a GM
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

// TestInlineWriteFlipsWholePages: an MX write small enough to ride
// inline behind its request lands in the frames behind the receiver's
// header segment. At a page-aligned offset those frames become the
// file's blocks by page flip: the server copies nothing into a hole and,
// over existing blocks, only the share of a partly covered page that
// had one. At an unaligned offset the payload is copied in whole, as
// it was when every inline payload was copied out of the request
// bounce. A long name a lookup spilled into the frames must not reach a
// flipped block: a 1 KB write over it, extended by truncate, reads
// zeros past 1 KB, and the clearing is charged. And the receiver's
// frame accounting comes back to where it started after 1 000 mixed
// requests and the unlink of every file they wrote.
func TestInlineWriteFlipsWholePages(t *testing.T) {
	const pg = mem.PageSize
	r := newRigWorkers(t, 4)
	r.run(t, func(p *sim.Proc) {
		sess := r.sessionOver(t, p, "mx", 2, 1)
		src, dst := r.kvec(t, rfsrv.MaxWriteChunk), r.kvec(t, rfsrv.MaxWriteChunk)
		models := map[kernel.InodeID][]byte{}
		// write stores data at off and reports what the server copied.
		write := func(ino kernel.InodeID, off int64, data []byte) int64 {
			t.Helper()
			r.client.Kernel.WriteBytes(src[0].VA, data)
			before := r.server.CPU.CopyStats.Bytes
			if resp, err := sess.Write(p, ino, off, src.Slice(0, len(data))); err != nil || int(resp.N) != len(data) {
				t.Fatalf("write of %d bytes at %d: %+v %v", len(data), off, resp, err)
			}
			m := models[ino]
			m = append(m, make([]byte, max(0, int(off)+len(data)-len(m)))...)
			copy(m[off:], data)
			models[ino] = m
			return r.server.CPU.CopyStats.Bytes - before
		}
		// readBack reads the whole file and compares it with its model.
		readBack := func(ino kernel.InodeID) {
			t.Helper()
			m := models[ino]
			resp, err := sess.Read(p, ino, 0, dst.Slice(0, len(m)))
			if err != nil || int(resp.N) != len(m) {
				t.Fatalf("read-back: %+v %v", resp, err)
			}
			if got, _ := r.client.Kernel.ReadBytes(dst[0].VA, len(m)); !bytes.Equal(got, m) {
				t.Fatalf("inode %d reads back differently from what was written", ino)
			}
		}
		fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

		for _, n := range []int{4 << 10, 8 << 10, 16 << 10, 6000} {
			seeded := pattern(4*pg + n)
			for _, tc := range []struct {
				name   string
				data   []byte // the file's bytes before the write
				off    int64
				copies int64
			}{
				{"aligned into a hole", nil, pg, 0},
				{"aligned over blocks", seeded, pg, int64(n % pg)},
				{"unaligned into a hole", nil, pg + 100, int64(n)},
				{"unaligned over blocks", seeded, pg + 100, int64(n)},
			} {
				ino := r.seed(t, p, fmt.Sprintf("%s-%d", tc.name, n), tc.data)
				models[ino] = append([]byte(nil), tc.data...)
				if got := write(ino, tc.off, fill(n, byte(n))); got != tc.copies {
					t.Errorf("%d bytes %s: the server copied %d bytes, want %d", n, tc.name, got, tc.copies)
				}
				readBack(ino)
			}
		}

		// The stale-bytes trap: a 3 000-byte name spills into the frame
		// the next write's payload lands in.
		if _, err := sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: r.serverFS.Root(), Name: strings.Repeat("x", 3000)}); err != rfsrv.ErrOf(rfsrv.StNotFound) {
			t.Fatalf("lookup of a long name: %v", err)
		}
		trap := r.seed(t, p, "trap", nil)
		models[trap] = nil
		if got, want := write(trap, 0, fill(1024, 0x77)), int64(3000-1024); got != want {
			t.Errorf("a 1 KB write over a spilled name: the server copied %d bytes, want %d (the clearing)", got, want)
		}
		if _, err := sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: trap, Off: pg}); err != nil {
			t.Fatal(err)
		}
		models[trap] = append(models[trap], make([]byte, pg-1024)...)
		readBack(trap)

		// Frame accounting over 1 000 mixed requests.
		files := make([]kernel.InodeID, 4)
		for i := range files {
			resp, err := sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: r.serverFS.Root(), Name: fmt.Sprintf("mixed-%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			files[i] = resp.Attr.Ino
		}
		start := r.server.Mem.Allocated()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			ino := files[rng.Intn(len(files))]
			switch rng.Intn(6) {
			case 0: // inline, aligned
				write(ino, int64(rng.Intn(8))*pg, fill(1+rng.Intn(16<<10), byte(i)))
			case 1: // inline, unaligned
				write(ino, int64(1+rng.Intn(8*pg)), fill(1+rng.Intn(16<<10), byte(i)))
			case 2: // a separate payload
				write(ino, int64(rng.Intn(8))*pg, fill(64<<10, byte(i)))
			case 3:
				readBack(ino)
			case 4: // a spilled name
				sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: r.serverFS.Root(), Name: strings.Repeat("y", 1+rng.Intn(4000))})
			default:
				size := int64(rng.Intn(32 << 10))
				if _, err := sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: size}); err != nil {
					t.Fatal(err)
				}
				m := models[ino]
				models[ino] = append(m[:min(int64(len(m)), size)], make([]byte, max(0, size-int64(len(m))))...)
			}
		}
		for i, ino := range files {
			readBack(ino)
			if _, err := sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: r.serverFS.Root(), Name: fmt.Sprintf("mixed-%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.server.Mem.Allocated(); got != start {
			t.Errorf("%d frames allocated after 1 000 mixed requests and the unlinks, %d before", got, start)
		}
	})
	assertServerQuiet(t, r.srv, r.server)
}
