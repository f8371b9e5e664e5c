package rfsrv_test

// Tests of the piece rule: a kernel client's read or write whose data
// one eager message cannot carry moves it in EagerMax pieces instead of
// one MX rendezvous — a read's into receives the client posted before
// the request left, a write's into receives the server posts as it
// admits the header.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// recvLog is a client transport that keeps a record of every receive
// posted through it (rfsrv.LogOp), in posting order: a read's reply
// header, then its pieces.
type recvLog struct {
	fabric.Transport
	posted []*rfsrv.OpRecord
	// onPost, when set, sees every receive as it is posted.
	onPost func(i int, op fabric.Op)
}

func (l *recvLog) PostRecv(p *sim.Proc, match core.Match, v core.Vector) (fabric.Op, error) {
	op, err := l.Transport.PostRecv(p, match, v)
	if err != nil {
		return op, err
	}
	op, rec := rfsrv.LogOp(op)
	if l.onPost != nil {
		l.onPost(len(l.posted), op)
	}
	l.posted = append(l.posted, rec)
	return op, nil
}

// loggedSession is a window-1 kernel session over MX endpoint 2 whose
// transport logs its receives.
func (r *rig) loggedSession(t *testing.T) (*rfsrv.Session, *recvLog) {
	t.Helper()
	mt, err := fabric.NewMX(r.mxC, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	log := &recvLog{Transport: mt}
	fc, err := rfsrv.NewFabricClient(nil, log, true, r.client.Kernel, r.server.ID, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := rfsrv.NewSession(nil, fc, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sess, log
}

// kernelBuf maps n kernel bytes on the client.
func (r *rig) kernelBuf(t *testing.T, n int) core.Vector {
	t.Helper()
	va, err := r.client.Kernel.Mmap(n, "buf")
	if err != nil {
		t.Fatal(err)
	}
	return core.Of(core.KernelSeg(r.client.Kernel, va, n))
}

// readBack returns what dst holds.
func (r *rig) readBack(t *testing.T, dst core.Vector, n int) []byte {
	t.Helper()
	got, err := r.client.Kernel.ReadBytes(dst[0].VA, n)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestKernelReadStaysEager: an idle 64 KB read into kernel memory on MX
// is two eager messages into receives posted before the request left.
// The client sends the request and nothing else — a rendezvous would
// have it answer a clear-to-send too — and the server three messages
// (two pieces and the reply header). The read takes 297 325 ns, where
// its rendezvous took 369 939: no RTS/CTS exchange and no 60 µs of
// large-message firmware. The client pins the destination's pages once
// for all its pieces.
func TestKernelReadStaysEager(t *testing.T) {
	const n, want = 64 << 10, sim.Time(297325)
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		data := pattern(n)
		ino := r.seed(t, p, "f", data)
		sess, log := r.loggedSession(t)
		dst := r.kernelBuf(t, n)
		clientTx, serverTx := r.client.NIC.TxMsgs.N, r.server.NIC.TxMsgs.N
		t0 := p.Now()
		resp, err := sess.Read(p, ino, 0, dst)
		if err != nil || resp.N != n {
			t.Fatalf("read: %+v, %v", resp, err)
		}
		if got := p.Now() - t0; got != want {
			t.Errorf("idle 64 KB kernel read took %d ns, want %d", got, want)
		}
		if sent := r.client.NIC.TxMsgs.N - clientTx; sent != 1 {
			t.Errorf("the client sent %d messages for one read, want 1 (the request; a rendezvous adds a CTS)", sent)
		}
		if sent := r.server.NIC.TxMsgs.N - serverTx; sent != 3 {
			t.Errorf("the server sent %d messages, want 3 (two pieces, the header)", sent)
		}
		if len(log.posted) != 3 {
			t.Errorf("the client posted %d receives, want 3 (the header, two pieces)", len(log.posted))
		}
		if !bytes.Equal(r.readBack(t, dst, n), data) {
			t.Error("the pieces landed the wrong bytes")
		}
	})
}

// TestKernelReadShorterThanItsFirstPiece: a 64 KB read of a 10 000-byte
// file asks for two pieces; the server sends both, the second empty, so
// every receive the client posted completes, and the reply's N is the
// file's length.
func TestKernelReadShorterThanItsFirstPiece(t *testing.T) {
	const n, size = 64 << 10, 10000
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		data := pattern(size)
		ino := r.seed(t, p, "f", data)
		sess, log := r.loggedSession(t)
		dst := r.kernelBuf(t, n)
		resp, err := sess.Read(p, ino, 0, dst)
		if err != nil || resp.N != size {
			t.Fatalf("read: %+v, %v; want N = %d", resp, err, size)
		}
		if len(log.posted) != 3 {
			t.Fatalf("the client posted %d receives, want 3 (the header, two pieces)", len(log.posted))
		}
		for i, rec := range log.posted {
			if !rec.Done {
				t.Errorf("receive %d is still posted after the read returned", i)
			} else if !rec.Waited || rec.Status.Err != nil || i == 2 && rec.Status.Len != 0 {
				t.Errorf("receive %d completed %+v", i, *rec)
			}
		}
		if !bytes.Equal(r.readBack(t, dst, size), data) {
			t.Error("the short read landed the wrong bytes")
		}
	})
}

// TestKernelReadPieceFault: the server's NIC dies during a 64 KB
// kernel read — as its first piece lands, with the second on its way,
// or while the first is still on the wire. The read fails as a
// transport fault once its deadline expires — the deadline runs from
// issue — with every receive still posted withdrawn, the pieces after
// the one that timed out included, so nothing of the slot stays
// posted; after the NIC revives, the same slot's next read returns the
// right bytes.
func TestKernelReadPieceFault(t *testing.T) {
	const n, timeout = 64 << 10, 2 * time.Millisecond
	for _, tc := range []struct {
		name   string
		landed int // the one receive that completes, or -1
		kill   func(r *rig, i int, op fabric.Op)
	}{
		{"after the first piece", 1, func(r *rig, i int, op fabric.Op) {
			if i == 1 {
				op.(fabric.NotifyOp).OnDone(r.server.NIC.Kill)
			}
		}},
		{"during the first piece", -1, func(r *rig, i int, op fabric.Op) {
			if i == 2 { // the last receive posted, as the request leaves
				r.server.NIC.KillAfter(20 * time.Microsecond)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			r.run(t, func(p *sim.Proc) {
				data := pattern(n)
				ino := r.seed(t, p, "f", data)
				sess, log := r.loggedSession(t)
				sess.SetRequestTimeout(timeout)
				log.onPost = func(i int, op fabric.Op) { tc.kill(r, i, op) }
				dst := r.kernelBuf(t, n)
				t0 := p.Now()
				_, err := sess.Read(p, ino, 0, dst)
				if !fabric.IsFault(err) {
					t.Fatalf("read across the kill = %v, want a transport fault", err)
				}
				if got := p.Now() - t0; got < timeout || got > timeout+10*time.Microsecond {
					t.Errorf("the read failed after %v, want its %v deadline", got, timeout)
				}
				log.onPost = nil
				if len(log.posted) != 3 {
					t.Fatalf("the client posted %d receives, want 3 (the header, two pieces)", len(log.posted))
				}
				for i, rec := range log.posted {
					if !rec.Done {
						t.Fatalf("receive %d is still posted after the read failed", i)
					}
					if landed := rec.Waited && rec.Status.Err == nil; rec.Cancelled == landed || landed != (i == tc.landed) {
						t.Errorf("receive %d ended %+v, want only receive %d landed and the others withdrawn", i, *rec, tc.landed)
					}
				}
				if sess.InFlight() != 0 {
					t.Errorf("%d window slots held after the fault", sess.InFlight())
				}
				r.server.NIC.Revive()
				resp, err := sess.Read(p, ino, 0, dst)
				if err != nil || resp.N != n {
					t.Fatalf("read after revive: %+v, %v", resp, err)
				}
				if !bytes.Equal(r.readBack(t, dst, n), data) {
					t.Error("the slot's next read returned the wrong bytes")
				}
			})
		})
	}
}

// TestBatchAfterAPieceFault: a batch's flights are built on the window
// slots reads use, so after a 64 KB kernel read fails across a server
// NIC kill — its pieces withdrawn, each completing cancelled — the
// slot's next request, a MetaBatch, must not inherit those receives:
// the create it carries succeeds, is reported as succeeding, and the
// file exists on the server.
func TestBatchAfterAPieceFault(t *testing.T) {
	const n = 64 << 10
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		ino := r.seed(t, p, "f", pattern(n))
		sess, log := r.loggedSession(t)
		sess.SetRequestTimeout(2 * time.Millisecond)
		log.onPost = func(i int, op fabric.Op) {
			if i == 2 { // the last receive posted, as the request leaves
				r.server.NIC.KillAfter(20 * time.Microsecond)
			}
		}
		if _, err := sess.Read(p, ino, 0, r.kernelBuf(t, n)); !fabric.IsFault(err) {
			t.Fatalf("read across the kill = %v, want a transport fault", err)
		}
		log.onPost = nil
		r.server.NIC.Revive()
		root := r.serverFS.Root()
		resps, err := sess.MetaBatch(p, []*rfsrv.Req{
			{Op: rfsrv.OpCreate, Ino: root, Name: "after"},
			{Op: rfsrv.OpLookup, Ino: root, Name: "after"},
		})
		if err != nil || len(resps) != 2 {
			t.Fatalf("batch after the faulted read: %d replies, %v", len(resps), err)
		}
		for i, resp := range resps {
			if resp.Status != rfsrv.StOK {
				t.Errorf("batch reply %d: status %v", i, resp.Status)
			}
		}
		if _, err := r.serverFS.Lookup(p, root, "after"); err != nil {
			t.Errorf("the batch's create is not on the server: %v", err)
		}
	})
}

// TestReadsTheRuleLeavesAlone: a read into user memory on MX (MX pins
// it for a rendezvous) and any read on GM (no eager limit) are answered
// as they were before the piece rule, instant for instant: one
// 64 KB read per destination, kernel memory first.
func TestReadsTheRuleLeavesAlone(t *testing.T) {
	const n = 64 << 10
	pins := map[string][2]sim.Time{
		"mx": {297325, 373939}, // kernel memory is the rule's: TestKernelReadStaysEager
		"gm": {317258, 367758},
	}
	for _, transport := range transports {
		r := newRig(t)
		r.run(t, func(p *sim.Proc) {
			ino := r.seed(t, p, "f", pattern(n))
			sess := r.sessionOver(t, p, transport, 2, 1)
			as := r.client.NewUserSpace("app")
			va, err := as.Mmap(n, "buf")
			if err != nil {
				t.Fatal(err)
			}
			for i, dst := range []core.Vector{r.kernelBuf(t, n), core.Of(core.UserSeg(as, va, n))} {
				t0 := p.Now()
				if _, err := sess.Read(p, ino, 0, dst); err != nil {
					t.Fatal(err)
				}
				if got := p.Now() - t0; got != pins[transport][i] {
					t.Errorf("%s 64 KB read into %s memory took %d ns, want %d", transport, []string{"kernel", "user"}[i], got, pins[transport][i])
				}
			}
		})
	}
}

// TestKernelWriteStaysEager: an idle 64 KB write from kernel memory on
// MX sends its payload as two eager pieces behind its header, into
// receives the server posts as it admits the header. The client sends
// three messages (the request, two pieces) and the server one, the
// reply header — a rendezvous would have it answer a clear-to-send too.
// The write takes 296 648 ns, where its rendezvous took 370 526: no
// RTS/CTS exchange and no 60 µs of large-message firmware. A 40 000-byte
// write at an offset off the page grid is two pieces too, and both land
// their bytes.
func TestKernelWriteStaysEager(t *testing.T) {
	const n, want = 64 << 10, sim.Time(296648)
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		ino := r.seed(t, p, "f", nil)
		sess, _ := r.loggedSession(t)
		src := r.kernelBuf(t, n)
		data := pattern(n)
		r.client.Kernel.WriteBytes(src[0].VA, data)
		clientTx, serverTx := r.client.NIC.TxMsgs.N, r.server.NIC.TxMsgs.N
		t0 := p.Now()
		if resp, err := sess.Write(p, ino, 0, src); err != nil || resp.N != n {
			t.Fatalf("write: %+v, %v", resp, err)
		}
		if got := p.Now() - t0; got != want {
			t.Errorf("idle 64 KB kernel write took %d ns, want %d", got, want)
		}
		if sent := r.client.NIC.TxMsgs.N - clientTx; sent != 3 {
			t.Errorf("the client sent %d messages for one write, want 3 (the request, two pieces)", sent)
		}
		if sent := r.server.NIC.TxMsgs.N - serverTx; sent != 1 {
			t.Errorf("the server sent %d messages, want 1 (the header; a rendezvous adds a CTS)", sent)
		}
		const off, m = 1000, 40000
		if resp, err := sess.Write(p, ino, off, src.Slice(0, m)); err != nil || resp.N != m {
			t.Fatalf("unaligned write: %+v, %v", resp, err)
		}
		want := append(append([]byte(nil), data[:off]...), data[:m]...)
		if got, _ := r.serverFS.ContentOf(ino); !bytes.Equal(got, append(want, data[off+m:]...)) {
			t.Error("the pieces landed the wrong bytes")
		}
	})
	assertServerQuiet(t, r.srv, r.server)
}

// TestWritesTheRuleLeavesAlone: a 64 KB write from user memory on MX
// (MX pins it for a rendezvous) and any 64 KB write on GM (no eager
// limit) take exactly as long as before the piece rule reached writes:
// one 64 KB write per source, kernel memory first.
func TestWritesTheRuleLeavesAlone(t *testing.T) {
	const n = 64 << 10
	pins := map[string][2]sim.Time{
		"mx": {296648, 372926}, // kernel memory is the rule's: TestKernelWriteStaysEager
		"gm": {317852, 368192},
	}
	for _, transport := range transports {
		r := newRig(t)
		r.run(t, func(p *sim.Proc) {
			ino := r.seed(t, p, "f", nil)
			sess := r.sessionOver(t, p, transport, 2, 1)
			as := r.client.NewUserSpace("app")
			va, err := as.Mmap(n, "buf")
			if err != nil {
				t.Fatal(err)
			}
			for i, src := range []core.Vector{r.kernelBuf(t, n), core.Of(core.UserSeg(as, va, n))} {
				t0 := p.Now()
				if _, err := sess.Write(p, ino, 0, src); err != nil {
					t.Fatal(err)
				}
				if got := p.Now() - t0; got != pins[transport][i] {
					t.Errorf("%s 64 KB write from %s memory took %d ns, want %d", transport, []string{"kernel", "user"}[i], got, pins[transport][i])
				}
			}
		})
	}
}
