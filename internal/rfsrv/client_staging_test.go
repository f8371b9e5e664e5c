package rfsrv

// White-box test of the client half of the one staging rule: a raw
// fabric endpoint plays a server that never answers, so every request
// times out, and records the bytes each request message carried.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/mx"
	"repro/internal/sim"
)

// TestTimedOutRequestKeepsItsStaging: a kernel client's NIC gathers a
// medium request — an inline write, a metadata batch above MX's
// small-message limit — from the slot's request buffer and the caller's
// memory at DMA time, and on GM every request and payload. The client's
// NIC is stalled past the reply deadline with such a request queued, so
// the request times out; the slot and the caller's buffer are then
// reused for a different request, and only after that does the stall
// end. The silent server must receive the first request's bytes intact
// or not at all: retire hands the memory back only once the send that
// gathers from it is done (settle). Without that the first message left
// with the second request's header and data in it.
func TestTimedOutRequestKeepsItsStaging(t *testing.T) {
	const (
		timeout = 100 * time.Microsecond
		stall   = 150 * time.Microsecond // past the deadline, within settle's one more
		n       = 8 << 10                // an inline write on MX
	)
	for _, transport := range []string{"mx", "gm"} {
		for _, shape := range []string{"write", "batch"} {
			t.Run(transport+"/"+shape, func(t *testing.T) {
				env := sim.NewEngine()
				c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
				sink, client := c.AddNode("sink"), c.AddNode("client")
				var srv fabric.Transport
				var err error
				if transport == "mx" {
					srv, err = fabric.NewMX(mx.Attach(sink), 1, true)
				} else {
					srv, err = fabric.NewGM(gm.Attach(sink), 1, true)
				}
				if err != nil {
					t.Fatal(err)
				}
				// The sink keeps what the first request message and the
				// first request's separate payload (GM) carried.
				var firstReq, firstPay []byte
				record := func(match core.Match, into *[]byte) {
					env.Spawn("sink", func(p *sim.Proc) {
						buf, err := fabric.PoolOf(sink).Get(64 << 10)
						if err != nil {
							t.Error(err)
							return
						}
						op, err := srv.PostRecv(p, match, buf.PhysVec(buf.Size()))
						if err != nil {
							t.Error(err)
							return
						}
						st := op.Wait(p)
						*into, _ = sink.Kernel.ReadBytes(buf.VA(), st.Len)
					})
				}
				record(core.Exact(reqTag), &firstReq)
				record(core.Exact(payloadTag(client.ID, 1, 2)), &firstPay)

				done := false
				env.Spawn("client", func(p *sim.Proc) {
					var fc *FabricClient
					if transport == "mx" {
						fc, err = NewMXClient(mx.Attach(client), 2, true, client.Kernel, sink.ID, 1)
					} else {
						fc, err = NewGMClient(p, gm.Attach(client), 2, true, client.Kernel, sink.ID, 1, 1024)
					}
					if err != nil {
						t.Error(err)
						return
					}
					// A batch packs a window's worth of requests into one
					// message from its first slot, which the next batch,
					// its slots handed back in order, opens with again.
					window := 1
					if shape == "batch" {
						window = 8
					}
					sess, err := NewSession(p, fc, window)
					if err != nil {
						t.Error(err)
						return
					}
					sess.SetRequestTimeout(timeout)
					va, err := client.Kernel.Mmap(n, "caller")
					if err != nil {
						t.Error(err)
						return
					}
					src := core.Of(core.KernelSeg(client.Kernel, va, n))
					names := func(prefix string) []*Req {
						var reqs []*Req
						for i := 0; i < 8; i++ {
							reqs = append(reqs, &Req{Op: OpLookup, Ino: 1, Name: fmt.Sprintf("%s-%02d", prefix, i)})
						}
						return reqs
					}
					// issue sends the request of the given round and waits
					// it out: it must time out, the server being silent.
					issue := func(round int, fill byte) {
						var err error
						if shape == "write" {
							client.Kernel.WriteBytes(va, bytes.Repeat([]byte{fill}, n))
							_, err = sess.Write(p, 7, int64(round*n), src)
						} else {
							_, err = sess.MetaBatch(p, names(fmt.Sprintf("round%d-name", round)))
						}
						if !fabric.IsFault(err) {
							t.Errorf("round %d against a silent server = %v, want a timeout", round, err)
						}
					}
					client.NIC.StallFor(stall)
					issue(0, 'A')
					issue(1, 'B')
					done = true
				})
				env.Run(0)
				if !done {
					t.Fatal("the client never finished")
				}
				if firstReq == nil {
					return // nothing at all reached the server: allowed
				}
				req, consumed, err := DecodeReq(firstReq)
				if err != nil {
					t.Fatalf("the first request message does not decode: %v", err)
				}
				if req.Seq != 1 {
					t.Errorf("the first request message carried request %d, want 1", req.Seq)
				}
				if shape == "batch" {
					if want := "round0-name-00"; req.Name != want {
						t.Errorf("the first batch opened with %q, want %q", req.Name, want)
					}
					return
				}
				payload := firstReq[consumed:]
				if transport == "gm" {
					payload = firstPay // a payload always travels alone on GM
				}
				if req.Off != 0 || len(payload) != n || !bytes.Equal(payload, bytes.Repeat([]byte{'A'}, n)) {
					t.Errorf("the first write arrived at offset %d with a %d-byte payload that is not the one it was sent with", req.Off, len(payload))
				}
			})
		}
	}
}

// TestFailedPayloadSendKeepsTheRequestsStaging: a write whose payload
// travels alone puts its request on the wire first; when the payload's
// send then fails (here: the caller's memory is not mapped), issue
// returns an error for a request that has already left. The client's
// NIC is stalled, so that request is still queued — a medium message
// on MX, any message on GM, which the NIC gathers from the slot's
// request buffer at DMA time. The slot is reused at once for a
// different request, and only then does the stall end. The silent
// server must receive the first request's bytes intact: issue hands
// the slot back only once the send that gathers from it is done
// (settle). Without that the first message left with the second
// request in it.
func TestFailedPayloadSendKeepsTheRequestsStaging(t *testing.T) {
	const (
		timeout = 100 * time.Microsecond
		stall   = 50 * time.Microsecond // within settle's deadline
		n       = 64 << 10              // a separate payload on both transports
	)
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			env := sim.NewEngine()
			c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
			sink, client := c.AddNode("sink"), c.AddNode("client")
			var srv fabric.Transport
			var err error
			if transport == "mx" {
				srv, err = fabric.NewMX(mx.Attach(sink), 1, true)
			} else {
				srv, err = fabric.NewGM(gm.Attach(sink), 1, true)
			}
			if err != nil {
				t.Fatal(err)
			}
			var firstReq []byte
			env.Spawn("sink", func(p *sim.Proc) {
				buf, err := fabric.PoolOf(sink).Get(reqBufSize)
				if err != nil {
					t.Error(err)
					return
				}
				op, err := srv.PostRecv(p, core.Exact(reqTag), buf.PhysVec(buf.Size()))
				if err != nil {
					t.Error(err)
					return
				}
				st := op.Wait(p)
				firstReq, _ = sink.Kernel.ReadBytes(buf.VA(), st.Len)
			})
			// Names long enough that the request is a medium message on MX.
			first, second := strings.Repeat("1", 200), strings.Repeat("2", 200)
			done := false
			env.Spawn("client", func(p *sim.Proc) {
				var fc *FabricClient
				if transport == "mx" {
					fc, err = NewMXClient(mx.Attach(client), 2, true, client.Kernel, sink.ID, 1)
				} else {
					fc, err = NewGMClient(p, gm.Attach(client), 2, true, client.Kernel, sink.ID, 1, 1024)
				}
				if err != nil {
					t.Error(err)
					return
				}
				fc.SetRequestTimeout(timeout)
				unmapped := core.Of(core.KernelSeg(client.Kernel, 1<<40, n))
				client.NIC.StallFor(stall)
				req := &Req{Op: OpWrite, Ino: 7, Len: n, Name: first}
				if _, err := fc.issue(p, &fc.ctl, req, unmapped); err == nil || fabric.IsFault(err) {
					t.Errorf("a write from unmapped memory issued with %v, want a local error", err)
				}
				fl, err := fc.issue(p, &fc.ctl, &Req{Op: OpLookup, Ino: 1, Name: second}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := fc.retireOne(p, &fl, new(Resp)); !fabric.IsFault(err) {
					t.Errorf("a lookup against a silent server = %v, want a timeout", err)
				}
				done = true
			})
			env.Run(0)
			if !done {
				t.Fatal("the client never finished")
			}
			req, _, err := DecodeReq(firstReq)
			if err != nil {
				t.Fatalf("the first request message does not decode: %v", err)
			}
			if req.Seq != 1 || req.Op != OpWrite || req.Name != first {
				t.Errorf("the first request message carried request %d (op %v), not the write that left first", req.Seq, req.Op)
			}
		})
	}
}

// sendLog is a client transport that keeps a record of every send made
// through it (LogOp) and, when onSend is set, calls it before each with
// the number made.
type sendLog struct {
	fabric.Transport
	sent   []*OpRecord
	onSend func(i int)
}

func (l *sendLog) Send(p *sim.Proc, dst hw.NodeID, ep uint8, info uint64, v core.Vector) (fabric.Op, error) {
	if l.onSend != nil {
		l.onSend(len(l.sent))
	}
	op, err := l.Transport.Send(p, dst, ep, info, v)
	if err != nil {
		return op, err
	}
	op, rec := LogOp(op)
	l.sent = append(l.sent, rec)
	return op, nil
}

// TestFailedPieceSendSettlesThePiecesThatLeft: a 64 KB write from
// kernel memory on MX sends its payload behind the request in two eager
// pieces, which the NIC gathers from the caller's memory when it
// reaches them. The client's NIC is stalled, so the request and the
// first piece are still queued when the server's NIC dies and the
// second piece's send fails: issue returns an error for a write whose
// first piece has not left yet. The caller's memory goes back only once
// every send that gathers from it is done (settle), so when issue
// returns, each send it made is done — and the server, revived while
// the stall lasts and the caller's buffer refilled at once, receives
// the first piece as it was sent or not at all. Without that, the first
// piece left with the refilled bytes.
func TestFailedPieceSendSettlesThePiecesThatLeft(t *testing.T) {
	const (
		timeout = 500 * time.Microsecond // settle's deadline: the stall and a piece's send
		stall   = 50 * time.Microsecond
		n       = 64 << 10 // two eager pieces on MX
	)
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	sink, client := c.AddNode("sink"), c.AddNode("client")
	srv, err := fabric.NewMX(mx.Attach(sink), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var firstPiece []byte
	env.Spawn("sink", func(p *sim.Proc) {
		buf, err := fabric.PoolOf(sink).Get(n)
		if err != nil {
			t.Error(err)
			return
		}
		op, err := srv.PostRecv(p, core.Exact(payloadTag(client.ID, 1, 2)), buf.PhysVec(buf.Size()))
		if err != nil {
			t.Error(err)
			return
		}
		st := op.Wait(p)
		firstPiece, _ = sink.Kernel.ReadBytes(buf.VA(), st.Len)
	})
	done := false
	env.Spawn("client", func(p *sim.Proc) {
		mt, err := fabric.NewMX(mx.Attach(client), 2, true)
		if err != nil {
			t.Error(err)
			return
		}
		log := &sendLog{Transport: mt}
		fc, err := NewFabricClient(nil, log, true, client.Kernel, sink.ID, 1, 2)
		if err != nil {
			t.Error(err)
			return
		}
		fc.SetRequestTimeout(timeout)
		va, err := client.Kernel.Mmap(n, "caller")
		if err != nil {
			t.Error(err)
			return
		}
		client.Kernel.WriteBytes(va, bytes.Repeat([]byte{'A'}, n))
		log.onSend = func(i int) {
			if i == 2 { // the request and the first piece are queued
				sink.NIC.Kill()
			}
		}
		client.NIC.StallFor(stall)
		req := &Req{Op: OpWrite, Ino: 7, Len: n}
		if _, err := fc.issue(p, &fc.ctl, req, core.Of(core.KernelSeg(client.Kernel, va, n))); !fabric.IsFault(err) {
			t.Errorf("a write whose second piece's send failed = %v, want a transport fault", err)
		}
		if len(log.sent) != 2 {
			t.Errorf("issue made %d sends, want 2 (the request, the first piece)", len(log.sent))
		}
		for i, rec := range log.sent {
			if !rec.Done {
				t.Errorf("send %d still gathers from its memory after issue returned", i)
			}
		}
		sink.NIC.Revive()
		client.Kernel.WriteBytes(va, bytes.Repeat([]byte{'B'}, n))
		done = true
	})
	env.Run(0)
	if !done {
		t.Fatal("the client never finished")
	}
	if firstPiece != nil && !bytes.Equal(firstPiece, bytes.Repeat([]byte{'A'}, n/2)) {
		t.Errorf("the first piece arrived with %d bytes that are not the ones it was sent with", len(firstPiece))
	}
}
