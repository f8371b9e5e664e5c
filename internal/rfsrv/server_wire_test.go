package rfsrv

// White-box wire tests of the one server: a raw fabric endpoint plays a
// misbehaving client below the validating client API, on both
// transports, to pin the write-payload length rule and the membership
// stamp on error replies — and, sending a write's header and its
// separate payload at instants of its own choosing, where in time a
// write takes effect and what a client that dies between the two costs
// the server.

import (
	"bytes"
	"cmp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/sim"
)

// wireRig is one server (MX endpoint 1 and GM port 1) and one client
// node whose raw fabric endpoint speaks the protocol by hand.
type wireRig struct {
	env            *sim.Engine
	server, client *hw.Node
	fs             *memfs.FS
	srv            *Server
	transport      string // "mx" or "gm"
	t              fabric.Transport
}

func newWireRig(t *testing.T, transport string) *wireRig { return newWireRigWorkers(t, transport, 2) }

// newWireRigWorkers is newWireRig with the MX server given `workers`
// workers.
func newWireRigWorkers(t *testing.T, transport string, workers int) *wireRig {
	t.Helper()
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	r := &wireRig{env: env, server: c.AddNode("server"), transport: transport}
	r.fs = memfs.New("backing", r.server, 0)
	r.srv = NewServer(r.server, r.fs)
	var err error
	if transport == "mx" {
		_, err = r.srv.ServeMX(mx.Attach(r.server), 1, workers)
	} else {
		_, err = r.srv.ServeGM(gm.Attach(r.server), 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r.peer(t, "client")
}

// peer returns the rig with a raw client of its own on a fresh node,
// speaking the server's transport.
func (r *wireRig) peer(t *testing.T, name string) *wireRig {
	t.Helper()
	nr := *r
	nr.client = r.server.Cluster.AddNode(name)
	var err error
	if r.transport == "mx" {
		nr.t, err = fabric.NewMX(mx.Attach(nr.client), 2, true)
	} else {
		nr.t, err = fabric.NewGM(gm.Attach(nr.client), 2, true)
	}
	if err != nil {
		t.Fatal(err)
	}
	return &nr
}

// run executes body in a process and fails the test on deadlock.
func (r *wireRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("test", func(p *sim.Proc) {
		body(p)
		done = true
	})
	r.env.Run(0)
	if !done {
		t.Fatal("test body deadlocked")
	}
}

// vec stages data in a fresh pooled client buffer and describes it the
// way kernel code hands its internal buffers to either transport: by
// physical address.
func (r *wireRig) vec(t *testing.T, data []byte, n int) (core.Vector, *fabric.Buffer) {
	t.Helper()
	buf, err := fabric.PoolOf(r.client).Get(max(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Kernel.WriteBytes(buf.VA(), data); err != nil {
		t.Fatal(err)
	}
	return buf.PhysVec(n), buf
}

// wireCall is one request on the wire from the raw client: its posted
// reply receive and every staging buffer it sent from.
type wireCall struct {
	r      *wireRig
	req    *Req
	hdrOp  fabric.Op
	hdr    *fabric.Buffer
	dataOp fabric.Op // a read's data receive, into data
	data   *fabric.Buffer
	ops    []fabric.Op
	bufs   []*fabric.Buffer
}

// start puts req on the wire exactly as given — seq as the caller set
// it, inline bytes behind the request head whatever the header's Len
// says — with its reply receives (a read's data, the header) posted
// first.
func (r *wireRig) start(t *testing.T, p *sim.Proc, req *Req, inline []byte) *wireCall {
	t.Helper()
	req.EP = r.t.LocalEP()
	c := &wireCall{r: r, req: req}
	var err error
	if req.Op == OpRead {
		var dataVec core.Vector
		dataVec, c.data = r.vec(t, nil, int(req.Len))
		if c.dataOp, err = r.t.PostRecv(p, core.Exact(tag(req.Seq, req.EP, kindData)), dataVec); err != nil {
			t.Fatal(err)
		}
	}
	var hdrVec core.Vector
	hdrVec, c.hdr = r.vec(t, nil, HdrBufSize)
	if c.hdrOp, err = r.t.PostRecv(p, core.Exact(tag(req.Seq, req.EP, kindHdr)), hdrVec); err != nil {
		t.Fatal(err)
	}
	c.send(t, p, reqTag, append(EncodeReqInto(nil, req), inline...))
	return c
}

// send sends data as one message tagged info from fresh staging.
func (c *wireCall) send(t *testing.T, p *sim.Proc, info uint64, data []byte) {
	t.Helper()
	v, buf := c.r.vec(t, data, len(data))
	op, err := c.r.t.Send(p, c.r.server.ID, 1, info, v)
	if err != nil {
		t.Fatal(err)
	}
	c.ops, c.bufs = append(c.ops, op), append(c.bufs, buf)
}

// payload sends data as the write's separate payload message.
func (c *wireCall) payload(t *testing.T, p *sim.Proc, data []byte) {
	t.Helper()
	c.send(t, p, payloadTag(c.r.client.ID, c.req.Seq, c.req.EP), data)
}

// wait returns the decoded reply once every send has completed and a
// read's data has landed.
func (c *wireCall) wait(t *testing.T, p *sim.Proc) *Resp {
	t.Helper()
	if c.dataOp != nil {
		c.dataOp.Wait(p)
		defer c.data.Release()
	}
	st := c.hdrOp.Wait(p)
	for _, op := range c.ops {
		op.Wait(p) // staging must be quiescent before it is released
	}
	for _, buf := range append(c.bufs, c.hdr) {
		defer buf.Release()
	}
	raw := make([]byte, st.Len)
	if err := c.r.client.Kernel.ReadBytesInto(c.hdr.VA(), raw); err != nil {
		t.Fatal(err)
	}
	resps, err := DecodeResps(raw, nil)
	if err != nil || len(resps) != 1 || resps[0].Seq != c.req.Seq {
		t.Fatalf("reply to seq %d: %+v %v", c.req.Seq, resps, err)
	}
	return resps[0]
}

// call puts req on the wire with its payload where the one payload rule
// puts a payload of the header's Len — inline behind the head, or
// following it in one message, or in the pieces the header's mark asks
// for under the piece rule: eager bytes each, whatever is left in the
// last — whatever length the payload really has, and returns the
// decoded reply.
func (r *wireRig) call(t *testing.T, p *sim.Proc, req *Req, payload []byte) *Resp {
	t.Helper()
	if !writeShaped(req.Op) || inlinePayload(r.t.Caps().EagerMax, reqFixed+len(req.Name), int(req.Len)) {
		return r.start(t, p, req, payload).wait(t, p)
	}
	c := r.start(t, p, req, nil)
	hdr, size := *req, r.t.Caps().EagerMax
	k := max(takePieces(&hdr, size), 1)
	for i := 0; i < k-1; i++ {
		c.payload(t, p, payload[min(i*size, len(payload)):min((i+1)*size, len(payload))])
	}
	c.payload(t, p, payload[min((k-1)*size, len(payload)):])
	return c.wait(t, p)
}

// fileBytes reads a file straight from the server's backing store.
func (r *wireRig) fileBytes(t *testing.T, p *sim.Proc, ino kernel.InodeID, n int) []byte {
	t.Helper()
	va, err := r.server.Kernel.Mmap(n, "check")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.ReadDirect(p, ino, 0, core.Of(core.KernelSeg(r.server.Kernel, va, n))); err != nil {
		t.Fatal(err)
	}
	got, _ := r.server.Kernel.ReadBytes(va, n)
	return got
}

// TestWritePayloadLengthRule: a write whose payload is not exactly the
// req.Len bytes the header announces — short, long, missing, oversize,
// truncated into the bounce, sent both inline and alone, or in pieces
// that do not add up — and a write-shaped request carrying the piece
// mark where the rule does not grant it (on GM, on a write one eager
// message carries or one past MaxWriteChunk, on an import) is answered
// StInval on both transports, leaves the file untouched, holds on to no
// frame, and leaves nothing behind that a later request could trip
// over.
func TestWritePayloadLengthRule(t *testing.T) {
	const size, big = 8192, 64 * 1024
	good := bytes.Repeat([]byte{0x11}, size)
	evil := bytes.Repeat([]byte{0xEE}, big+size)
	// The longest payload that still rides inline on MX: the message
	// then fills the bounce exactly, so one byte more is truncated into
	// it with the announced length still intact behind the head.
	fill := hw.DefaultParams().MXMediumMax - reqFixed
	cases := []struct {
		name            string
		op              Op // OpWrite when unset
		len             uint32
		inline, payload []byte // inline: sent behind the head as given
		mxOnly          bool
	}{
		{"short payload", 0, size, nil, evil[:100], false},
		{"long payload", 0, 100, nil, evil[:size], false},
		{"no payload", 0, size, nil, nil, false},
		{"oversize", 0, MaxWriteChunk + 1, nil, evil[:16], false},
		{"short separate payload", 0, big, nil, evil[:100], false},
		{"long separate payload", 0, big, nil, evil, false},
		// Only a vectorial transport carries a payload in the request
		// message, where it can overflow the server's bounce or come
		// twice.
		{"truncated into the bounce", 0, uint32(fill), evil[:fill+1], nil, true},
		{"inline and alone", 0, big, evil[:100], evil[:big], true},
		// Pieces (the mark outside the rule on GM, which has no eager
		// limit): the last one short, long, or the mark on requests the
		// rule never splits.
		{"last piece short", 0, piecesBit | big, nil, evil[:big-100], false},
		{"last piece long", 0, piecesBit | big, nil, evil[:big+100], false},
		{"pieces of an eager write", 0, piecesBit | size, nil, evil[:size], false},
		{"pieces past the chunk", 0, piecesBit | (MaxWriteChunk + 1), nil, evil[:16], false},
		{"pieces of an import", OpImport, piecesBit | big, nil, evil[:big], false},
	}
	for _, transport := range []string{"gm", "mx"} {
		t.Run(transport, func(t *testing.T) {
			r := newWireRig(t, transport)
			r.run(t, func(p *sim.Proc) {
				attr, err := r.fs.Create(p, r.fs.Root(), "f")
				if err != nil {
					t.Fatal(err)
				}
				seq := uint64(1)
				if resp := r.call(t, p, &Req{Op: OpWrite, Seq: seq, Ino: attr.Ino, Len: size}, good); resp.Status != StOK || resp.N != size {
					t.Fatalf("well-formed write: %+v", resp)
				}
				frames := r.server.Mem.Allocated()
				for _, tc := range cases {
					if tc.mxOnly && transport != "mx" {
						continue
					}
					// Each bad write is followed by a well-formed one under
					// the SAME seq: a payload message the server failed to
					// consume would still sit in the transport's unexpected
					// queue under that tag and be taken for this payload.
					seq++
					req := &Req{Op: cmp.Or(tc.op, OpWrite), Seq: seq, Ino: attr.Ino, Len: tc.len}
					var resp *Resp
					if tc.inline != nil {
						c := r.start(t, p, req, tc.inline)
						if tc.payload != nil {
							c.payload(t, p, tc.payload)
						}
						resp = c.wait(t, p)
					} else {
						resp = r.call(t, p, req, tc.payload)
					}
					if resp.Status != StInval {
						t.Errorf("%s: status %d, want StInval", tc.name, resp.Status)
					}
					if now := r.server.Mem.Allocated(); now != frames {
						t.Errorf("%s: the server holds %d frames, %d before", tc.name, now, frames)
					}
					if got := r.fileBytes(t, p, attr.Ino, size); !bytes.Equal(got, good) {
						t.Errorf("%s: file bytes changed (first byte %#x)", tc.name, got[0])
					}
					if resp := r.call(t, p, &Req{Op: OpWrite, Seq: seq, Ino: attr.Ino, Len: size}, good); resp.Status != StOK || resp.N != size {
						t.Errorf("%s: next well-formed write: %+v", tc.name, resp)
					}
					if got := r.fileBytes(t, p, attr.Ino, size); !bytes.Equal(got, good) {
						t.Errorf("%s: the follow-up write stored someone else's payload (first byte %#x)", tc.name, got[0])
					}
					frames = r.server.Mem.Allocated() // fileBytes maps its own
				}
				if resp := r.call(t, p, &Req{Op: OpGetattr, Seq: seq + 1, Ino: attr.Ino}, nil); resp.Status != StOK || resp.Attr.Size != size {
					t.Errorf("getattr after the bad writes: %+v", resp)
				}
			})
			for _, node := range []*hw.Node{r.server, r.client} {
				if err := fabric.PoolOf(node).CheckLeaks(); err != nil {
					t.Errorf("%s pool: %v", node.Name, err)
				}
			}
			if n := r.srv.RepliesInFlight(); n != 0 {
				t.Errorf("%d reply staging buffers outstanding", n)
			}
		})
	}
}

// TestErrorRepliesCarryMembership: a server committed to membership
// epoch 5 stamps it on the replies wrong routing tends to draw — an
// unknown-inode sharded read, a negative-offset read, a bad-range write
// — and a Cluster whose view is still at epoch 0 that observes any of
// them poisons itself.
func TestErrorRepliesCarryMembership(t *testing.T) {
	for _, transport := range []string{"gm", "mx"} {
		t.Run(transport, func(t *testing.T) {
			r := newWireRig(t, transport)
			if err := r.srv.EnableSharding(0, 2, 1); err != nil {
				t.Fatal(err)
			}
			r.run(t, func(p *sim.Proc) {
				if resp := r.call(t, p, &Req{Op: OpMember, Seq: 1, Off: 5, Len: PackMember(0, 2, 1, false)}, nil); resp.Status != StOK {
					t.Fatalf("member commit: %+v", resp)
				}
				attr, err := r.fs.Create(p, r.fs.Root(), "f")
				if err != nil {
					t.Fatal(err)
				}
				cases := []struct {
					name   string
					req    *Req
					status int32
				}{
					{"unknown-inode sharded read", &Req{Op: OpRead, Ino: 9999, Len: 4096}, StOK},
					{"negative-offset read", &Req{Op: OpRead, Ino: attr.Ino, Off: -4096, Len: 4096}, StInval},
					{"bad-range write", &Req{Op: OpWrite, Ino: attr.Ino, Off: -1}, StInval},
					{"getattr of an unknown inode", &Req{Op: OpGetattr, Ino: 9999}, StNotFound},
				}
				for i, tc := range cases {
					tc.req.Seq = uint64(2 + i)
					resp := r.call(t, p, tc.req, nil)
					if resp.Status != tc.status || resp.MemberEpoch != 5 {
						t.Errorf("%s: status %d (want %d), member epoch %d (want 5)", tc.name, resp.Status, tc.status, resp.MemberEpoch)
					}
					cl := &Cluster{view: &MemberView{}}
					cl.observeResp(resp)
					if err := cl.enterOp(p, false); err != ErrStaleMembership {
						t.Errorf("%s: a cluster at epoch 0 that saw the reply enters with %v, want ErrStaleMembership", tc.name, err)
					}
				}
			})
		})
	}
}

// warmUp shows the MX server concurrency — a getattr arriving while an
// inline 16 KB write is still being copied in (at an unaligned offset:
// an aligned one would be flipped in at once) — so that every receiver
// posts (Serve parks receivers 2…N until a request finds another inside
// the server).
func (r *wireRig) warmUp(t *testing.T, p *sim.Proc, seq uint64) {
	t.Helper()
	const n = 16 * 1024
	attr, err := r.fs.Create(p, r.fs.Root(), "warm-up")
	if err != nil {
		t.Fatal(err)
	}
	a := r.start(t, p, &Req{Op: OpWrite, Seq: seq, Ino: attr.Ino, Off: 1, Len: n}, make([]byte, n))
	b := r.start(t, p, &Req{Op: OpGetattr, Seq: seq + 1, Ino: attr.Ino}, nil)
	a.wait(t, p)
	b.wait(t, p)
	if cs := r.srv.session(r.client.ID, r.t.LocalEP()); cs.MaxOutstanding < 2 {
		t.Fatalf("warm-up reached a server depth of %d, want 2", cs.MaxOutstanding)
	}
	p.Sleep(100 * time.Microsecond) // the woken receivers post
}

// TestInstallIsTheWritesInstant: a write whose payload travels alone
// takes effect when it is installed, not when its header is received.
// Between the two, a read of the range a 64 KB extending write covers
// clips at the file's old size, and a truncate to 0 is served and
// answered; the install then lays the write's bytes down and moves the
// size to the write's end, over the truncate. MX only: a GM server's one
// process receives the payload before it serves anything else.
func TestInstallIsTheWritesInstant(t *testing.T) {
	const old, size = 8192, 64 * 1024
	r := newWireRig(t, "mx")
	payload := bytes.Repeat([]byte{0x5A, 0xC3, 0x17, 0x88}, size/4)
	var attr kernel.Attr
	r.run(t, func(p *sim.Proc) {
		var err error
		if attr, err = r.fs.Create(p, r.fs.Root(), "f"); err != nil {
			t.Fatal(err)
		}
		if resp := r.call(t, p, &Req{Op: OpWrite, Seq: 1, Ino: attr.Ino, Len: old}, bytes.Repeat([]byte{0x11}, old)); resp.Status != StOK {
			t.Fatalf("seed write: %+v", resp)
		}
		r.warmUp(t, p, 2)
		write := r.start(t, p, &Req{Op: OpWrite, Seq: 4, Ino: attr.Ino, Off: old, Len: size}, nil)
		for r.srv.inside == 0 { // the header is in; its payload is not sent yet
			p.Sleep(100 * time.Nanosecond)
		}
		if resp := r.start(t, p, &Req{Op: OpRead, Seq: 5, Ino: attr.Ino, Len: old + size}, nil).wait(t, p); resp.Status != StOK || resp.N != old {
			t.Errorf("read before the install: %+v, want %d bytes (the old size)", resp, old)
		}
		if resp := r.call(t, p, &Req{Op: OpTruncate, Seq: 6, Ino: attr.Ino, Off: 0}, nil); resp.Status != StOK || resp.Attr.Size != 0 {
			t.Errorf("truncate before the install: %+v", resp)
		}
		write.payload(t, p, payload)
		if resp := write.wait(t, p); resp.Status != StOK || resp.N != size || resp.Attr.Size != old+size {
			t.Errorf("write: %+v, want %d bytes and size %d", resp, size, old+size)
		}
	})
	want := append(make([]byte, old), payload...) // the truncate zeroed what the write does not cover
	if got, _ := r.fs.ContentOf(attr.Ino); !bytes.Equal(got, want) {
		t.Errorf("file holds %d bytes, not the truncate's zeros and then the write's bytes", len(got))
	}
}

// TestDeadClientBetweenHeaderAndPayload: a client whose NIC dies after
// the server received a write's header and before its payload strands
// that write — its payload receive stays posted into its fresh frames,
// and the write counts as inside the server — but parks no receiver:
// the receiver that decoded the header posted the payload's receive and
// went straight back to receiving requests. workers + 1 such writes
// (enough to wedge a server whose receivers each waited for the payload
// of the header they took) leave the MX server answering another
// client, at depth, on every receiver. (The server has no deadline of
// its own yet, so the stranded writes keep their frames; a GM server's
// single process would be wedged whole.)
func TestDeadClientBetweenHeaderAndPayload(t *testing.T) {
	const size, workers = 64 * 1024, 4
	r := newWireRigWorkers(t, "mx", workers)
	other := r.peer(t, "other")
	finished := 0
	r.run(t, func(p *sim.Proc) {
		attr, err := r.fs.Create(p, r.fs.Root(), "f")
		if err != nil {
			t.Fatal(err)
		}
		other.warmUp(t, p, 1)
		for i := 0; i <= workers; i++ {
			r.start(t, p, &Req{Op: OpWrite, Seq: uint64(1 + i), Ino: attr.Ino, Off: int64(i * size), Len: size}, nil)
		}
		for t0 := p.Now(); r.srv.inside < workers+1; p.Sleep(100 * time.Nanosecond) { // no payload is sent
			if p.Now()-t0 > time.Millisecond {
				t.Errorf("%d of the dead client's %d headers received: the receivers are parked", r.srv.inside, workers+1)
				return
			}
		}
		r.client.NIC.Kill()
		// The other client keeps three requests in the server at once,
		// writes that travel alone among them.
		for w := 0; w < 3; w++ {
			r.env.Spawn("other", func(p *sim.Proc) {
				for i := 0; i < 4; i++ {
					seq := uint64(10 + 4*w + i)
					var resp *Resp
					if i%2 == 0 {
						resp = other.call(t, p, &Req{Op: OpWrite, Seq: seq, Ino: attr.Ino, Off: int64(w * size), Len: size}, bytes.Repeat([]byte{byte(w)}, size))
					} else {
						resp = other.call(t, p, &Req{Op: OpRead, Seq: seq, Ino: attr.Ino, Off: int64(w * size), Len: size}, nil)
					}
					if resp.Status != StOK || resp.N != size {
						t.Errorf("other client, seq %d: %+v", seq, resp)
					}
				}
				finished++
			})
		}
	})
	if finished != 3 {
		t.Fatalf("%d of the other client's 3 streams finished", finished)
	}
	if r.srv.inside != workers+1 {
		t.Errorf("%d requests inside the server, want %d (the dead client's stranded writes)", r.srv.inside, workers+1)
	}
	if cs := r.srv.session(other.client.ID, other.t.LocalEP()); cs.Outstanding != 0 || cs.MaxOutstanding < 3 {
		t.Errorf("other client: %d outstanding, depth %d; want 0 and at least 3", cs.Outstanding, cs.MaxOutstanding)
	}
	if cs := r.srv.session(r.client.ID, r.t.LocalEP()); cs.Outstanding != workers+1 {
		t.Errorf("dead client: %d requests outstanding, want its %d writes", cs.Outstanding, workers+1)
	}
}

// payloadWatch is a server's MX transport that keeps a record of every
// payload receive the server posts (any receive but a request's; LogOp),
// so a test can tell which payloads are still in flight.
type payloadWatch struct {
	*fabric.MXTransport
	posted []*OpRecord
}

func (w *payloadWatch) PostRecv(p *sim.Proc, m core.Match, v core.Vector) (fabric.Op, error) {
	op, err := w.MXTransport.PostRecv(p, m, v)
	if err != nil || m == core.Exact(reqTag) {
		return op, err
	}
	op, rec := LogOp(op)
	w.posted = append(w.posted, rec)
	return op, nil
}

// inFlight returns the records of the posted payload receives that have
// not completed.
func (w *payloadWatch) inFlight() []*OpRecord {
	var out []*OpRecord
	for _, rec := range w.posted {
		if !rec.Done {
			out = append(out, rec)
		}
	}
	return out
}

// TestControlRequestsPassPayloadsInFlight: a 4-worker MX server takes a
// client streaming 256 KB writes at window 4, each payload a rendezvous
// of its own. Another client's OpGetattr and grow OpSetSize, each
// issued mid-stream while a write's payload is in flight, must be
// received and answered before any payload in flight at its issue has
// landed: the receiver that took a write's header is back at its
// request receive at once. (While a receiver waited for its write's
// payload, a single writer never had two requests received at once, so
// the one posted receive spent the stream parked on payloads and the
// control request waited unexpected until one landed.)
func TestControlRequestsPassPayloadsInFlight(t *testing.T) {
	const chunk, window, workers, writes = MaxWriteChunk, 4, 4, 16
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	server := c.AddNode("server")
	fs := memfs.New("backing", server, 0)
	srv := NewServer(server, fs)
	mt, err := fabric.NewMX(mx.Attach(server), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	watch := &payloadWatch{MXTransport: mt}
	if err := srv.Serve(watch, workers); err != nil {
		t.Fatal(err)
	}
	session := func(p *sim.Proc, name string, window int) (*Session, *hw.Node, error) {
		node := c.AddNode(name)
		fc, err := NewMXClient(mx.Attach(node), 2, true, node.Kernel, server.ID, 1)
		if err != nil {
			return nil, nil, err
		}
		sess, err := NewSession(p, fc, window)
		return sess, node, err
	}
	streamed, checked := 0, 0
	env.Spawn("test", func(p *sim.Proc) {
		attr, err := fs.Create(p, fs.Root(), "f")
		if err != nil {
			t.Error(err)
			return
		}
		writer, wnode, err := session(p, "writer", window)
		if err != nil {
			t.Error(err)
			return
		}
		meta, _, err := session(p, "meta", 1)
		if err != nil {
			t.Error(err)
			return
		}
		va, err := wnode.Kernel.Mmap(chunk, "src")
		if err != nil {
			t.Error(err)
			return
		}
		src := core.Of(core.KernelSeg(wnode.Kernel, va, chunk))
		env.Spawn("writer", func(p *sim.Proc) {
			var ring [window]PendingOp
			for i := 0; i < writes+window; i++ {
				if pd := ring[i%window]; pd != nil {
					if resp, err := pd.Wait(p); err != nil || resp.Status != StOK || resp.N != chunk {
						t.Errorf("streamed write %d: %+v %v", i-window, resp, err)
					}
					streamed++
				}
				if ring[i%window] = nil; i < writes {
					pd, err := writer.StartWrite(p, attr.Ino, int64(i)*chunk, src)
					if err != nil {
						t.Error(err)
						return
					}
					ring[i%window] = pd
				}
			}
		})
		for i, req := range []*Req{
			{Op: OpGetattr, Ino: attr.Ino},
			{Op: OpSetSize, Ino: attr.Ino, Off: writes * chunk, Len: PackSetSize(false, 0)},
		} {
			// Mid-stream: a few writes done, a payload on the wire.
			for streamed < 4*(i+1) || len(watch.inFlight()) == 0 {
				if streamed == writes {
					t.Errorf("the stream ended before %v could be issued", req.Op)
					return
				}
				p.Sleep(time.Microsecond)
			}
			pending := watch.inFlight()
			resp, err := meta.Meta(p, req)
			if err != nil || resp.Status != StOK {
				t.Errorf("%v mid-stream: %+v %v", req.Op, resp, err)
			}
			for _, rec := range pending {
				if rec.Done {
					t.Errorf("%v was answered only after a payload in flight at its issue had landed", req.Op)
					break
				}
			}
			checked++
		}
	})
	env.Run(0)
	if streamed != writes || checked != 2 {
		t.Fatalf("streamed %d of %d writes, checked %d of 2 control requests", streamed, writes, checked)
	}
}
