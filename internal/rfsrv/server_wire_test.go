package rfsrv

// White-box wire tests of the one server: a raw fabric endpoint plays a
// misbehaving client below the validating client API, on both
// transports, to pin the write-payload length rule and the membership
// stamp on error replies.

import (
	"bytes"
	"testing"

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
	t              fabric.Transport
}

func newWireRig(t *testing.T, transport string) *wireRig {
	t.Helper()
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	r := &wireRig{env: env, server: c.AddNode("server"), client: c.AddNode("client")}
	r.fs = memfs.New("backing", r.server, 0)
	r.srv = NewServer(r.server, r.fs)
	var err error
	if transport == "mx" {
		if _, err = r.srv.ServeMX(mx.Attach(r.server), 1, 2); err == nil {
			r.t, err = fabric.NewMX(mx.Attach(r.client), 2, true)
		}
	} else {
		if _, err = r.srv.ServeGM(gm.Attach(r.server), 1); err == nil {
			r.t, err = fabric.NewGM(gm.Attach(r.client), 2, true)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
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
// way the transport wants internal buffers addressed.
func (r *wireRig) vec(t *testing.T, data []byte, n int) (core.Vector, *fabric.Buffer) {
	t.Helper()
	buf, err := fabric.PoolOf(r.client).Get(max(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Kernel.WriteBytes(buf.VA(), data); err != nil {
		t.Fatal(err)
	}
	return ctlVec(nil, !r.t.Caps().Vectors, core.KernelSeg(r.client.Kernel, buf.VA(), n), buf.Extents(buf.Size()), n), buf
}

// call puts req on the wire exactly as given — seq as the caller set
// it, payload whatever length the caller chose, inline behind the
// request on a vectorial transport and as the second tagged message
// otherwise — and returns the decoded reply.
func (r *wireRig) call(t *testing.T, p *sim.Proc, req *Req, payload []byte) *Resp {
	t.Helper()
	req.EP = r.t.LocalEP()
	hdrVec, hdrBuf := r.vec(t, nil, HdrBufSize)
	defer hdrBuf.Release()
	hdrOp, err := r.t.PostRecv(p, core.Exact(tag(req.Seq, req.EP, kindHdr)), hdrVec)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeReqInto(nil, req)
	if r.t.Caps().Vectors {
		enc = append(enc, payload...)
		payload = nil
	}
	reqVec, reqBuf := r.vec(t, enc, len(enc))
	defer reqBuf.Release()
	reqOp, err := r.t.Send(p, r.server.ID, 1, reqTag, reqVec)
	if err != nil {
		t.Fatal(err)
	}
	ops := []fabric.Op{reqOp}
	if req.Op == OpWrite && !r.t.Caps().Vectors {
		dataVec, dataBuf := r.vec(t, payload, len(payload))
		defer dataBuf.Release()
		dataOp, err := r.t.Send(p, r.server.ID, 1, tag(req.Seq, req.EP, kindData), dataVec)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, dataOp)
	}
	st := hdrOp.Wait(p)
	for _, op := range ops {
		op.Wait(p) // staging must be quiescent before it is released
	}
	raw := make([]byte, st.Len)
	if err := r.client.Kernel.ReadBytesInto(hdrBuf.VA(), raw); err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResp(raw)
	if err != nil || resp.Seq != req.Seq {
		t.Fatalf("reply to seq %d: %+v %v", req.Seq, resp, err)
	}
	return resp
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
// req.Len bytes the header announces — short, long, oversize, or
// truncated into the bounce — is answered StInval on both transports,
// leaves the file untouched, and leaves nothing behind that a later
// request could trip over.
func TestWritePayloadLengthRule(t *testing.T) {
	const size = 8192
	good := bytes.Repeat([]byte{0x11}, size)
	evil := bytes.Repeat([]byte{0xEE}, size)
	cases := []struct {
		name    string
		len     uint32
		payload []byte
		mxOnly  bool
	}{
		{"short payload", size, evil[:100], false},
		{"long payload", 100, evil, false},
		{"no payload", size, nil, false},
		{"oversize", MaxWriteChunk + 1, evil[:16], false},
		// Only a vectorial transport carries the payload in the request
		// message, where it can overflow the server's bounce buffer.
		{"truncated into the bounce", MaxWriteChunk, bytes.Repeat([]byte{0xEE}, MaxWriteChunk+HdrBufSize), true},
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
				for _, tc := range cases {
					if tc.mxOnly && transport != "mx" {
						continue
					}
					// Each bad write is followed by a well-formed one under
					// the SAME seq: a data message the server failed to
					// consume would still sit in the transport's unexpected
					// queue under that tag and be taken for this payload.
					seq++
					if resp := r.call(t, p, &Req{Op: OpWrite, Seq: seq, Ino: attr.Ino, Len: tc.len}, tc.payload); resp.Status != StInval {
						t.Errorf("%s: status %d, want StInval", tc.name, resp.Status)
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
// — and a viewless Cluster that observes any of them poisons itself.
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
					cl := &Cluster{}
					cl.observeResp(resp)
					if err := cl.enterOp(p, false); err != ErrStaleMembership {
						t.Errorf("%s: a viewless cluster that saw the reply enters with %v, want ErrStaleMembership", tc.name, err)
					}
				}
			})
		})
	}
}
