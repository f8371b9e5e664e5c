package rfsrv

// White-box tests of the combined reply: the answers to every request
// one message carried come back in one reply message, into the one
// header receive a MetaBatch posts, and a reply that carries too few
// answers, or an answer under the wrong sequence number, fails the
// batch instead of hanging it.

import (
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

// replyWatch is a transport that counts the reply headers sent and the
// reply-header receives posted through it. tamper, when set, rewrites
// the bytes of every reply header before it leaves; it may shorten
// them.
type replyWatch struct {
	fabric.Transport
	sends, posts int
	tamper       func(raw []byte) []byte
}

func (w *replyWatch) Send(p *sim.Proc, dst hw.NodeID, ep uint8, info uint64, v core.Vector) (fabric.Op, error) {
	if info&0xf == kindHdr {
		w.sends++
		if w.tamper != nil {
			xs, err := v.Extents()
			if err != nil {
				return nil, err
			}
			m := w.Node().Mem
			raw := w.tamper(m.Gather(xs))
			m.Scatter(xs, raw)
			v = slicePhys(nil, v, 0, len(raw))
		}
	}
	return w.Transport.Send(p, dst, ep, info, v)
}

func (w *replyWatch) PostRecv(p *sim.Proc, m core.Match, v core.Vector) (fabric.Op, error) {
	if m.Bits&0xf == kindHdr {
		w.posts++
	}
	return w.Transport.PostRecv(p, m, v)
}

// replyRig is one server and one kernel-side client session of window
// 8, each over a replyWatch of the named transport.
type replyRig struct {
	env        *sim.Engine
	fs         *memfs.FS
	srv        *Server
	srvT, cliT *replyWatch
}

func newReplyRig(t *testing.T, transport string) *replyRig {
	t.Helper()
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	server, client := c.AddNode("server"), c.AddNode("client")
	r := &replyRig{env: env, fs: memfs.New("backing", server, 0)}
	r.srv = NewServer(server, r.fs)
	var st, ct fabric.Transport
	var err error
	workers := 2
	if transport == "mx" {
		if st, err = fabric.NewMX(mx.Attach(server), 1, true); err == nil {
			ct, err = fabric.NewMX(mx.Attach(client), 2, true)
		}
	} else {
		workers = 1
		if st, err = fabric.NewGM(gm.Attach(server), 1, true); err == nil {
			ct, err = fabric.NewGM(gm.Attach(client), 2, true)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	r.srvT, r.cliT = &replyWatch{Transport: st}, &replyWatch{Transport: ct}
	if err := r.srv.Serve(r.srvT, workers); err != nil {
		t.Fatal(err)
	}
	return r
}

// run gives body a fresh session and fails the test if body never
// returns: a batch that hangs on its reply.
func (r *replyRig) run(t *testing.T, body func(p *sim.Proc, sess *Session)) {
	t.Helper()
	done := false
	r.env.Spawn("test", func(p *sim.Proc) {
		fc, err := NewFabricClient(p, r.cliT, true, r.cliT.Node().Kernel, r.srvT.Node().ID, 1, 2)
		if err != nil {
			t.Error(err)
			return
		}
		sess, err := NewSession(p, fc, 8)
		if err != nil {
			t.Error(err)
			return
		}
		body(p, sess)
		if sess.InFlight() != 0 {
			t.Errorf("%d window slots still held after the batch", sess.InFlight())
		}
		done = true
	})
	r.env.Run(0)
	if !done {
		t.Fatal("the batch hung")
	}
}

// getattrs returns k getattrs of ino.
func getattrs(k int, ino kernel.InodeID) []*Req {
	reqs := make([]*Req, k)
	for i := range reqs {
		reqs[i] = &Req{Op: OpGetattr, Ino: ino}
	}
	return reqs
}

// TestBatchTakesOneReply: a MetaBatch of k getattrs to one server, all
// in one window, is one request message and gets exactly one reply
// message, into the one header receive the batch posted — and every
// answer is the right one.
func TestBatchTakesOneReply(t *testing.T) {
	const k = 8
	for _, transport := range []string{"gm", "mx"} {
		t.Run(transport, func(t *testing.T) {
			r := newReplyRig(t, transport)
			r.run(t, func(p *sim.Proc, sess *Session) {
				attr, err := r.fs.Create(p, r.fs.Root(), "f")
				if err != nil {
					t.Fatal(err)
				}
				r.fs.Truncate(p, attr.Ino, 12345)
				resps, err := sess.MetaBatch(p, getattrs(k, attr.Ino))
				if err != nil || len(resps) != k {
					t.Fatalf("batch: %d answers, %v", len(resps), err)
				}
				for i, resp := range resps {
					if resp.Attr.Ino != attr.Ino || resp.Attr.Size != 12345 {
						t.Errorf("answer %d: %+v", i, resp.Attr)
					}
				}
				if r.srvT.sends != 1 || r.cliT.posts != 1 {
					t.Errorf("%d reply messages, %d header receives posted; want one of each", r.srvT.sends, r.cliT.posts)
				}
				if r.srv.Batched.N != k-1 {
					t.Errorf("server answered %d packed requests, want %d", r.srv.Batched.N, k-1)
				}
			})
		})
	}
}

// TestBatchRefusesABadReply: a combined reply that drops its last
// answer, or carries two answers in each other's place, fails the batch
// with an error — promptly, with every window slot back — and the next
// batch over the same session is answered right.
func TestBatchRefusesABadReply(t *testing.T) {
	tampers := []struct {
		name   string
		tamper func(raw []byte) []byte
	}{
		{"an answer short", func(raw []byte) []byte { return raw[:len(raw)-respFixed] }},
		{"answers swapped", func(raw []byte) []byte {
			a := append([]byte(nil), raw[respFixed:2*respFixed]...)
			copy(raw[respFixed:], raw[2*respFixed:3*respFixed])
			copy(raw[2*respFixed:], a)
			return raw
		}},
	}
	for _, transport := range []string{"gm", "mx"} {
		for _, tc := range tampers {
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				r := newReplyRig(t, transport)
				r.run(t, func(p *sim.Proc, sess *Session) {
					attr, err := r.fs.Create(p, r.fs.Root(), "f")
					if err != nil {
						t.Fatal(err)
					}
					r.srvT.tamper = tc.tamper
					if resps, err := sess.MetaBatch(p, getattrs(4, attr.Ino)); err == nil || len(resps) != 0 {
						t.Errorf("a bad reply gave %d answers, %v; want none and an error", len(resps), err)
					}
					r.srvT.tamper = nil
					if resps, err := sess.MetaBatch(p, getattrs(4, attr.Ino)); err != nil || len(resps) != 4 {
						t.Errorf("the next batch: %d answers, %v", len(resps), err)
					}
				})
			})
		}
	}
}
