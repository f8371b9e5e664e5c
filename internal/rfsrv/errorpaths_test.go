package rfsrv

// White-box error-path tests: these craft requests that the public
// client API now refuses at the boundary, to prove the server rejects
// them too (StInval) instead of clipping silently or panicking.

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/sim"
)

func TestServerRejectsBadRanges(t *testing.T) {
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	server := c.AddNode("server")
	client := c.AddNode("client")
	serverFS := memfs.New("backing", server, 0)
	srv := NewServer(server, serverFS)
	if _, err := srv.ServeMX(mx.Attach(server), 1, 1); err != nil {
		t.Fatal(err)
	}
	ran := false
	env.Spawn("t", func(p *sim.Proc) {
		attr, err := serverFS.Create(p, serverFS.Root(), "f")
		if err != nil {
			t.Error(err)
			return
		}
		fc, err := NewMXClient(mx.Attach(client), 2, true, client.Kernel, server.ID, 1)
		if err != nil {
			t.Error(err)
			return
		}
		// Craft raw requests below the validating client API.
		send := func(req *Req) (*Resp, error) {
			fc.seq++
			req.Seq, req.EP = fc.seq, fc.myEP
			fl := flight{bufs: &fc.ctl, seq: req.Seq}
			var err error
			if fl.hdrOp, err = fc.postHdr(p, &fc.ctl, req.Seq); err != nil {
				return nil, err
			}
			if _, err := fc.sendReq(p, &fc.ctl, req, nil); err != nil {
				return nil, err
			}
			return fc.retireOne(p, &fl, new(Resp))
		}
		cases := []struct {
			name string
			req  *Req
		}{
			{"read negative off", &Req{Op: OpRead, Ino: attr.Ino, Off: -4096, Len: 4096}},
			{"read overflowing range", &Req{Op: OpRead, Ino: attr.Ino, Off: math.MaxInt64 - 2, Len: 4096}},
			{"write negative off", &Req{Op: OpWrite, Ino: attr.Ino, Off: -1, Len: 0}},
			{"write overflowing range", &Req{Op: OpWrite, Ino: attr.Ino, Off: math.MaxInt64 - 2, Len: 4096}},
			{"truncate negative size", &Req{Op: OpTruncate, Ino: attr.Ino, Off: -1}},
		}
		for _, tc := range cases {
			resp, err := send(tc.req)
			if err != ErrInval {
				t.Errorf("%s: err = %v, want ErrInval", tc.name, err)
			}
			if resp == nil || resp.Status != StInval {
				t.Errorf("%s: resp = %+v, want status StInval", tc.name, resp)
			}
		}
		// The server must still be healthy afterwards.
		if resp, err := send(&Req{Op: OpGetattr, Ino: attr.Ino}); err != nil || resp.Attr.Ino != attr.Ino {
			t.Errorf("server unhealthy after bad ranges: %+v %v", resp, err)
		}
		ran = true
	})
	env.Run(0)
	if !ran {
		t.Fatal("test body deadlocked")
	}
	_ = kernel.ErrBadOffset
}
