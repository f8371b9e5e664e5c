package rfsrv_test

// The reply-lifetime rule (DESIGN.md §1): a reply is a record owned by
// its request, not an object per message. A synchronous verb's reply
// stays valid until the calling process next calls that client, parks
// included; a Start* reply stays valid for as long as the caller holds
// its pending, whatever the client does meanwhile.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	platform "repro/internal/rig"
	"repro/internal/sim"
)

// checkReply fails the test unless resp is the answer to a read of n
// bytes of inode ino.
func checkReply(t *testing.T, what string, resp *rfsrv.Resp, ino kernel.InodeID, n int) {
	t.Helper()
	if resp == nil || resp.Status != rfsrv.StOK || resp.Attr.Ino != ino || int(resp.N) != n {
		t.Fatalf("%s: reply %+v, want %d bytes of inode %d", what, resp, n, ino)
	}
}

// TestKeptReplySurvivesSlotReuse keeps a StartRead's pending and reply
// while the window-1 session's one slot carries three more requests —
// a synchronous read, a synchronous getattr and another StartRead, all
// of another file — and requires the kept reply and a second Wait to
// still answer the first read.
func TestKeptReplySurvivesSlotReuse(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		small, large := r.seed(t, p, "small", pattern(100)), r.seed(t, p, "large", pattern(3*mem.PageSize))
		s := r.mxKernelClient(t)
		dst := kvec(t, r, 2*mem.PageSize)
		pd, err := s.StartRead(p, small, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := pd.Wait(p)
		if err != nil {
			t.Fatal(err)
		}
		checkReply(t, "the kept read", kept, small, 100)
		if _, err := s.Read(p, large, 0, dst); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: large}); err != nil {
			t.Fatal(err)
		}
		other, err := s.StartRead(p, large, mem.PageSize, dst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.Wait(p); err != nil {
			t.Fatal(err)
		}
		checkReply(t, "the kept read after its slot carried three more requests", kept, small, 100)
		again, err := pd.Wait(p)
		if err != nil || again != kept {
			t.Fatalf("a second Wait returned %p (%v), want the kept reply %p", again, err, kept)
		}
	})
}

// TestSyncReplyIntactUntilNextCall reads a file synchronously through a
// window-1 session and parks while a second client of the same node
// and server reads another file: the reply must still answer the first
// read until the session's next call.
func TestSyncReplyIntactUntilNextCall(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		small, large := r.seed(t, p, "small", pattern(100)), r.seed(t, p, "large", pattern(3*mem.PageSize))
		s := r.mxKernelClient(t)
		other, err := window1(nil)(rfsrv.NewMXClient(r.mxC, 3, true, r.client.Kernel, r.server.ID, 1))
		if err != nil {
			t.Fatal(err)
		}
		dst, otherDst := kvec(t, r, 2*mem.PageSize), kvec(t, r, 2*mem.PageSize)
		resp, err := s.Read(p, small, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		checkReply(t, "the synchronous read", resp, small, 100)
		done := sim.NewSignal(r.env)
		r.env.Spawn("other", func(q *sim.Proc) {
			for off := int64(0); off < 3*mem.PageSize; off += mem.PageSize {
				if _, err := other.Read(q, large, off, otherDst); err != nil {
					t.Error(err)
				}
			}
			done.Fire()
		})
		done.Wait(p)
		checkReply(t, "the synchronous read after a park", resp, small, 100)
		if _, err := s.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: 0, Name: "small"}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestClusterRepliesKeepTheirLifetimes is both rules on a two-server
// cluster: a StartRead's reply survives synchronous reads and lookups
// through the same cluster, and a synchronous read's reply survives a
// park during which another cluster client reads.
func TestClusterRepliesKeepTheirLifetimes(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 1, testStripe)
		node := r.client.Cluster.AddNode("other")
		other := r.clusterOn(t, p, node, 10, platform.Desc{Replicas: 1, Stripe: testStripe, Window: 1})
		small, large := clusterCreate(t, p, cl, "small"), clusterCreate(t, p, cl, "large")
		_, buf := r.kbuf(t, 3*testStripe)
		if _, err := cl.Write(p, small, 0, buf.Slice(0, 100)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(p, large, 0, buf); err != nil {
			t.Fatal(err)
		}
		pd, err := cl.StartRead(p, small, 0, buf.Slice(0, testStripe))
		if err != nil {
			t.Fatal(err)
		}
		kept, err := pd.Wait(p)
		if err != nil {
			t.Fatal(err)
		}
		checkReply(t, "the kept cluster read", kept, small, 100)
		if _, err := cl.Read(p, large, 0, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: 0, Name: "large"}); err != nil {
			t.Fatal(err)
		}
		checkReply(t, "the kept cluster read after a read and a lookup", kept, small, 100)
		resp, err := cl.Read(p, large, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		va, err := node.Kernel.Mmap(testStripe, "other-buf")
		if err != nil {
			t.Fatal(err)
		}
		obuf := core.Of(core.KernelSeg(node.Kernel, va, testStripe))
		done := sim.NewSignal(r.env)
		r.env.Spawn("other", func(q *sim.Proc) {
			if _, err := other.Read(q, small, 0, obuf); err != nil {
				t.Error(err)
			}
			done.Fire()
		})
		done.Wait(p)
		checkReply(t, "the synchronous cluster read after a park", resp, large, 3*testStripe)
	})
}

// kvec maps n kernel bytes on the rig's client as a kernel vector.
func kvec(t *testing.T, r *rig, n int) core.Vector {
	t.Helper()
	va, err := r.client.Kernel.Mmap(n, "lifetime-buf")
	if err != nil {
		t.Fatal(err)
	}
	return core.Of(core.KernelSeg(r.client.Kernel, va, n))
}
