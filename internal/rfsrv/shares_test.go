package rfsrv_test

// Tests of the cluster's one combined-batch driver (runShares) through
// its three callers — the size flush, the sharded MetaBatch and the
// unsharded one — in the style of fan_test.go: a single share is
// exactly Session.MetaBatch on the wire; a transport fault mid-run, at
// issue or at wait, excludes that server and nobody else, the other
// shares complete, and no window slot or pooled buffer leaks. Plus the
// regression test of the moot publish that used to wedge a client.

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// TestRunSharesOneShareIsSessionMetaBatch: a cluster batch whose every
// request homes to one server is that server's Session.MetaBatch —
// same flights (a window of requests per fabric send), same counters,
// same virtual time, same answers.
func TestRunSharesOneShareIsSessionMetaBatch(t *testing.T) {
	const n = 11 // window 4: three flights, the last partial
	type outcome struct {
		elapsed                  sim.Time
		flights, issued, batched int64 // on the home's session
		sizes                    []int64
	}
	measure := func(viaCluster bool) (o outcome) {
		r := newClusterRig(t, 3)
		r.run(t, func(p *sim.Proc) {
			cl := r.cluster(t, p, 4, testStripe)
			ino := clusterCreate(t, p, cl, "f")
			if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: 12345}); err != nil {
				t.Fatal(err)
			}
			home := cl.HomeServer(ino)
			s := cl.Sessions()[home]
			reqs := make([]*rfsrv.Req, n)
			for i := range reqs {
				reqs[i] = &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}
			}
			var batch rfsrv.Async = s
			if viaCluster {
				batch = cl
			}
			flights, issued, batched := s.Issued.N, s.Issued.Bytes, s.Batched.Bytes
			t0 := p.Now()
			resps, err := batch.MetaBatch(p, reqs)
			o.elapsed = p.Now() - t0
			if err != nil || len(resps) != n {
				t.Fatalf("batch: %d replies, %v", len(resps), err)
			}
			o.flights, o.issued, o.batched = s.Issued.N-flights, s.Issued.Bytes-issued, s.Batched.Bytes-batched
			for _, resp := range resps {
				o.sizes = append(o.sizes, resp.Attr.Size)
			}
			for i, other := range cl.Sessions() {
				if i != home && other.Batched.N != 0 {
					t.Errorf("server %d, not the home, saw batched requests", i)
				}
			}
			assertWindowsIdle(t, cl)
			r.checkNoLeaks(t)
		})
		return o
	}
	direct, clustered := measure(false), measure(true)
	if fmt.Sprint(direct) != fmt.Sprint(clustered) {
		t.Errorf("cluster batch of one share = %+v, want Session.MetaBatch's %+v", clustered, direct)
	}
	if direct.flights != 3 || direct.issued != n || direct.batched != n-3 {
		t.Errorf("%d flights, issued %d, batched %d; want %d requests in 3 flights", direct.flights, direct.issued, direct.batched, n)
	}
}

// TestRunSharesFaultMidRun drives each caller of the driver into a
// server that faults at issue (dead at send time) or at wait (accepts
// the flight, never answers).
func TestRunSharesFaultMidRun(t *testing.T) {
	// flush: three queued publishes flushed to three servers; the fault
	// is not an error — the survivors hold the published sizes.
	flush := func(prep fanPrep) fanScenario {
		return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
			if err := cl.SetSizePublishBatch(16); err != nil {
				t.Fatal(err)
			}
			inos := make([]kernel.InodeID, 3)
			for k := range inos {
				inos[k] = clusterCreate(t, p, cl, fmt.Sprintf("f%d", k))
				_, vec := r.kbuf(t, testStripe)
				if _, err := cl.Write(p, inos[k], int64(k)*testStripe, vec); err != nil {
					t.Fatal(err)
				}
			}
			prep(t, p, r, cl, inos[0])
			return func() error {
				err := cl.FlushSizes(p)
				if err == nil {
					for k, ino := range inos {
						sizesAre(t, p, r, cl, ino, int64(k+1)*testStripe)
					}
				}
				return err
			}
		}
	}
	// batch: one lookup per owner group (sharded), or one create fanned
	// to every server (unsharded); the fault IS the batch's error, every
	// share that could complete did, and the re-issued batch routes
	// around the excluded server.
	shardBatch := func(prep fanPrep) fanScenario {
		return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
			var reqs []*rfsrv.Req
			for res := 0; res < 3; res++ {
				dir := mkdirRes(t, p, cl, 3, res, fmt.Sprintf("d%d-", res))
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "f"}); err != nil {
					t.Fatal(err)
				}
				reqs = append(reqs, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dir, Name: "f"})
			}
			prep(t, p, r, cl, 0)
			return func() error {
				resps, err := cl.MetaBatch(p, reqs)
				if err == nil {
					return nil
				}
				for res, resp := range resps {
					if res != 1 && (resp == nil || resp.Status != rfsrv.StOK) {
						t.Errorf("owner group %d's share did not complete: %+v", res, resp)
					}
				}
				if again, rerr := cl.MetaBatch(p, reqs); rerr != nil || len(again) != 3 || again[1].Status != rfsrv.StOK {
					t.Errorf("re-issued batch: %v, %v; want it routed around the excluded server", again, rerr)
				}
				return err
			}
		}
	}
	plainBatch := func(prep fanPrep) fanScenario {
		return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
			prep(t, p, r, cl, 0)
			reqs := []*rfsrv.Req{{Op: rfsrv.OpCreate, Ino: 0, Name: "g"}}
			return func() error {
				_, err := cl.MetaBatch(p, reqs)
				if err != nil {
					// The create reached the servers before the faulty one;
					// re-issued, it finds the name taken there.
					if _, rerr := cl.MetaBatch(p, reqs); rerr == nil || len(cl.DownServers()) != 1 {
						t.Errorf("re-issued create: %v with %v excluded", rerr, cl.DownServers())
					}
				}
				return err
			}
		}
	}
	cases := []struct {
		name     string
		sharded  bool
		scenario fanScenario
		fault    bool // the operation must fail with a transport fault
		setSizes int64
	}{
		{name: "flush/fault at issue", scenario: flush(killed(1)), setSizes: 2},
		{name: "flush/fault at wait", scenario: flush(swallowing(1)), setSizes: 3},
		{name: "sharded batch/fault at issue", sharded: true, scenario: shardBatch(killed(1)), fault: true},
		{name: "sharded batch/fault at wait", sharded: true, scenario: shardBatch(swallowing(1)), fault: true},
		{name: "batch/fault at issue", scenario: plainBatch(killed(1)), fault: true},
		{name: "batch/fault at wait", scenario: plainBatch(swallowing(1)), fault: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newClusterRig(t, 3)
			if tc.sharded {
				r = newShardRig(t, 3, 2)
			}
			r.run(t, func(p *sim.Proc) {
				var cl *rfsrv.Cluster
				if tc.sharded {
					cl = r.shardClient(t, p, 2)
				} else {
					cl = r.clusterRep(t, p, 4, testStripe, 2)
				}
				drive := tc.scenario(t, p, r, cl)
				setSizes := cl.SetSizes.N
				if err := drive(); tc.fault != (err != nil && fabric.IsFault(err)) {
					t.Fatalf("operation = %v, want fault: %v", err, tc.fault)
				}
				if got := cl.SetSizes.N - setSizes; got != tc.setSizes {
					t.Errorf("SetSizes grew by %d flight(s), want %d", got, tc.setSizes)
				}
				if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
					t.Errorf("down servers = %v, want [1]", down)
				}
				assertWindowsIdle(t, cl)
				r.checkNoLeaks(t)
			})
		})
	}
}

// TestFlushMootPublishDoesNotWedge: a queued grow publish for an inode
// ANOTHER client has since unlinked is answered StNotFound by every
// server. That publish is moot — the flush drops it and proceeds —
// where it used to fail the flush before clearing the queue, so that
// every later metadata operation of this client (each starts with a
// flush), on unrelated files, failed with ErrNotFound forever.
func TestFlushMootPublishDoesNotWedge(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 1)
		if err := cl.SetSizePublishBatch(8); err != nil {
			t.Fatal(err)
		}
		doomed, other := clusterCreate(t, p, cl, "doomed"), clusterCreate(t, p, cl, "other")
		_, vec := r.kbuf(t, testStripe)
		for _, ino := range []kernel.InodeID{doomed, other} {
			if _, err := cl.Write(p, ino, testStripe, vec); err != nil { // queues a publish of 2 stripes
				t.Fatal(err)
			}
		}
		if _, err := r.observerRep(t, p, 1).Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: 0, Name: "doomed"}); err != nil {
			t.Fatalf("foreign unlink: %v", err)
		}
		for k := 0; k < 3; k++ {
			resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: other})
			if err != nil {
				t.Fatalf("getattr %d of an unrelated file: %v", k, err)
			}
			if resp.Attr.Size != 2*testStripe {
				t.Fatalf("getattr %d: size %d, want the flushed %d", k, resp.Attr.Size, 2*testStripe)
			}
		}
		sizesAre(t, p, r, cl, other, 2*testStripe)
		// The moot publish left nothing behind: the queue is empty and
		// the next flush sends nothing.
		before := cl.SetSizes.N
		if err := cl.FlushSizes(p); err != nil || cl.SetSizes.N != before {
			t.Errorf("flush after the moot publish: %v, %d more flight(s); want a no-op", err, cl.SetSizes.N-before)
		}
		if len(cl.DownServers()) != 0 {
			t.Errorf("down servers = %v, want none", cl.DownServers())
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}
