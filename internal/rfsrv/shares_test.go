package rfsrv_test

// Tests of the cluster's one combined-batch driver (runShares) through
// its one caller, MetaBatch, in both namespaces, in the style of
// fan_test.go: a single share is exactly Session.MetaBatch on the
// wire; a transport fault mid-run, at issue or at wait, excludes that
// server and nobody else, every other share completes, and no window
// slot or pooled buffer leaks.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/memfs"
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
	// sharded unlink batch: one unlink per owner group (R = 2), each
	// share spanning its group's members; the fault IS the batch's
	// error, yet every unlink reached a surviving member of its group.
	unlinkBatch := func(prep fanPrep) fanScenario {
		return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
			var reqs []*rfsrv.Req
			for res := 0; res < 3; res++ {
				dir := mkdirRes(t, p, cl, 3, res, fmt.Sprintf("u%d-", res))
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "f"}); err != nil {
					t.Fatal(err)
				}
				reqs = append(reqs, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: dir, Name: "f"})
			}
			prep(t, p, r, cl, 0)
			return func() error {
				resps, err := cl.MetaBatch(p, reqs)
				for res, resp := range resps {
					if resp == nil || resp.Status != rfsrv.StOK {
						t.Errorf("owner group %d's unlink reached no surviving member: %+v", res, resp)
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
	// replicated unlink batch: every unlink fans to the whole ring; the
	// fault IS the batch's error, yet every unlink reached a surviving
	// member, whose share completed.
	ringUnlinkBatch := func(prep fanPrep) fanScenario {
		return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
			var reqs []*rfsrv.Req
			for k := 0; k < 3; k++ {
				name := fmt.Sprintf("u%d", k)
				clusterCreate(t, p, cl, name)
				reqs = append(reqs, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: 0, Name: name})
			}
			prep(t, p, r, cl, 0)
			return func() error {
				resps, err := cl.MetaBatch(p, reqs)
				for k, resp := range resps {
					if resp == nil || resp.Status != rfsrv.StOK {
						t.Errorf("unlink %d reached no surviving member: %+v", k, resp)
					}
				}
				return err
			}
		}
	}
	// replicated lookup batch: each lookup goes to its name's hashed
	// home; the fault IS the batch's error, every lookup homed on
	// another server was answered, and the re-issued batch routes
	// around the excluded server.
	ringLookupBatch := func(prep fanPrep) fanScenario {
		return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
			var reqs []*rfsrv.Req
			var homes []int // the server each lookup homes on
			for k := 0; k < 8; k++ {
				name := fmt.Sprintf("l%d", k)
				clusterCreate(t, p, cl, name)
				req := &rfsrv.Req{Op: rfsrv.OpLookup, Ino: 0, Name: name}
				homes = append(homes, servedBy(t, r, func() {
					if _, err := cl.Meta(p, req); err != nil {
						t.Fatalf("lookup %s: %v", name, err)
					}
				}))
				reqs = append(reqs, req)
			}
			if !slices.Contains(homes, 1) || !slices.Contains(homes, 0) {
				t.Fatalf("lookup homes %v: want some on server 1 and some elsewhere", homes)
			}
			prep(t, p, r, cl, 0)
			return func() error {
				resps, err := cl.MetaBatch(p, reqs)
				if err == nil {
					return nil
				}
				for k, resp := range resps {
					if homes[k] != 1 && (resp == nil || resp.Status != rfsrv.StOK) {
						t.Errorf("lookup %d, homed on server %d, was not answered: %+v", k, homes[k], resp)
					}
				}
				if again, rerr := cl.MetaBatch(p, reqs); rerr != nil || len(again) != len(reqs) {
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
	}{
		{name: "sharded unlink batch/fault at issue", sharded: true, scenario: unlinkBatch(killed(1))},
		{name: "sharded unlink batch/fault at wait", sharded: true, scenario: unlinkBatch(swallowing(1))},
		{name: "sharded batch/fault at issue", sharded: true, scenario: shardBatch(killed(1))},
		{name: "sharded batch/fault at wait", sharded: true, scenario: shardBatch(swallowing(1))},
		{name: "batch/fault at issue", scenario: plainBatch(killed(1))},
		{name: "batch/fault at wait", scenario: plainBatch(swallowing(1))},
		{name: "unlink batch/fault at issue", scenario: ringUnlinkBatch(killed(1))},
		{name: "unlink batch/fault at wait", scenario: ringUnlinkBatch(swallowing(1))},
		{name: "lookup batch/fault at issue", scenario: ringLookupBatch(killed(1))},
		{name: "lookup batch/fault at wait", scenario: ringLookupBatch(swallowing(1))},
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
				if err := drive(); !fabric.IsFault(err) {
					t.Fatalf("operation = %v, want a transport fault", err)
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

// servedBy runs do and returns the one server whose request counter it
// moved (-1 when none or several did).
func servedBy(t *testing.T, r *clusterRig, do func()) int {
	t.Helper()
	before := make([]int64, len(r.rsrv))
	for i, srv := range r.rsrv {
		before[i] = srv.Requests.N
	}
	do()
	served := -1
	for i, srv := range r.rsrv {
		if srv.Requests.N != before[i] {
			if served >= 0 {
				return -1
			}
			served = i
		}
	}
	return served
}

// TestCombinedReplyOverflow: a batch of readdirs whose listings fit a
// reply one by one but not together, with a create packed behind them,
// through a Session and through the cluster's driver. The reply ends
// early under the combined-reply rule — after the readdir whose listing
// does not fit, or, when the listings leave less room than a fixed
// answer, before the create — and the next round trip continues from
// the first request it left: every listing comes back whole, and the
// create runs exactly once (run twice, it would answer StExists), in
// whichever round trip answers it.
func TestCombinedReplyOverflow(t *testing.T) {
	cases := []struct {
		name    string
		listing []int // each directory's listing, in encoded bytes
		// flights and requests the home's session issues, and the packed
		// requests the server answers, over the batch's two round trips
		flights, issued, batched int64
	}{
		// 6 043-byte answers: two fit, the third does not; it leads the
		// second round trip, the create packed behind it.
		{name: "listings exceed the reply together", listing: []int{6000, 6000, 6000}, flights: 2, issued: 6, batched: 2},
		// Two 8 182-byte answers leave 20 bytes: no room for the create's
		// fixed answer, so it waits, unexecuted, for a reply of its own.
		{name: "no room left for a fixed answer", listing: []int{8139, 8139}, flights: 2, issued: 4, batched: 1},
	}
	for _, tc := range cases {
		for _, via := range []string{"session", "cluster"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				r := newClusterRig(t, 1)
				r.run(t, func(p *sim.Proc) {
					fs := r.serverFS[0]
					cl := r.cluster(t, p, 8, testStripe)
					var reqs []*rfsrv.Req
					var want [][]kernel.DirEntry
					for i, n := range tc.listing {
						dir, err := fs.Mkdir(p, fs.Root(), fmt.Sprintf("d%d", i))
						if err != nil {
							t.Fatal(err)
						}
						fillListing(t, p, fs, dir.Ino, n)
						ents, err := fs.Readdir(p, dir.Ino)
						if err != nil {
							t.Fatal(err)
						}
						want = append(want, ents)
						reqs = append(reqs, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: dir.Ino})
					}
					reqs = append(reqs, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "new"})
					s := cl.Sessions()[0]
					var batch rfsrv.Async = s
					if via == "cluster" {
						batch = cl
					}
					flights, issued, batched := s.Issued.N, s.Issued.Bytes, r.rsrv[0].Batched.N
					resps, err := batch.MetaBatch(p, reqs)
					if err != nil || len(resps) != len(reqs) {
						t.Fatalf("batch: %d answers, %v", len(resps), err)
					}
					for i, ents := range want {
						if !slices.EqualFunc(resps[i].Entries, ents, func(a, b kernel.DirEntry) bool { return a == b }) {
							t.Errorf("listing %d: %d entries, want %d", i, len(resps[i].Entries), len(ents))
						}
					}
					if last := resps[len(reqs)-1]; last.Status != rfsrv.StOK {
						t.Errorf("create answered status %d, want StOK once", last.Status)
					}
					if _, err := fs.Lookup(p, fs.Root(), "new"); err != nil {
						t.Errorf("created file: %v", err)
					}
					if got := [3]int64{s.Issued.N - flights, s.Issued.Bytes - issued, r.rsrv[0].Batched.N - batched}; got != [3]int64{tc.flights, tc.issued, tc.batched} {
						t.Errorf("flights, issued, batched = %v, want %v", got, [3]int64{tc.flights, tc.issued, tc.batched})
					}
					assertWindowsIdle(t, cl)
				})
			})
		}
	}
}

// fillListing creates entries in dir whose readdir encodings (11 bytes
// each plus the name) add up to exactly n bytes.
func fillListing(t *testing.T, p *sim.Proc, fs *memfs.FS, dir kernel.InodeID, n int) {
	t.Helper()
	for i := 0; n > 0; i++ {
		l := n
		if n > 200 {
			l = 100
		}
		name := fmt.Sprintf("%05d", i)
		name += strings.Repeat("x", l-11-len(name))
		if _, err := fs.Create(p, dir, name); err != nil {
			t.Fatal(err)
		}
		n -= l
	}
}
