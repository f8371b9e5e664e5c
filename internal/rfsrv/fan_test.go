package rfsrv_test

// Table-driven test of the cluster's one control-path fan: every
// caller (the grow-only size reconciliation, the replicated namespace
// fan-out, and the sharded owner-group fans with and without the
// primary) driven through every classification the fan makes — a
// transport fault at issue, one at wait, an ErrStaleEpoch refusal from
// ahead of the size cache (revalidate and retry) and from behind it
// (exclude the laggard) — and through the callers' own verdicts:
// status/inode divergence and the sharded StBusy in-doubt window.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// fanScenario arranges a 3-server R=2 rig for one case and returns the
// operation that drives the fan under test.
type fanScenario func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) (drive func() error)

// fanPrep is the case-specific part of a scenario, applied once the
// driver's file or directory (at) exists and before the drive.
type fanPrep func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster, at kernel.InodeID)

// killed makes server i dead at send time: its fan request faults at
// issue.
func killed(i int) fanPrep {
	return func(_ *testing.T, _ *sim.Proc, r *clusterRig, _ *rfsrv.Cluster, _ kernel.InodeID) {
		r.servers[i].NIC.Kill()
	}
}

// swallowing makes server i accept a request and never answer: its NIC
// holds arriving frames past the reply deadline and dies before
// releasing them, so the fan request faults at wait.
func swallowing(i int) fanPrep {
	return func(_ *testing.T, _ *sim.Proc, r *clusterRig, _ *rfsrv.Cluster, _ kernel.InodeID) {
		r.servers[i].NIC.StallFor(10 * time.Millisecond)
		r.servers[i].NIC.KillAfter(faultTimeout + time.Millisecond)
	}
}

// staleAhead has a second client set the file's size exactly, bumping
// its size epoch on every server: cl's cached epoch is now stale and
// every server's refusal comes from AHEAD of it.
func staleAhead(t *testing.T, p *sim.Proc, r *clusterRig, _ *rfsrv.Cluster, ino kernel.InodeID) {
	t.Helper()
	if _, err := r.observerRep(t, p, 2).Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: testStripe}); err != nil {
		t.Fatalf("foreign truncate: %v", err)
	}
}

// staleBehind runs that foreign size set while server 2 is dark, so
// server 2 ends up an epoch behind the others, then has cl learn the
// current epoch from server 0 (a read of stripe 0): server 2's refusal
// comes from BEHIND cl's cache.
func staleBehind(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster, ino kernel.InodeID) {
	t.Helper()
	r.servers[2].NIC.Kill()
	staleAhead(t, p, r, cl, ino)
	r.servers[2].NIC.Revive()
	_, vec := r.kbuf(t, testStripe)
	if _, err := cl.Read(p, ino, 0, vec); err != nil {
		t.Fatalf("read to observe the epoch: %v", err)
	}
}

// The drivers, one per caller of the fan.

// sizesAre checks every non-excluded server's local size of ino.
func sizesAre(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster, ino kernel.InodeID, want int64) {
	t.Helper()
	for _, i := range aliveServers(cl, len(r.servers)) {
		if a, err := r.serverFS[i].Getattr(p, ino); err != nil || a.Size != want {
			t.Errorf("server %d holds size %d (err %v), want %d", i, a.Size, err, want)
		}
	}
}

// viaSetSizeTo drives setSizeTo's fan to every server: SetFileSize
// publishes an end of file past anything a server holds.
func viaSetSizeTo(prep fanPrep) fanScenario {
	return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
		ino := clusterCreate(t, p, cl, "f")
		prep(t, p, r, cl, ino)
		return func() error {
			err := cl.SetFileSize(p, ino, 4*testStripe)
			if err == nil {
				sizesAre(t, p, r, cl, ino, 4*testStripe)
			}
			return err
		}
	}
}

// viaFanoutCreate drives fanout with a namespace mutation.
func viaFanoutCreate(prep fanPrep) fanScenario {
	return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
		prep(t, p, r, cl, 0)
		return func() error {
			_, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "g"})
			return err
		}
	}
}

// viaFanoutTruncate drives fanout with an exact size set — the one
// fanned-out mutation servers can refuse as stale.
func viaFanoutTruncate(prep fanPrep) fanScenario {
	return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
		ino := clusterCreate(t, p, cl, "f")
		prep(t, p, r, cl, ino)
		return func() error {
			_, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: 2 * testStripe})
			if err == nil {
				sizesAre(t, p, r, cl, ino, 2*testStripe)
			}
			return err
		}
	}
}

// viaGroupFan drives groupFan: an unlink of "f" in a directory owned
// by group {0, 1}.
func viaGroupFan(prep fanPrep) fanScenario {
	return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
		dir := mkdirRes(t, p, cl, 3, 0, "d")
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "f"}); err != nil {
			t.Fatal(err)
		}
		prep(t, p, r, cl, dir)
		return func() error {
			_, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: dir, Name: "f"})
			return err
		}
	}
}

// viaGroupFanFrom drives groupFanFrom: a create in a directory owned
// by group {0, 1} mints at the primary (0), then links the fresh
// dentry on the rest of the group (1).
func viaGroupFanFrom(prep fanPrep) fanScenario {
	return func(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster) func() error {
		dir := mkdirRes(t, p, cl, 3, 0, "d")
		prep(t, p, r, cl, dir)
		return func() error {
			resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "g"})
			if err == nil {
				if a, lerr := r.serverFS[0].Lookup(p, dir, "g"); lerr != nil || a.Ino != resp.Attr.Ino {
					t.Errorf("primary's entry = %+v, %v; want ino %d", a, lerr, resp.Attr.Ino)
				}
			}
			return err
		}
	}
}

// aliveServers lists the servers cl has not excluded.
func aliveServers(cl *rfsrv.Cluster, n int) []int {
	down := cl.DownServers()
	var out []int
	for i := 0; i < n; i++ {
		excluded := false
		for _, d := range down {
			excluded = excluded || d == i
		}
		if !excluded {
			out = append(out, i)
		}
	}
	return out
}

func TestClusterFanClassification(t *testing.T) {
	cases := []struct {
		name     string
		sharded  bool
		scenario fanScenario
		wantErr  func(error) bool // nil: the operation must succeed
		wantDown []int
		// Requests the drive must add to the two fan counters: SetSizes
		// counts every reconciliation request tried, MetaFanout every
		// replicated request beyond the first on the wire.
		setSizes, metaFanout int64
	}{
		// A transport fault at issue excludes the target; the survivors
		// carry the operation.
		{name: "setSizeTo/fault at issue", scenario: viaSetSizeTo(killed(2)), wantDown: []int{2}, setSizes: 3},
		{name: "fanout/fault at issue", scenario: viaFanoutCreate(killed(1)), wantDown: []int{1}, metaFanout: 2},
		{name: "groupFan/fault at issue", sharded: true, scenario: viaGroupFan(killed(1)), wantDown: []int{1}, metaFanout: 1},
		{name: "groupFanFrom/fault at issue", sharded: true, scenario: viaGroupFanFrom(killed(1)), wantDown: []int{1}, metaFanout: 1},

		// So does a reply deadline expiring at wait.
		{name: "setSizeTo/fault at wait", scenario: viaSetSizeTo(swallowing(2)), wantDown: []int{2}, setSizes: 3},
		{name: "fanout/fault at wait", scenario: viaFanoutCreate(swallowing(1)), wantDown: []int{1}, metaFanout: 2},
		{name: "groupFan/fault at wait", sharded: true, scenario: viaGroupFan(swallowing(1)), wantDown: []int{1}, metaFanout: 1},
		{name: "groupFanFrom/fault at wait", sharded: true, scenario: viaGroupFanFrom(swallowing(1)), wantDown: []int{1}, metaFanout: 1},

		// A foreign exact size set since this client last looked: every
		// server refuses the stale observed epoch from AHEAD of the
		// cache, the refusals refresh it, and the second round lands.
		{name: "setSizeTo/stale ahead of the cache", scenario: viaSetSizeTo(staleAhead), setSizes: 6},
		{name: "fanout/stale ahead of the cache", scenario: viaFanoutTruncate(staleAhead), metaFanout: 4},

		// A server that missed that foreign set refuses from BEHIND the
		// cache: no retry epoch satisfies it and the coherent members at
		// once, so it is excluded and the survivors carry the fan in one
		// round.
		{name: "setSizeTo/stale behind the cache", scenario: viaSetSizeTo(staleBehind), wantDown: []int{2}, setSizes: 3},
		{name: "fanout/stale behind the cache", scenario: viaFanoutTruncate(staleBehind), wantDown: []int{2}, metaFanout: 2},

		// Answers that disagree on (status, inode) are divergence — an
		// error, never an exclusion.
		{name: "fanout/divergence", metaFanout: 2,
			scenario: viaFanoutCreate(func(t *testing.T, p *sim.Proc, r *clusterRig, _ *rfsrv.Cluster, _ kernel.InodeID) {
				if _, err := r.serverFS[1].Create(p, r.serverFS[1].Root(), "g"); err != nil {
					t.Fatal(err)
				}
			}),
			wantErr: func(err error) bool { return strings.Contains(err.Error(), "namespace diverged") }},
		{name: "groupFan/divergence", sharded: true, metaFanout: 1,
			scenario: viaGroupFan(func(t *testing.T, p *sim.Proc, r *clusterRig, _ *rfsrv.Cluster, dir kernel.InodeID) {
				if err := r.serverFS[1].Unlink(p, dir, "f"); err != nil {
					t.Fatal(err)
				}
			}),
			wantErr: func(err error) bool { return strings.Contains(err.Error(), "owner group 0 diverged") }},

		// ... unless one side is StBusy: a member still holding a rename's
		// prepare mark while the other already settled is the in-doubt
		// window showing through, reported as busy.
		{name: "groupFan/StBusy in-doubt window", sharded: true, metaFanout: 1,
			scenario: viaGroupFan(func(t *testing.T, p *sim.Proc, r *clusterRig, _ *rfsrv.Cluster, dir kernel.InodeID) {
				fc, err := window1(p)(rfsrv.NewMXClient(r.clientMX, 50, true, r.client.Kernel, r.servers[0].ID, 1))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fc.Meta(p, &rfsrv.Req{Op: rfsrv.OpRenamePrepare, Ino: dir, Off: int64(dir), Name: "f"}); err != nil {
					t.Fatalf("prepare mark on member 0: %v", err)
				}
			}),
			wantErr: func(err error) bool { return errors.Is(err, rfsrv.ErrBusy) }},
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
				setSizes, metaFanout := cl.SetSizes.N, cl.MetaFanout.N
				err := drive()
				switch {
				case tc.wantErr == nil && err != nil:
					t.Fatalf("operation failed: %v", err)
				case tc.wantErr != nil && (err == nil || !tc.wantErr(err)):
					t.Fatalf("operation = %v, want the case's error", err)
				}
				if got := cl.SetSizes.N - setSizes; got != tc.setSizes {
					t.Errorf("SetSizes grew by %d, want %d", got, tc.setSizes)
				}
				if got := cl.MetaFanout.N - metaFanout; got != tc.metaFanout {
					t.Errorf("MetaFanout grew by %d, want %d", got, tc.metaFanout)
				}
				down := cl.DownServers()
				if len(down) != len(tc.wantDown) || (len(down) == 1 && down[0] != tc.wantDown[0]) {
					t.Errorf("down servers = %v, want %v", down, tc.wantDown)
				}
				if got := cl.Excluded.N; got != int64(len(tc.wantDown)) {
					t.Errorf("Excluded = %d, want %d", got, len(tc.wantDown))
				}
				assertWindowsIdle(t, cl)
				r.checkNoLeaks(t)
			})
		})
	}
}
