package rfsrv_test

// In-doubt rename resolution under replicated ownership (DESIGN.md
// §11–§13): both kill points of the three-phase rename driven to
// ErrRenameInDoubt with R=2 owner groups, asserting the namespace
// lands in exactly one of the two legal states and that it collapses
// — by re-driving the SAME rename, or by Reinstate replaying the
// journaled finalize the lagging members missed. Plus the §11 walk
// transient (one inode visible under both names while the source
// cleanup lags, with the marked entry refusing mutation), and the
// sharding/layout-policy composition pin (ErrShardLayoutConflict in
// both orders, through the knapi alias too).

import (
	"errors"
	"testing"
	"time"

	knapi "repro"
	"repro/internal/kernel"
	"repro/internal/rfsrv"
	platform "repro/internal/rig"
	"repro/internal/sim"
)

// observerRep builds a second, fresh replicated client over the same
// rig on its own endpoints (30+i, clear of clusterRep's 10+i): a
// client with no exclusion history, standing in for a recovering
// application node.
func (r *clusterRig) observerRep(t *testing.T, p *sim.Proc, replicas int) *rfsrv.Cluster {
	t.Helper()
	return r.clusterRepAt(t, p, 30, 4, testStripe, replicas)
}

// shardObserver is observerRep with the sharded namespace enabled: the
// re-drive vantage point for an in-doubt rename the observer did not
// issue.
func (r *clusterRig) shardObserver(t *testing.T, p *sim.Proc, replicas int) *rfsrv.Cluster {
	t.Helper()
	return r.clusterOf(t, p, 30, platform.Desc{Replicas: replicas, Stripe: testStripe, Window: 4, Timeout: faultTimeout, Sharded: true})
}

// TestShardRenameInDoubtAbortFaultStateA drives the FIRST in-doubt
// kill point under R=2: the destination owner group dies before the
// commit, and the source group dies before the abort can clean up —
// the client cannot learn the commit's fate OR settle the source, so
// it must surface ErrRenameInDoubt. The true state is state A (the
// commit never applied): both source members still hold the marked
// entry, neither destination member holds the link. Every slice is
// bump-free on this path, so all four servers readmit cleanly, and
// re-driving the SAME rename from the SAME client rides the
// idempotent prepare marks to completion (state B everywhere).
func TestShardRenameInDoubtAbortFaultStateA(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		src := mkdirRes(t, p, cl, 4, 1, "s") // owner group {1,2}
		dst := mkdirRes(t, p, cl, 4, 3, "d") // owner group {3,0}
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: src, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		fino := resp.Attr.Ino

		// The destination members swallow the commit: their NICs are
		// stalled when its frames arrive and killed before the stall
		// drains, so the commit never applies and its flights only die
		// by the faultTimeout=2ms deadline. The source members die at
		// 1.5ms — after the (healthy, sub-millisecond) prepare round
		// trip, before the abort the commit timeout triggers.
		r.servers[3].NIC.StallFor(10 * time.Millisecond)
		r.servers[0].NIC.StallFor(10 * time.Millisecond)
		r.servers[3].NIC.KillAfter(1 * time.Millisecond)
		r.servers[0].NIC.KillAfter(1 * time.Millisecond)
		r.servers[1].NIC.KillAfter(1500 * time.Microsecond)
		r.servers[2].NIC.KillAfter(1500 * time.Microsecond)
		_, rerr := cl.Rename(p, src, "f", dst, "g")
		if !errors.Is(rerr, rfsrv.ErrRenameInDoubt) {
			t.Fatalf("rename = %v, want ErrRenameInDoubt", rerr)
		}
		if cl.RenameInDoubts.N != 1 {
			t.Fatalf("RenameInDoubts = %d, want 1", cl.RenameInDoubts.N)
		}

		// State A: the commit never reached the destination group, so
		// the source members keep the (marked) entry and the
		// destination members have nothing.
		for _, i := range []int{1, 2} {
			if a, err := r.serverFS[i].Lookup(p, src, "f"); err != nil || a.Ino != fino {
				t.Fatalf("state A: source member %d entry = %+v, %v; want ino %d", i, a, err, fino)
			}
		}
		for _, i := range []int{3, 0} {
			if _, err := r.serverFS[i].Lookup(p, dst, "g"); !errors.Is(err, kernel.ErrNotFound) {
				t.Fatalf("state A: destination member %d holds the link (err=%v), want absent", i, err)
			}
		}

		// No slice mutated (prepare marks bump nothing), so every
		// server — including the two that missed the abort — readmits
		// without a resync.
		for _, n := range r.servers {
			n.NIC.Revive()
		}
		// Revive does not lift a stall: wait out the destination
		// members' 10ms one, or the re-driven commit would sit behind
		// it past its deadline. (Both commit flights expired together,
		// one deadline after their issue, so the clock reads ~2ms here.)
		p.Sleep(10 * time.Millisecond)
		for i := range r.servers {
			if err := cl.Reinstate(p, i); err != nil {
				t.Fatalf("reinstate server %d after state-A in-doubt: %v", i, err)
			}
		}
		if cl.Reinstates.N != 4 {
			t.Fatalf("Reinstates = %d, want 4", cl.Reinstates.N)
		}

		// Re-driving the same rename resolves the doubt: the prepare is
		// answered idempotently from the surviving marks, the commit
		// links, the finalize detaches — state B on every member.
		if _, err := cl.Rename(p, src, "f", dst, "g"); err != nil {
			t.Fatalf("re-driven rename: %v", err)
		}
		for _, i := range []int{1, 2} {
			if _, err := r.serverFS[i].Lookup(p, src, "f"); !errors.Is(err, kernel.ErrNotFound) {
				t.Fatalf("source member %d kept the entry after the re-drive (err=%v)", i, err)
			}
		}
		for _, i := range []int{3, 0} {
			if a, err := r.serverFS[i].Lookup(p, dst, "g"); err != nil || a.Ino != fino {
				t.Fatalf("destination member %d entry = %+v, %v; want ino %d", i, a, err, fino)
			}
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardRenameInDoubtFinalizeFaultStateB drives the SECOND in-doubt
// kill point under R=2: the commit applies at the destination group
// but the whole source group dies before the finalize — state B with
// the source cleanup lagging on BOTH members. The issuing client
// journaled the missed finalize for each, so Reinstate replays it and
// both members readmit with their lagging entries detached; a fresh
// observer then sees only the settled committed state.
func TestShardRenameInDoubtFinalizeFaultStateB(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		src := mkdirRes(t, p, cl, 4, 1, "s") // owner group {1,2}
		dst := mkdirRes(t, p, cl, 4, 3, "d") // owner group {3,0}
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: src, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		fino := resp.Attr.Ino

		// Stall the destination group so the commit lands around 1ms —
		// after both source members die at 500µs (the prepare, at
		// healthy round-trip speed, is long done by then).
		r.servers[3].NIC.StallFor(1 * time.Millisecond)
		r.servers[0].NIC.StallFor(1 * time.Millisecond)
		r.servers[1].NIC.KillAfter(500 * time.Microsecond)
		r.servers[2].NIC.KillAfter(500 * time.Microsecond)
		_, rerr := cl.Rename(p, src, "f", dst, "g")
		if !errors.Is(rerr, rfsrv.ErrRenameInDoubt) {
			t.Fatalf("rename = %v, want ErrRenameInDoubt", rerr)
		}

		// State B: both destination members hold the committed link;
		// both source members still hold the entry the finalize never
		// detached.
		for _, i := range []int{3, 0} {
			if a, err := r.serverFS[i].Lookup(p, dst, "g"); err != nil || a.Ino != fino {
				t.Fatalf("state B: destination member %d entry = %+v, %v; want ino %d", i, a, err, fino)
			}
		}
		for _, i := range []int{1, 2} {
			if a, err := r.serverFS[i].Lookup(p, src, "f"); err != nil || a.Ino != fino {
				t.Fatalf("state B: source member %d lost its lagging entry (%+v, %v)", i, a, err)
			}
		}

		// Both source members missed the finalize of a committed rename,
		// and the issuing client journaled it for each: readmission
		// replays the cleanup instead of refusing.
		r.servers[1].NIC.Revive()
		r.servers[2].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		for _, i := range []int{1, 2} {
			if err := cl.Reinstate(p, i); err != nil {
				t.Fatalf("reinstate lagging source member %d (journaled finalize): %v", i, err)
			}
		}
		if cl.ReinstateRefusals.N != 0 {
			t.Fatalf("ReinstateRefusals = %d, want 0 (journaled replay, not refusal)", cl.ReinstateRefusals.N)
		}
		if cl.ResyncOps.N != 2 {
			t.Fatalf("ResyncOps = %d, want 2 (one finalize per lagging member)", cl.ResyncOps.N)
		}
		for _, i := range []int{1, 2} {
			if _, err := r.serverFS[i].Lookup(p, src, "f"); !errors.Is(err, kernel.ErrNotFound) {
				t.Fatalf("source member %d kept the entry after the replayed finalize (err=%v)", i, err)
			}
		}

		// A fresh observer (no exclusion history, no doubt record) walks
		// a settled namespace: only the committed state is visible.
		obs := r.shardObserver(t, p, 2)
		if a, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dst, Name: "g"}); err != nil || a.Attr.Ino != fino {
			t.Fatalf("observer lookup of the committed name = %+v, %v; want ino %d", a, err, fino)
		}
		if _, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: src, Name: "f"}); !errors.Is(err, kernel.ErrNotFound) {
			t.Fatalf("observer still sees the old name (err=%v), want ErrNotFound", err)
		}
		assertWindowsIdle(t, obs)
		r.checkNoLeaks(t)
	})
}

// TestShardRenameInDoubtReaddirWalk pins the §11 walk transient: while
// a committed rename's source cleanup lags, ONE inode is legally
// visible under BOTH names — the destination readdir shows the new
// entry, the lagging source readdir still shows the old one, and both
// lookups resolve to the same inode. The marked source entry refuses
// mutation with ErrBusy until the rename is re-driven, which collapses
// the walk back to a single name.
func TestShardRenameInDoubtReaddirWalk(t *testing.T) {
	r := newShardRig(t, 4, 1)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 1)
		src := mkdirRes(t, p, cl, 4, 1, "s")
		dst := mkdirRes(t, p, cl, 4, 2, "d")
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: src, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		fino := resp.Attr.Ino

		// Commit applies (~1ms, behind the destination stall), source
		// owner dies at 500µs: finalize faults, state B, in doubt.
		r.servers[2].NIC.StallFor(1 * time.Millisecond)
		r.servers[1].NIC.KillAfter(500 * time.Microsecond)
		if _, rerr := cl.Rename(p, src, "f", dst, "g"); !errors.Is(rerr, rfsrv.ErrRenameInDoubt) {
			t.Fatalf("rename = %v, want ErrRenameInDoubt", rerr)
		}
		r.servers[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)

		// A fresh observer walks the transient: the file answers under
		// both names, from both directories.
		obs := r.shardObserver(t, p, 1)
		readdir := func(dir kernel.InodeID) map[string]bool {
			resp, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: dir})
			if err != nil {
				t.Fatalf("readdir %d: %v", dir, err)
			}
			names := make(map[string]bool, len(resp.Entries))
			for _, e := range resp.Entries {
				names[e.Name] = true
			}
			return names
		}
		if names := readdir(src); !names["f"] {
			t.Fatalf("lagging source readdir = %v, want the old name still visible", names)
		}
		if names := readdir(dst); !names["g"] {
			t.Fatalf("destination readdir = %v, want the committed name", names)
		}
		sa, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: src, Name: "f"})
		if err != nil || sa.Attr.Ino != fino {
			t.Fatalf("lookup via the old name = %+v, %v; want ino %d", sa, err, fino)
		}
		da, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dst, Name: "g"})
		if err != nil || da.Attr.Ino != fino {
			t.Fatalf("lookup via the new name = %+v, %v; want ino %d", da, err, fino)
		}

		// The lagging entry is marked: mutation is refused until the
		// rename resolves.
		if _, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: src, Name: "f"}); !errors.Is(err, rfsrv.ErrBusy) {
			t.Fatalf("unlink of the marked entry = %v, want ErrBusy", err)
		}

		// Re-driving the rename collapses the walk to one name.
		if _, err := obs.Rename(p, src, "f", dst, "g"); err != nil {
			t.Fatalf("observer re-drive: %v", err)
		}
		if names := readdir(src); names["f"] {
			t.Fatal("old name still visible after the re-drive")
		}
		if names := readdir(dst); !names["g"] {
			t.Fatal("committed name vanished after the re-drive")
		}
		assertWindowsIdle(t, obs)
		r.checkNoLeaks(t)
	})
}

// TestShardLayoutPolicyConflict pins the composition rule: the sharded
// namespace and the per-file layout policy (§10) are mutually
// exclusive in EITHER order — and so is the batched size publish,
// which rides the sharded plumbing. The refusals must match
// ErrShardLayoutConflict through errors.Is, including via the public
// knapi alias.
func TestShardLayoutPolicyConflict(t *testing.T) {
	r := newShardRig(t, 2, 1)
	r.run(t, func(p *sim.Proc) {
		// Order 1: sharding first, then the policy.
		cl := r.shardClient(t, p, 1)
		err := cl.SetLayoutPolicy(rfsrv.LayoutPolicy{Adaptive: true})
		if !errors.Is(err, rfsrv.ErrShardLayoutConflict) {
			t.Fatalf("SetLayoutPolicy on a sharded cluster = %v, want ErrShardLayoutConflict", err)
		}
		if !errors.Is(err, knapi.ErrFSShardLayoutConflict) {
			t.Fatalf("conflict error does not match the knapi alias: %v", err)
		}
		if _, on := cl.LayoutPolicy(); on {
			t.Fatal("refused policy engaged anyway")
		}

		// Order 2: policy first, then sharding (and then the batched
		// publish, which needs a policy-free cluster for the same
		// reason).
		obs := r.observerRep(t, p, 1)
		if err := obs.SetLayoutPolicy(rfsrv.LayoutPolicy{Adaptive: true}); err != nil {
			t.Fatalf("SetLayoutPolicy on a plain cluster: %v", err)
		}
		err = obs.EnableShardedNamespace()
		if !errors.Is(err, rfsrv.ErrShardLayoutConflict) {
			t.Fatalf("EnableShardedNamespace under a policy = %v, want ErrShardLayoutConflict", err)
		}
		if obs.ShardedNamespace() {
			t.Fatal("refused sharding engaged anyway")
		}
		err = obs.SetSizePublishBatch(4)
		if !errors.Is(err, rfsrv.ErrShardLayoutConflict) {
			t.Fatalf("SetSizePublishBatch under a policy = %v, want ErrShardLayoutConflict", err)
		}
	})
}
