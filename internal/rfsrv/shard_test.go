package rfsrv_test

// Fault-injected tests for the sharded namespace (DESIGN.md §11, §13):
// the three-phase cross-owner rename killed on either side of its
// commit point (asserting the namespace lands in exactly one of the
// two legal states, and that Reinstate replays what the victim missed
// before re-admitting it), owner-group failover to a replica member,
// the ownership-scoped Reinstate contract (a foreign slice churning
// journals nothing; an owned slice churning replays), and the scrub
// and size publish a sharded unlink and an extending write fan to
// every server — all with window-idle and pool-leak assertions on the
// new paths.

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/rfsrv"
	platform "repro/internal/rig"
	"repro/internal/sim"
)

// newShardRig is newClusterRig with every server enrolled in the
// namespace partition: collision-free inode minting plus the server
// half of sharding (ownership checks, rename marks, materialize).
func newShardRig(t *testing.T, nServers, replicas int) *clusterRig {
	t.Helper()
	return newRigOf(t, nServers, replicas, true)
}

// shardClient builds the sharded client over the rig: replicated
// sessions with the fault timeout armed, ownership routing enabled.
func (r *clusterRig) shardClient(t *testing.T, p *sim.Proc, replicas int) *rfsrv.Cluster {
	t.Helper()
	return r.clusterOf(t, p, 10, platform.Desc{Replicas: replicas, Stripe: testStripe, Window: 4, Timeout: faultTimeout, Sharded: true})
}

// mkdirRes creates directories under the root until one lands on the
// wanted owner residue and returns its inode.
func mkdirRes(t *testing.T, p *sim.Proc, cl *rfsrv.Cluster, n, want int, tag string) kernel.InodeID {
	t.Helper()
	ino, _ := mkdirUnder(t, p, cl, 0, n, want, tag)
	return ino
}

// mkdirUnder creates directories under parent until one lands on the
// wanted owner residue and returns its inode and name.
func mkdirUnder(t *testing.T, p *sim.Proc, cl *rfsrv.Cluster, parent kernel.InodeID, n, want int, tag string) (kernel.InodeID, string) {
	t.Helper()
	for k := 0; k < 64; k++ {
		name := fmt.Sprintf("%s%d", tag, k)
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: parent, Name: name})
		if err != nil {
			t.Fatalf("mkdir %s: %v", name, err)
		}
		if int((resp.Attr.Ino-2)%kernel.InodeID(n)) == want {
			return resp.Attr.Ino, name
		}
	}
	t.Fatalf("no directory with residue %d in 64 tries", want)
	return 0, ""
}

// TestShardRenameDestKillPreCommit kills the destination owner's NIC
// between the rename's prepare and its commit: the commit faults, the
// abort settles the source back to its original state (state A — the
// rename simply failed, NOT in doubt), the source entry is unmarked
// (the same rename re-drives cleanly), and the killed destination —
// whose slice never mutated — reinstates without a resync.
func TestShardRenameDestKillPreCommit(t *testing.T) {
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

		// The destination owner dies after the prepare round trip (to
		// the source owner, unstalled) but before the commit can reach
		// it: its NIC is stalled so the commit frame is still queued
		// when the kill lands.
		r.servers[2].NIC.StallFor(400 * time.Microsecond)
		r.servers[2].NIC.KillAfter(200 * time.Microsecond)
		_, rerr := cl.Rename(p, src, "f", dst, "g")
		if rerr == nil {
			t.Fatal("rename across a dead destination owner succeeded")
		}
		if errors.Is(rerr, rfsrv.ErrRenameInDoubt) {
			t.Fatalf("pre-commit destination kill must NOT be in doubt: %v", rerr)
		}

		// State A: source entry intact, destination untouched.
		if a, err := r.serverFS[1].Lookup(p, src, "f"); err != nil || a.Ino != fino {
			t.Fatalf("state A: source entry = %+v, %v; want ino %d", a, err, fino)
		}
		if _, err := r.serverFS[2].Lookup(p, dst, "g"); !errors.Is(err, kernel.ErrNotFound) {
			t.Fatalf("state A: destination entry exists (err=%v), want absent", err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 2 {
			t.Fatalf("down servers = %v, want [2]", down)
		}

		// The destination's slice never mutated, so it reinstates
		// cleanly — and the re-driven rename completes.
		r.servers[2].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 2); err != nil {
			t.Fatalf("reinstate unmutated destination owner: %v", err)
		}
		if _, err := cl.Rename(p, src, "f", dst, "g"); err != nil {
			t.Fatalf("re-driven rename: %v", err)
		}
		if _, err := r.serverFS[1].Lookup(p, src, "f"); !errors.Is(err, kernel.ErrNotFound) {
			t.Fatalf("source entry survived the re-driven rename (err=%v)", err)
		}
		if a, err := r.serverFS[2].Lookup(p, dst, "g"); err != nil || a.Ino != fino {
			t.Fatalf("destination entry = %+v, %v; want ino %d", a, err, fino)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardRenameSourceKillInDoubt kills the source owner's NIC after
// the prepare but before the finalize, while the destination commit is
// in flight: the commit applies (the rename HAS happened) and the
// finalize faults, so the client must surface *RenameInDoubtError with
// the rename's coordinates, the namespace must be in the committed
// state (destination linked, source cleanup lagging), and the dead
// source — holding an orphaned marked entry — journals the missed
// finalize, so Reinstate REPLAYS it: readmission detaches the lagging
// entry instead of refusing.
func TestShardRenameSourceKillInDoubt(t *testing.T) {
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

		// Stall the destination so the commit completes around 1ms —
		// after the source owner dies at 500µs (prepare, at healthy
		// round-trip speed, is long done by then).
		r.servers[2].NIC.StallFor(1 * time.Millisecond)
		r.servers[1].NIC.KillAfter(500 * time.Microsecond)
		_, rerr := cl.Rename(p, src, "f", dst, "g")
		if !errors.Is(rerr, rfsrv.ErrRenameInDoubt) {
			t.Fatalf("rename = %v, want ErrRenameInDoubt", rerr)
		}
		var ind *rfsrv.RenameInDoubtError
		if !errors.As(rerr, &ind) {
			t.Fatalf("rename error %T does not unwrap to *RenameInDoubtError", rerr)
		}
		if ind.SrcDir != src || ind.SrcName != "f" || ind.DstDir != dst || ind.DstName != "g" {
			t.Fatalf("in-doubt coordinates = %+v, want %d/f -> %d/g", ind, src, dst)
		}

		// Exactly one of two legal states — and since the commit went
		// through, it must be state B: destination linked, the dead
		// source still holding the entry its finalize never detached.
		_, srcErr := r.serverFS[1].Lookup(p, src, "f")
		dstA, dstErr := r.serverFS[2].Lookup(p, dst, "g")
		if srcErr != nil && dstErr != nil {
			t.Fatal("rename left the file linked nowhere — an illegal third state")
		}
		if dstErr != nil || dstA.Ino != fino {
			t.Fatalf("state B: destination entry = %+v, %v; want ino %d", dstA, dstErr, fino)
		}
		if srcErr != nil {
			t.Fatalf("state B: dead source lost its lagging entry: %v", srcErr)
		}

		// The source missed the finalize, but the client journaled it:
		// readmission replays the cleanup instead of refusing, and the
		// lagging entry detaches.
		r.servers[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate of the lagging source (journaled finalize): %v", err)
		}
		if cl.ResyncOps.N == 0 {
			t.Fatal("reinstate replayed nothing; the missed finalize should be journaled")
		}
		if _, err := r.serverFS[1].Lookup(p, src, "f"); !errors.Is(err, kernel.ErrNotFound) {
			t.Fatalf("source entry survived the replayed finalize (err=%v)", err)
		}
		if len(cl.DownServers()) != 0 {
			t.Fatalf("down servers = %v after replayed reinstate, want none", cl.DownServers())
		}
		// The parked doubt auto-resolves on the next walk: the re-driven
		// rename finds the source already settled.
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: src}); err != nil {
			t.Fatalf("readdir after reinstate: %v", err)
		}
		if cl.RenameAutoResolves.N != 1 {
			t.Fatalf("RenameAutoResolves = %d, want 1", cl.RenameAutoResolves.N)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardOwnerFailoverToReplica excludes a directory's primary owner
// in a replicated-ownership cluster (R=2): reads fail over to the
// replica member, creates mint through the surviving member, unlinks
// fan to the alive members only — the directory stays fully usable.
func TestShardOwnerFailoverToReplica(t *testing.T) {
	r := newShardRig(t, 3, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		dirResp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: "dir"})
		if err != nil {
			t.Fatal(err)
		}
		dir := dirResp.Attr.Ino
		res := int((dir - 2) % 3)
		replica := (res + 1) % 3
		for _, name := range []string{"a", "b"} {
			if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: name}); err != nil {
				t.Fatal(err)
			}
		}
		// Ownership replication: the second group member must already
		// hold the dentries.
		if _, err := r.serverFS[replica].Lookup(p, dir, "a"); err != nil {
			t.Fatalf("replica member missing dentry before the kill: %v", err)
		}

		r.servers[res].NIC.Kill()

		// Read failover: getattr and readdir route to the replica.
		if resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: dir}); err != nil || resp.Attr.Ino != dir {
			t.Fatalf("getattr across the kill: %+v, %v", resp, err)
		}
		// Mutations keep working through the surviving member.
		cresp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "c"})
		if err != nil {
			t.Fatalf("create across the kill: %v", err)
		}
		if got := int((cresp.Attr.Ino - 2) % 3); got != res {
			t.Fatalf("failover-minted inode %d has residue %d, want %d", cresp.Attr.Ino, got, res)
		}
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: dir, Name: "a"}); err != nil {
			t.Fatalf("unlink across the kill: %v", err)
		}
		rresp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: dir})
		if err != nil {
			t.Fatalf("readdir across the kill: %v", err)
		}
		names := make(map[string]bool)
		for _, e := range rresp.Entries {
			names[e.Name] = true
		}
		if names["a"] || !names["b"] || !names["c"] {
			t.Fatalf("readdir across the kill = %v, want b and c without a", rresp.Entries)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != res {
			t.Fatalf("down servers = %v, want [%d]", down, res)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardReinstateScopedToOwnedSlice is the ownership-scoped half of
// the Reinstate contract: with R=2 over 3 servers, server 1 belongs to
// the residue-0 and residue-1 owner groups but not residue 2. Churning
// a residue-2 directory while server 1 is excluded journals nothing
// for it (readmission replays zero operations); churning a residue-1
// directory journals every missed mutation, and readmission replays
// them all before re-admitting.
func TestShardReinstateScopedToOwnedSlice(t *testing.T) {
	r := newShardRig(t, 3, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		foreign := mkdirRes(t, p, cl, 3, 2, "f") // group {2,0}: no server 1
		owned := mkdirRes(t, p, cl, 3, 1, "o")   // group {1,2}: primary 1

		churn := func(dir kernel.InodeID, tag string) {
			for k := 0; k < 3; k++ {
				name := fmt.Sprintf("%s%d", tag, k)
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: name}); err != nil {
					t.Fatalf("churn create %s: %v", name, err)
				}
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: dir, Name: name}); err != nil {
					t.Fatalf("churn unlink %s: %v", name, err)
				}
			}
		}

		// Round 1: exclude server 1 (observed by a read routed to it —
		// reads bump nothing), churn only the foreign slice, reinstate.
		r.servers[1].NIC.Kill()
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: owned}); err != nil {
			t.Fatalf("getattr observing the kill: %v", err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down servers = %v, want [1]", down)
		}
		churn(foreign, "x")
		r.servers[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate after foreign-slice churn: %v", err)
		}
		if cl.ResyncOps.N != 0 {
			t.Fatalf("foreign-slice churn journaled %d op(s) for server 1; its journal should be empty", cl.ResyncOps.N)
		}

		// Round 2: same exclusion, but the churn lands on a directory
		// server 1 co-owns — its slice mutated behind its back, so the
		// readmission replays the journaled churn before re-admitting.
		r.servers[1].NIC.Kill()
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: owned}); err != nil {
			t.Fatalf("getattr observing the second kill: %v", err)
		}
		churn(owned, "y")
		r.servers[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate after owned-slice churn (journaled): %v", err)
		}
		if cl.ResyncOps.N != 6 {
			t.Fatalf("ResyncOps = %d after owned-slice churn replay, want 6 (3 creates + 3 unlinks)", cl.ResyncOps.N)
		}
		// The replay converged server 1's slice: the churn's entries came
		// and went, so nothing y-named survives anywhere.
		for k := 0; k < 3; k++ {
			if _, err := r.serverFS[1].Lookup(p, owned, fmt.Sprintf("y%d", k)); !errors.Is(err, kernel.ErrNotFound) {
				t.Fatalf("replayed churn left y%d on server 1 (err=%v)", k, err)
			}
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardUnlinkScrubsEveryServer: a sharded unlink of a written file
// fans the scrub of its data before it returns, so no alive server
// holds the victim's object afterwards. A member the scrub fan finds
// dead is excluded and journals the OpScrub, and Reinstate replays it
// there.
func TestShardUnlinkScrubsEveryServer(t *testing.T) {
	r := newShardRig(t, 4, 1)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 1)
		dir := mkdirRes(t, p, cl, 4, 0, "d")
		written := func(name string) kernel.InodeID {
			resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: name})
			if err != nil {
				t.Fatal(err)
			}
			_, vec := r.kbuf(t, 4*testStripe) // one stripe on every server
			if _, err := cl.Write(p, resp.Attr.Ino, 0, vec); err != nil {
				t.Fatalf("write %s: %v", name, err)
			}
			return resp.Attr.Ino
		}
		holders := func(ino kernel.InodeID) (out []int) {
			for i, fs := range r.serverFS {
				if _, err := fs.Getattr(p, ino); err == nil {
					out = append(out, i)
				}
			}
			return out
		}
		unlink := func(name string) {
			if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: dir, Name: name}); err != nil {
				t.Fatalf("unlink %s: %v", name, err)
			}
		}
		a, b := written("a"), written("b")
		if h := holders(a); len(h) != 4 {
			t.Fatalf("written file held by servers %v, want all four", h)
		}
		unlink("a")
		if h := holders(a); len(h) != 0 {
			t.Fatalf("servers %v still hold the unlinked file", h)
		}

		// Server 3 is not in the directory's owner group: only the scrub
		// fan reaches it, finds it dead, and journals what it missed.
		r.servers[3].NIC.Kill()
		unlink("b")
		if down := cl.DownServers(); len(down) != 1 || down[0] != 3 {
			t.Fatalf("down servers = %v, want [3]", down)
		}
		if h := holders(b); len(h) != 1 || h[0] != 3 {
			t.Fatalf("servers %v hold the unlinked file, want only the dead [3]", h)
		}
		if j := cl.JournaledReqs(3); len(j) != 1 || j[0].Op != rfsrv.OpScrub || j[0].Ino != b {
			t.Fatalf("server 3's journal = %+v, want one OpScrub of inode %d", j, b)
		}
		r.servers[3].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 3); err != nil {
			t.Fatalf("reinstate: %v", err)
		}
		if cl.ResyncOps.N != 1 {
			t.Errorf("ResyncOps = %d, want the one replayed scrub", cl.ResyncOps.N)
		}
		if h := holders(b); len(h) != 0 {
			t.Fatalf("servers %v hold the unlinked file after the replay", h)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardRmdir covers the sharded rmdir (N=4, R=2, the parent in
// owner group {0,1}): a child directory owned by the disjoint group
// {2,3} is removed from every server; a non-empty one is refused with
// ErrNotEmpty and nothing is removed; a child owned by the parent's
// own group leaves its dentry dangling after the scrub, which the
// rmdir then drops; a missing name or a file is refused; and a member of both groups excluded by the rmdir
// journals the scrub and the rmdir, which Reinstate replays there.
func TestShardRmdir(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		parent := mkdirRes(t, p, cl, 4, 0, "p")
		rmdir := func(name string) error {
			_, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpRmdir, Ino: parent, Name: name})
			return err
		}
		// holders lists the servers that hold the child's dentry under
		// the parent, and those that hold its object.
		holders := func(child kernel.InodeID, name string) (dentry, object []int) {
			for i, fs := range r.serverFS {
				if _, err := fs.Lookup(p, parent, name); err == nil {
					dentry = append(dentry, i)
				}
				if _, err := fs.Getattr(p, child); err == nil {
					object = append(object, i)
				}
			}
			return dentry, object
		}
		gone := func(child kernel.InodeID, name string) {
			t.Helper()
			if d, o := holders(child, name); len(d) != 0 || len(o) != 0 {
				t.Fatalf("after rmdir %s: dentry on servers %v, object on %v; want none", name, d, o)
			}
		}

		// A child in another owner group: the scrub at {2,3} and the
		// rmdir at {0,1} leave nothing anywhere.
		far, farName := mkdirUnder(t, p, cl, parent, 4, 2, "far")
		if d, o := holders(far, farName); !slices.Equal(d, []int{0, 1}) || !slices.Equal(o, []int{0, 1, 2, 3}) {
			t.Fatalf("before rmdir: dentry on %v, object on %v; want [0 1] and [0 1 2 3]", d, o)
		}
		if err := rmdir(farName); err != nil {
			t.Fatalf("rmdir %s: %v", farName, err)
		}
		gone(far, farName)

		// A non-empty child: refused, and nothing is removed.
		full, fullName := mkdirUnder(t, p, cl, parent, 4, 2, "full")
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: full, Name: "f"}); err != nil {
			t.Fatal(err)
		}
		if err := rmdir(fullName); !errors.Is(err, kernel.ErrNotEmpty) {
			t.Fatalf("rmdir of a non-empty directory: %v, want ErrNotEmpty", err)
		}
		if d, o := holders(full, fullName); !slices.Equal(d, []int{0, 1}) || !slices.Equal(o, []int{0, 1, 2, 3}) {
			t.Fatalf("after the refused rmdir: dentry on %v, object on %v; want [0 1] and [0 1 2 3]", d, o)
		}
		for _, i := range []int{2, 3} {
			if _, err := r.serverFS[i].Lookup(p, full, "f"); err != nil {
				t.Fatalf("after the refused rmdir, server %d lost the child's entry: %v", i, err)
			}
		}

		// A name that is missing or names a file is refused before any
		// scrub.
		if err := rmdir("nosuch"); !errors.Is(err, kernel.ErrNotFound) {
			t.Fatalf("rmdir of a missing name: %v, want ErrNotFound", err)
		}
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: parent, Name: "file"}); err != nil {
			t.Fatal(err)
		}
		if err := rmdir("file"); !errors.Is(err, kernel.ErrNotDir) {
			t.Fatalf("rmdir of a file: %v, want ErrNotDir", err)
		}

		// A child in the parent's own group: the scrub frees the object
		// where the dentry lives, and the rmdir drops the dangling name.
		near, nearName := mkdirUnder(t, p, cl, parent, 4, 0, "near")
		if err := rmdir(nearName); err != nil {
			t.Fatalf("rmdir %s: %v", nearName, err)
		}
		gone(near, nearName)

		// Server 1 sits in the parent's group {0,1} and the child's group
		// {1,2}: the rmdir's scrub fan finds it dead and excludes it, and
		// it journals both the scrub and the rmdir.
		mid, midName := mkdirUnder(t, p, cl, parent, 4, 1, "mid")
		r.servers[1].NIC.Kill()
		if err := rmdir(midName); err != nil {
			t.Fatalf("rmdir %s with server 1 dead: %v", midName, err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down servers = %v, want [1]", down)
		}
		if d, o := holders(mid, midName); !slices.Equal(d, []int{1}) || !slices.Equal(o, []int{1}) {
			t.Fatalf("rmdir with server 1 dead: dentry on %v, object on %v; want only the dead [1]", d, o)
		}
		j := cl.JournaledReqs(1)
		if len(j) != 2 || j[0].Op != rfsrv.OpScrub || j[0].Ino != mid || j[1].Op != rfsrv.OpRmdir || j[1].Ino != parent || j[1].Name != midName {
			t.Fatalf("server 1's journal = %+v, want the scrub of %d then the rmdir of %s", j, mid, midName)
		}
		r.servers[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate: %v", err)
		}
		if cl.ResyncOps.N != 2 {
			t.Errorf("ResyncOps = %d, want the replayed scrub and rmdir", cl.ResyncOps.N)
		}
		gone(mid, midName)
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardExtendingWritePublishesEnd: under sharding, an extending
// Write publishes its end to every alive server before it returns —
// each one's local size covers it — including after a member is
// excluded mid-sequence.
func TestShardExtendingWritePublishesEnd(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		dir := mkdirRes(t, p, cl, 4, 1, "d")
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		ino := resp.Attr.Ino
		var end int64
		for k, n := range []int{testStripe / 2, testStripe, 3*testStripe + 7, 100, 2 * testStripe} {
			if k == 3 {
				r.servers[2].NIC.Kill()
			}
			_, vec := r.kbuf(t, n)
			if _, err := cl.Write(p, ino, end, vec); err != nil {
				t.Fatalf("write %d [%d,+%d): %v", k, end, n, err)
			}
			end += int64(n)
			for _, i := range aliveServers(cl, len(r.servers)) {
				if a, err := r.serverFS[i].Getattr(p, ino); err != nil || a.Size < end {
					t.Errorf("after write %d: server %d local size %d (err %v), want >= %d", k, i, a.Size, err, end)
				}
			}
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 2 {
			t.Fatalf("down servers = %v, want [2]", down)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}
