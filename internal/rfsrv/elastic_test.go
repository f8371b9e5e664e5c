package rfsrv_test

// Elastic-membership tests (DESIGN.md §13): journaled resync under
// partial replay failure (idempotent retry with the prefix already
// applied), overlapping extending writes coalesced in the journal and
// replayed, journal spill falling back to full-slice resync (and
// refusing without peers), live Join/Retire with online stripe
// migration, a kill mid-Join leaving committed state clean and
// retryable, an old member excluded mid-Join failing the change closed,
// the sharded stop-world Bounce, and the stale-membership latch on
// viewless clients. Every store rebuild ends on assertPlacementHeld. Every fault path ends on the usual bars:
// window slots idle, pooled staging leak-free.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// elasticWrite fills a fresh kernel buffer with data and writes it
// through the cluster at off.
func elasticWrite(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster, ino kernel.InodeID, off int64, data []byte) {
	t.Helper()
	va, vec := r.kbuf(t, len(data))
	if err := r.client.Kernel.WriteBytes(va, data); err != nil {
		t.Fatal(err)
	}
	if resp, err := cl.Write(p, ino, off, vec); err != nil || int(resp.N) != len(data) {
		t.Fatalf("write [%d,%d): n=%d err=%v", off, off+int64(len(data)), resp.N, err)
	}
}

// elasticReadBack reads [0, size) through the cluster and returns the
// bytes.
func elasticReadBack(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster, ino kernel.InodeID, size int) []byte {
	t.Helper()
	rva, rvec := r.kbuf(t, size)
	resp, err := cl.Read(p, ino, 0, rvec)
	if err != nil || int(resp.N) != size {
		t.Fatalf("read back: n=%d err=%v", resp.N, err)
	}
	got, err := r.client.Kernel.ReadBytes(rva, size)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// assertPlacementHeld audits a file against the COMMITTED membership,
// whichever path rebuilt it: every slot that holds a stripe under
// cl.Members() (stripe k on ring positions k mod N .. +R-1, computed
// here independently of the code under test) has frames for it, and
// every byte reads back through a second client freshly attached to the
// shared view (nil: the construction-time membership) — one that
// excluded nobody, so every stripe is served by its primary.
func assertPlacementHeld(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster, view *rfsrv.MemberView, ino kernel.InodeID, expect []byte) {
	t.Helper()
	members, stripe := cl.Members(), int(cl.StripeSize())
	for k := 0; k*stripe < len(expect); k++ {
		for j := 0; j < cl.Replicas(); j++ {
			slot := members[(k+j)%len(members)]
			if r.serverFS[slot].FrameAt(ino, int64(k*stripe/mem.PageSize)) == nil {
				t.Errorf("server %d holds no frames for stripe %d, which members %v assign it", slot, k, members)
			}
		}
	}
	fresh := r.clusterRepAt(t, p, 40+r.audits*len(r.servers), 4, stripe, cl.Replicas())
	r.audits++
	if cl.ShardedNamespace() {
		if err := fresh.EnableShardedNamespace(); err != nil {
			t.Fatal(err)
		}
	}
	if view != nil {
		fresh.AttachView(view)
	}
	if got := elasticReadBack(t, p, r, fresh, ino, len(expect)); !bytes.Equal(got, expect) {
		t.Error("a fresh client of the committed membership read wrong bytes")
	}
	if down := fresh.DownServers(); len(down) != 0 {
		t.Errorf("the fresh client had to exclude %v to read the file", down)
	}
}

// TestElasticReplayRetryIdempotent interrupts a journal replay midway
// — a second NIC kill lands right after the first journaled mutation
// reaches the victim — and requires the failed Reinstate to keep the
// server excluded with its journal intact, and a later retry to
// replay the whole journal again (prefix included) onto the
// partially-replayed server and land the exact final state.
func TestElasticReplayRetryIdempotent(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		const size = 4 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)

		r.servers[1].NIC.Kill()

		// Missed work: two namespace mutations and fresh dirty bytes
		// over the whole file (server 1 replicates stripes 0, 1, 3).
		for i, b := range expect {
			expect[i] = b ^ 0x5a
		}
		elasticWrite(t, p, r, cl, ino, 0, expect)
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: "d"}); err != nil {
			t.Fatalf("mkdir with server 1 dark: %v", err)
		}
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "x"}); err != nil {
			t.Fatalf("create with server 1 dark: %v", err)
		}
		if cl.JournalOps(1) == 0 || cl.JournalBytes(1) == 0 {
			t.Fatalf("journal for server 1: %d ops, %d bytes; missed work not recorded",
				cl.JournalOps(1), cl.JournalBytes(1))
		}

		// First replay attempt: the killer proc watches the victim's
		// backing store and cuts its NIC the moment the replayed mkdir
		// lands, so the rest of the journal times out mid-replay.
		r.servers[1].NIC.Revive()
		stop := false
		r.env.Spawn("killer", func(kp *sim.Proc) {
			for !stop {
				if _, err := r.serverFS[1].Lookup(kp, r.serverFS[1].Root(), "d"); err == nil {
					r.servers[1].NIC.Kill()
					return
				}
				kp.Sleep(2 * time.Microsecond)
			}
		})
		err := cl.Reinstate(p, 1)
		stop = true
		if err == nil {
			t.Fatal("reinstate with the NIC cut mid-replay: want error")
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down = %v after failed replay, want [1]", down)
		}
		if cl.JournalOps(1) == 0 {
			t.Fatal("failed replay dropped the journal; the retry has nothing to replay")
		}

		// Retry: the full journal replays again, including the mkdir
		// already applied — re-admission must land the same state.
		r.servers[1].NIC.Revive()
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate retry: %v", err)
		}
		if down := cl.DownServers(); len(down) != 0 {
			t.Fatalf("down = %v after retry, want none", down)
		}
		// The victim held a prefix (the replayed mkdir), so the retry's
		// batched fast path must have yielded to the serial one for its
		// verification lookups.
		if cl.ResyncFallbacks.N == 0 {
			t.Error("retry over an applied prefix did not fall back to serial replay")
		}
		for _, name := range []string{"d", "x"} {
			if _, err := r.serverFS[1].Lookup(p, r.serverFS[1].Root(), name); err != nil {
				t.Errorf("victim missing replayed entry %q: %v", name, err)
			}
		}
		// Route reads through the victim: with server 0 dark, stripes
		// 0, 1, 3 are served by server 1 — the replayed bytes.
		r.servers[0].NIC.Kill()
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Error("read through the re-admitted server returned wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticReplayOverlappingExtendingWrites journals three mutually
// overlapping writes that extend the file while the victim is dark,
// and requires the journal to coalesce them (bounded by the file
// size, not the write volume) and the replay to land byte-exact
// content and the final size.
func TestElasticReplayOverlappingExtendingWrites(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		const size = 4 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		elasticWrite(t, p, r, cl, ino, 0, pattern(testStripe))

		r.servers[1].NIC.Kill()

		expect := make([]byte, size)
		copy(expect, pattern(testStripe))
		apply := func(off, n int, fill byte) {
			data := bytes.Repeat([]byte{fill}, n)
			copy(expect[off:], data)
			elasticWrite(t, p, r, cl, ino, int64(off), data)
		}
		apply(0, 5*testStripe/2, 0x11)          // [0, 2.5 stripes)
		apply(2*testStripe, 2*testStripe, 0x22) // [2, 4) extends
		apply(testStripe/2, testStripe, 0x33)   // [0.5, 1.5) back-overlap
		written := 5*testStripe/2 + 2*testStripe + testStripe
		if jb := cl.JournalBytes(1); jb == 0 || jb > int64(size) {
			t.Fatalf("journal holds %d dirty bytes; want coalesced to (0, %d] (wrote %d)", jb, size, written)
		}

		r.servers[1].NIC.Revive()
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate: %v", err)
		}
		if cl.ReinstateRefusals.N != 0 || cl.ResyncBytes.Bytes == 0 {
			t.Fatalf("refusals=%d resyncBytes=%d; want replay with dirty data", cl.ReinstateRefusals.N, cl.ResyncBytes.Bytes)
		}
		if a, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil || a.Attr.Size != size {
			t.Fatalf("size = %d err=%v, want %d", a.Attr.Size, err, size)
		}
		r.servers[0].NIC.Kill()
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Error("overlapping extending writes replayed wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticSpillFallsBackToFullResync caps the journal at one op so
// two missed mutations spill it, and requires Reinstate to fall back
// to a full-slice resync through the wired peers: the fallback is
// counted as a refusal and a spill, and the victim still converges to
// the same namespace and bytes a replay would have produced.
func TestElasticSpillFallsBackToFullResync(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		if err := cl.SetResyncPeers(r.rsrv); err != nil {
			t.Fatal(err)
		}
		cl.SetJournalLimits(1, 0)
		const size = 3 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)

		r.servers[1].NIC.Kill()
		for _, name := range []string{"d1", "d2"} {
			if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: name}); err != nil {
				t.Fatalf("mkdir %s: %v", name, err)
			}
		}
		for i, b := range expect {
			expect[i] = b ^ 0x77
		}
		elasticWrite(t, p, r, cl, ino, 0, expect)
		if !cl.JournalSpilled(1) {
			t.Fatal("two mutations under a one-op cap did not spill the journal")
		}

		r.servers[1].NIC.Revive()
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate via full resync: %v", err)
		}
		if cl.ReinstateRefusals.N != 1 || cl.ResyncSpills.N != 1 {
			t.Fatalf("refusals=%d spills=%d, want 1 and 1 (the spill fallback)", cl.ReinstateRefusals.N, cl.ResyncSpills.N)
		}
		if down := cl.DownServers(); len(down) != 0 {
			t.Fatalf("down = %v, want none", down)
		}
		for _, name := range []string{"d1", "d2"} {
			if _, err := r.serverFS[1].Lookup(p, r.serverFS[1].Root(), name); err != nil {
				t.Errorf("victim missing %q after full resync: %v", name, err)
			}
		}
		assertPlacementHeld(t, p, r, cl, nil, ino, expect)
		r.servers[0].NIC.Kill()
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Error("full resync landed wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// handBuilt assembles a replicated client (window 4, testStripe,
// fault deadline) on endpoints epBase+i WITHOUT the rig: no resync
// peers wired and no shared view attached — the two things Rig.Cluster
// always supplies and these tests need absent.
func (r *clusterRig) handBuilt(t *testing.T, p *sim.Proc, epBase, replicas int) *rfsrv.Cluster {
	t.Helper()
	sessions := make([]*rfsrv.Session, len(r.servers))
	for i, srv := range r.servers {
		fc, err := rfsrv.NewMXClient(r.clientMX, uint8(epBase+i), true, r.client.Kernel, srv.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		fc.SetRequestTimeout(faultTimeout)
		if sessions[i], err = rfsrv.NewSession(p, fc, 4); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := rfsrv.NewReplicatedCluster(p, sessions, testStripe, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestElasticSpillWithoutPeersRefuses is the last refusal left: a
// spilled journal with no resync peers wired has no replay and no
// fallback, so Reinstate must refuse and keep the server excluded.
func TestElasticSpillWithoutPeersRefuses(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.handBuilt(t, p, 10, 2)
		cl.SetJournalLimits(1, 0)
		clusterCreate(t, p, cl, "f")
		r.servers[1].NIC.Kill()
		for _, name := range []string{"d1", "d2"} {
			if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: name}); err != nil {
				t.Fatalf("mkdir %s: %v", name, err)
			}
		}
		r.servers[1].NIC.Revive()
		if err := cl.Reinstate(p, 1); err == nil {
			t.Fatal("reinstate of a spilled journal without peers: want refusal")
		}
		if cl.ReinstateRefusals.N != 1 {
			t.Fatalf("refusals = %d, want 1", cl.ReinstateRefusals.N)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down = %v, want [1]", down)
		}
	})
}

// TestElasticJoinRetireOnline grows an unsharded cluster 3 -> 4 with
// a live Join, shrinks it back with a Retire of a different slot, and
// requires byte-exact reads across both cutovers, the joiner holding
// the stripes the new placement assigns it, and the retiree dark
// after retirement without costing any read an exclusion.
func TestElasticJoinRetireOnline(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		if err := cl.SetMembers(3); err != nil {
			t.Fatal(err)
		}
		if err := cl.SetResyncPeers(r.rsrv); err != nil {
			t.Fatal(err)
		}
		view := cl.ShareView()
		const size = 8 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)

		if err := cl.Join(p, 3); err != nil {
			t.Fatalf("join: %v", err)
		}
		if m := view.Members(); !equalInts(m, []int{0, 1, 2, 3}) || view.Epoch() != 1 {
			t.Fatalf("after join: members %v epoch %d, want [0 1 2 3] epoch 1", m, view.Epoch())
		}
		if cl.Migrated.Bytes == 0 {
			t.Error("join migrated no bytes onto the joiner")
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after join returned wrong bytes")
		}
		assertPlacementHeld(t, p, r, cl, view, ino, expect)

		if err := cl.Retire(p, 1); err != nil {
			t.Fatalf("retire: %v", err)
		}
		if m := view.Members(); !equalInts(m, []int{0, 2, 3}) || view.Epoch() != 2 {
			t.Fatalf("after retire: members %v epoch %d, want [0 2 3] epoch 2", m, view.Epoch())
		}
		// The retiree is out of every replica set: reads survive its
		// death without a single failover or exclusion.
		before := cl.Failovers.N
		r.servers[1].NIC.Kill()
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after retire returned wrong bytes")
		}
		if cl.Failovers.N != before || len(cl.DownServers()) != 0 {
			t.Errorf("retired slot still in the data path: %d new failovers, down=%v",
				cl.Failovers.N-before, cl.DownServers())
		}
		assertPlacementHeld(t, p, r, cl, view, ino, expect)
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticJoinKillPointRetries cuts the joiner's NIC in the middle
// of a Join — after the namespace seed lands, while stripes migrate —
// and requires the failed Join to leave the old geometry fully intact
// (epoch, members, bytes, no leaked window slots), and a retry after
// revive to complete the admission.
func TestElasticJoinKillPointRetries(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		if err := cl.SetMembers(3); err != nil {
			t.Fatal(err)
		}
		if err := cl.SetResyncPeers(r.rsrv); err != nil {
			t.Fatal(err)
		}
		view := cl.ShareView()
		const size = 8 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)

		// The killer watches the joiner's store: the seeded namespace
		// appearing means the Join is past its bulk import and into
		// stripe migration — cut the NIC there.
		stop := false
		r.env.Spawn("killer", func(kp *sim.Proc) {
			for !stop {
				if _, err := r.serverFS[3].Lookup(kp, r.serverFS[3].Root(), "f"); err == nil {
					r.servers[3].NIC.Kill()
					return
				}
				kp.Sleep(2 * time.Microsecond)
			}
		})
		err := cl.Join(p, 3)
		stop = true
		if err == nil {
			t.Fatal("join with the joiner cut mid-migration: want error")
		}
		if m := view.Members(); !equalInts(m, []int{0, 1, 2}) || view.Epoch() != 0 {
			t.Fatalf("failed join moved the view: members %v epoch %d", m, view.Epoch())
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after failed join returned wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)

		r.servers[3].NIC.Revive()
		for _, s := range cl.DownServers() {
			if err := cl.Reinstate(p, s); err != nil {
				t.Fatalf("reinstate slot %d before retry: %v", s, err)
			}
		}
		if err := cl.Join(p, 3); err != nil {
			t.Fatalf("join retry: %v", err)
		}
		if m := view.Members(); !equalInts(m, []int{0, 1, 2, 3}) || view.Epoch() != 1 {
			t.Fatalf("after retried join: members %v epoch %d, want [0 1 2 3] epoch 1", m, view.Epoch())
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after retried join returned wrong bytes")
		}
		assertPlacementHeld(t, p, r, cl, view, ino, expect)
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticJoinOldMemberExcludedMidMigration stalls an OLD member's
// NIC past the reply deadline in the middle of a Join: the operator's
// striped read times out, excludes the member and fails over — and the
// member is also a new holder of stripes the migration has yet to copy.
// The Join must fail closed (it used to skip the excluded target,
// commit the geometry and leave those stripes one replica short, with
// nothing journaled to repair them): epoch, members and bytes intact,
// and Reinstate + retry completes with every new holder populated.
func TestElasticJoinOldMemberExcludedMidMigration(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		if err := cl.SetMembers(3); err != nil {
			t.Fatal(err)
		}
		if err := cl.SetResyncPeers(r.rsrv); err != nil {
			t.Fatal(err)
		}
		view := cl.ShareView()
		const size = 64 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)

		// The seeded namespace appearing on the joiner means the Join is
		// into stripe migration: stall member 1 there, once, for longer
		// than the reply deadline.
		stop := false
		r.env.Spawn("staller", func(kp *sim.Proc) {
			for !stop {
				if _, err := r.serverFS[3].Lookup(kp, r.serverFS[3].Root(), "f"); err == nil {
					r.servers[1].NIC.StallFor(faultTimeout + 500*time.Microsecond)
					return
				}
				kp.Sleep(2 * time.Microsecond)
			}
		})
		err := cl.Join(p, 3)
		stop = true
		if down := cl.DownServers(); !equalInts(down, []int{1}) {
			t.Fatalf("down = %v after the stall, want [1] (the stall missed the migration)", down)
		}
		if err == nil {
			t.Fatal("join with an old member excluded mid-migration committed; want it to fail closed")
		}
		if m := view.Members(); !equalInts(m, []int{0, 1, 2}) || view.Epoch() != 0 {
			t.Fatalf("failed join moved the view: members %v epoch %d", m, view.Epoch())
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after failed join returned wrong bytes")
		}

		p.Sleep(faultTimeout) // the stall has passed
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate member 1: %v", err)
		}
		if err := cl.Join(p, 3); err != nil {
			t.Fatalf("join retry: %v", err)
		}
		if m := view.Members(); !equalInts(m, []int{0, 1, 2, 3}) || view.Epoch() != 1 {
			t.Fatalf("after retried join: members %v epoch %d, want [0 1 2 3] epoch 1", m, view.Epoch())
		}
		assertPlacementHeld(t, p, r, cl, view, ino, expect)
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticBounceStopWorldSharded bounces a member of a sharded
// cluster — retire and re-admit inside one stop-world window — and
// requires the epoch to advance twice with the member set unchanged,
// and every directory entry and data byte to survive the double
// rebuild.
func TestElasticBounceStopWorldSharded(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		if err := cl.SetResyncPeers(r.rsrv); err != nil {
			t.Fatal(err)
		}
		view := cl.ShareView()
		const size = 6 * testStripe
		dir := mkdirRes(t, p, cl, 4, 1, "dir")
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		ino := resp.Attr.Ino
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)

		members := view.Members()
		if err := cl.Bounce(p, 1); err != nil {
			t.Fatalf("bounce: %v", err)
		}
		if m := view.Members(); !equalInts(m, members) || view.Epoch() != 2 {
			t.Fatalf("after bounce: members %v epoch %d, want %v epoch 2", m, view.Epoch(), members)
		}
		if a, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dir, Name: "f"}); err != nil || a.Attr.Ino != ino {
			t.Fatalf("lookup after bounce: ino=%d err=%v, want %d", a.Attr.Ino, err, ino)
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after bounce returned wrong bytes")
		}
		assertPlacementHeld(t, p, r, cl, view, ino, expect)
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticViewlessClientGoesStale runs a membership change behind
// a client that never attached to the shared view, and requires that
// client's next operation to fail with ErrStaleMembership (replies
// carry the new epoch) and every later one to keep failing — the
// latch that stops a stale client from reading re-placed data through
// the old geometry.
func TestElasticViewlessClientGoesStale(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		op := r.clusterRep(t, p, 4, testStripe, 2)
		if err := op.SetMembers(3); err != nil {
			t.Fatal(err)
		}
		if err := op.SetResyncPeers(r.rsrv); err != nil {
			t.Fatal(err)
		}
		op.ShareView()

		// A second cluster on the same client node needs its own local
		// endpoints (clusterRep claims 10+i).
		viewless := r.handBuilt(t, p, 20, 2)
		if err := viewless.SetMembers(3); err != nil {
			t.Fatal(err)
		}
		const size = 2 * testStripe
		ino := clusterCreate(t, p, viewless, "f")
		elasticWrite(t, p, r, viewless, ino, 0, pattern(size))

		if err := op.Join(p, 3); err != nil {
			t.Fatalf("join: %v", err)
		}

		// The first reply stamped with the new epoch poisons the
		// viewless cluster (the op itself still completes — its routing
		// was consistent); everything after fails at the entry gate.
		_, rvec := r.kbuf(t, size)
		if _, err := viewless.Read(p, ino, 0, rvec); err != nil {
			t.Fatalf("poisoning read: %v", err)
		}
		if _, err := viewless.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); !errors.Is(err, rfsrv.ErrStaleMembership) {
			t.Fatalf("viewless getattr after the latch: %v, want ErrStaleMembership", err)
		}
		if _, err := viewless.Read(p, ino, 0, rvec); !errors.Is(err, rfsrv.ErrStaleMembership) {
			t.Fatalf("viewless read after the latch: %v, want ErrStaleMembership", err)
		}
		// The attached operator keeps working across the same change.
		if got := elasticReadBack(t, p, r, op, ino, size); !bytes.Equal(got, pattern(size)) {
			t.Fatal("attached client read wrong bytes after the join")
		}
	})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestElasticReplayBatchedEquivalence builds a journal that exercises
// every batched-replay verdict class — a mkdir, creates, an
// idempotent unlink, a local rename, an epoch-bumping truncate (with
// its OpSyncEpoch prelude in the batch), and dirty data — and
// requires a clean Reinstate to land it through the combined-batch
// fast path (no serial fallback), with the victim's resulting state
// equal to a server that applied the same mutations live.
func TestElasticReplayBatchedEquivalence(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		const size = 4 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)

		r.servers[1].NIC.Kill()

		// Missed work covering every replay verdict class.
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: "d"}); err != nil {
			t.Fatalf("mkdir with server 1 dark: %v", err)
		}
		clusterCreate(t, p, cl, "x")
		clusterCreate(t, p, cl, "gone")
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: 0, Name: "gone"}); err != nil {
			t.Fatalf("unlink with server 1 dark: %v", err)
		}
		if _, err := cl.Rename(p, 0, "x", 0, "y"); err != nil {
			t.Fatalf("rename with server 1 dark: %v", err)
		}
		for i, b := range expect {
			expect[i] = b ^ 0x3c
		}
		elasticWrite(t, p, r, cl, ino, 0, expect)
		const cut = size - testStripe/2
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: cut}); err != nil {
			t.Fatalf("truncate with server 1 dark: %v", err)
		}
		expect = expect[:cut]
		ops := cl.JournalOps(1)
		if ops == 0 {
			t.Fatal("no journaled ops for the dark server")
		}

		r.servers[1].NIC.Revive()
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate: %v", err)
		}
		if n := cl.ResyncFallbacks.N; n != 0 {
			t.Errorf("ResyncFallbacks = %d after a clean replay, want 0 (batched fast path)", n)
		}
		if cl.ResyncOps.N != int64(ops) {
			t.Errorf("ResyncOps = %d, want %d (every journaled op replayed once)", cl.ResyncOps.N, ops)
		}

		// Equivalence oracle: the victim's namespace and attributes
		// must match server 0, which applied everything live.
		for _, name := range []string{"f", "d", "y"} {
			a0, err0 := r.serverFS[0].Lookup(p, r.serverFS[0].Root(), name)
			a1, err1 := r.serverFS[1].Lookup(p, r.serverFS[1].Root(), name)
			if err0 != nil || err1 != nil {
				t.Fatalf("lookup %q: live server err=%v, victim err=%v", name, err0, err1)
			}
			if a0.Ino != a1.Ino {
				t.Errorf("%q resolves to inode %d on the victim, %d on a live server", name, a1.Ino, a0.Ino)
			}
		}
		for _, name := range []string{"gone", "x"} {
			if _, err := r.serverFS[1].Lookup(p, r.serverFS[1].Root(), name); err == nil {
				t.Errorf("victim still resolves %q after the replayed unlink/rename", name)
			}
		}
		if a, err := r.serverFS[1].Getattr(p, ino); err != nil || a.Size != cut {
			t.Errorf("victim size = %d (err=%v), want %d", a.Size, err, cut)
		}

		// Route reads through the victim: with server 0 dark its
		// replica stripes serve the replayed bytes.
		r.servers[0].NIC.Kill()
		if got := elasticReadBack(t, p, r, cl, ino, cut); !bytes.Equal(got, expect) {
			t.Error("read through the re-admitted server returned wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}
