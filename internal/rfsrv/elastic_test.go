package rfsrv_test

// Elastic-membership tests (DESIGN.md §13): journaled resync under
// partial replay failure (idempotent retry with the prefix already
// applied), overlapping extending writes coalesced in the journal and
// replayed, journal spill falling back to full-slice resync — from any
// cluster, rig-built or not — live Join/Retire with online stripe
// migration in both namespaces, a kill mid-Join leaving committed state
// clean and retryable, an old member excluded mid-Join failing the
// change closed, a write in flight when a migration starts reaching the
// joiner, the Bounce in both namespaces, a fault in the wire copy or in
// the namespace-image transfer of a Bounce or of a spilled journal's
// full resync committing nothing, the Bounce's copy costing wire time,
// a single hand-built client changing membership on the view it owns,
// and the stale-membership latch on a client whose own view missed a
// change. Every store
// rebuild ends on assertPlacementHeld. Every fault path ends on the
// usual bars: window slots idle, pooled staging leak-free.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	platform "repro/internal/rig"
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
	fresh := r.freshClient(t, p, cl, view)
	if got := elasticReadBack(t, p, r, fresh, ino, len(expect)); !bytes.Equal(got, expect) {
		t.Error("a fresh client of the committed membership read wrong bytes")
	}
	if down := fresh.DownServers(); len(down) != 0 {
		t.Errorf("the fresh client had to exclude %v to read the file", down)
	}
}

// freshClient builds a client of cl's geometry that has seen nothing —
// no inode, no exclusion — on endpoints of its own, attached to view
// (nil: the construction-time membership).
func (r *clusterRig) freshClient(t *testing.T, p *sim.Proc, cl *rfsrv.Cluster, view *rfsrv.MemberView) *rfsrv.Cluster {
	t.Helper()
	fresh := r.clusterRepAt(t, p, 40+r.audits*len(r.servers), 4, int(cl.StripeSize()), cl.Replicas())
	r.audits++
	if cl.ShardedNamespace() {
		if err := fresh.EnableShardedNamespace(); err != nil {
			t.Fatal(err)
		}
	}
	if view != nil {
		fresh.AttachView(view)
	}
	return fresh
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
		// The victim held a prefix (the replayed mkdir), so the retry
		// must have sent its verification lookups after the journal.
		if cl.ResyncFallbacks.N == 0 {
			t.Error("retry over an applied prefix sent no verification batch")
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
// to a full-slice resync over the wire: the fallback is
// counted as a refusal and a spill, and the victim still converges to
// the same namespace and bytes a replay would have produced.
func TestElasticSpillFallsBackToFullResync(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
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
// fault deadline) on endpoints epBase+i WITHOUT the rig and with no
// shared view attached: nothing but its own sessions to the servers.
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

// TestElasticHandBuiltSpillResyncs spills the journal of a cluster
// built by hand, outside the rig: a full-slice resync needs nothing but
// the cluster's sessions, so Reinstate rebuilds the returning server
// over the wire — namespace and bytes — instead of refusing.
func TestElasticHandBuiltSpillResyncs(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.handBuilt(t, p, 10, 2)
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
			expect[i] = b ^ 0x6d
		}
		elasticWrite(t, p, r, cl, ino, 0, expect)
		if !cl.JournalSpilled(1) {
			t.Fatal("two mutations under a one-op cap did not spill the journal")
		}
		r.servers[1].NIC.Revive()
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate of a spilled journal from a hand-built cluster: %v", err)
		}
		if cl.ReinstateRefusals.N != 1 || cl.ResyncBytes.Bytes == 0 {
			t.Fatalf("refusals=%d resyncBytes=%d, want the full-resync fallback with its stripes", cl.ReinstateRefusals.N, cl.ResyncBytes.Bytes)
		}
		if down := cl.DownServers(); len(down) != 0 {
			t.Fatalf("down = %v, want none", down)
		}
		for _, name := range []string{"f", "d1", "d2"} {
			a0, err0 := r.serverFS[0].Lookup(p, r.serverFS[0].Root(), name)
			a1, err1 := r.serverFS[1].Lookup(p, r.serverFS[1].Root(), name)
			if err0 != nil || err1 != nil || a0.Ino != a1.Ino || a0.Kind != a1.Kind || a0.Size != a1.Size {
				t.Errorf("%q on the resynced server: %v (%v), on a live one: %v (%v)", name, a1, err1, a0, err0)
			}
		}
		assertPlacementHeld(t, p, r, cl, nil, ino, expect)
		r.servers[0].NIC.Kill()
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Error("read through the resynced server returned wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticSingleClientJoinRetire changes the membership of a lone
// hand-built cluster that never called ShareView: the view it owns from
// construction is enough to Join a standby slot and Retire a member,
// and its bytes read back across both cutovers.
func TestElasticSingleClientJoinRetire(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		cl := r.handBuilt(t, p, 10, 2)
		if err := cl.SetMembers(3); err != nil {
			t.Fatal(err)
		}
		const size = 6 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)

		if err := cl.Join(p, 3); err != nil {
			t.Fatalf("join without ShareView: %v", err)
		}
		if m := cl.Members(); !equalInts(m, []int{0, 1, 2, 3}) {
			t.Fatalf("after join: members %v, want [0 1 2 3]", m)
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after join returned wrong bytes")
		}
		if err := cl.Retire(p, 0); err != nil {
			t.Fatalf("retire without ShareView: %v", err)
		}
		if m := cl.Members(); !equalInts(m, []int{1, 2, 3}) || cl.ShareView().Epoch() != 2 {
			t.Fatalf("after retire: members %v epoch %d, want [1 2 3] epoch 2", m, cl.ShareView().Epoch())
		}
		r.servers[0].NIC.Kill()
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after retire returned wrong bytes")
		}
		if down := cl.DownServers(); len(down) != 0 {
			t.Errorf("the retired slot is still in the data path: down=%v", down)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
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

// TestElasticJoinRecopiesWriteInFlightAtStart starts an asynchronous
// write from a second client node just before a Join, and stalls that
// node's NIC so the payload lands after the Join's bulk copy has read
// the stripe from its old holders. The write was issued before the
// migration began, yet it must still reach the joiner: the dirty log
// records a write when it completes, not when it is issued. With the
// stripe's other holder killed, the read is served by the joiner.
func TestElasticJoinRecopiesWriteInFlightAtStart(t *testing.T) {
	r := newClusterRig(t, 4)
	writer := r.rig.HW.AddNode("writer")
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		if err := cl.SetMembers(3); err != nil {
			t.Fatal(err)
		}
		view := cl.ShareView()
		const size = 8 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)
		w := r.clusterOn(t, p, writer, 10, platform.Desc{Replicas: 2, Stripe: testStripe, Window: 4, Timeout: faultTimeout})
		w.AttachView(view)

		// Stripe 3 lives on slots 0, 1 under members [0 1 2] and on the
		// joiner 3 and slot 0 under [0 1 2 3].
		const off = 3 * testStripe
		data := bytes.Repeat([]byte{0xa5}, testStripe)
		copy(expect[off:], data)
		va, err := writer.Kernel.Mmap(testStripe, "writer-buf")
		if err != nil {
			t.Fatal(err)
		}
		if err := writer.Kernel.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		pd, err := w.StartWrite(p, ino, off, core.Of(core.KernelSeg(writer.Kernel, va, testStripe)))
		if err != nil {
			t.Fatal(err)
		}
		writer.NIC.StallFor(faultTimeout / 2)
		waited := false
		r.env.Spawn("waiter", func(wp *sim.Proc) {
			if _, err := pd.Wait(wp); err != nil {
				t.Errorf("stalled write: %v", err)
			}
			waited = true
		})
		if err := cl.Join(p, 3); err != nil {
			t.Fatalf("join: %v", err)
		}
		if !waited {
			t.Fatal("the join cut over with the stalled write still in flight")
		}
		r.servers[0].NIC.Kill()
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got[off:off+testStripe], data) {
			t.Error("the joiner holds stripe 3 as it was before the in-flight write landed")
		} else if !bytes.Equal(got, expect) {
			t.Error("read after the join returned wrong bytes")
		}
		assertWindowsIdle(t, cl)
		assertWindowsIdle(t, w)
		r.checkNoLeaks(t)
		if err := fabric.PoolOf(writer).CheckLeaks(); err != nil {
			t.Errorf("writer pool: %v", err)
		}
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
		const size = 6 * testStripe
		cl, view, dir, ino, expect := shardedFile(t, p, r, size)
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

// TestElasticBounceUnsharded bounces a member of the replicated
// namespace through the same change the sharded one runs: the epoch
// advances twice with the member set unchanged, the slot's stripes
// leave and come back over the wire, and every byte reads back exact
// through the committed placement.
func TestElasticBounceUnsharded(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		view := cl.ShareView()
		const size = 8 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)
		members := view.Members()
		if err := cl.Bounce(p, 1); err != nil {
			t.Fatalf("bounce: %v", err)
		}
		if m := view.Members(); !equalInts(m, members) || view.Epoch() != 2 {
			t.Fatalf("after bounce: members %v epoch %d, want %v epoch 2", m, view.Epoch(), members)
		}
		if cl.Migrated.Bytes == 0 {
			t.Error("bounce migrated no bytes")
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after bounce returned wrong bytes")
		}
		assertPlacementHeld(t, p, r, cl, view, ino, expect)
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticShardedRetireJoinUnderLoad retires a member of a sharded
// cluster and joins it back while a second client keeps extending and
// overwriting a file: both changes run online, and every byte the
// writer wrote reads back exact through the committed placement. Once
// the Join is copying, the writer also extends a second file g onto a
// stripe the joiner will not hold: the joiner sees neither that write
// nor its size publish, so only the cutover's re-image gives it the
// file's global size — which a joiner must hold, since it can be an
// inode's metadata home after the cutover.
func TestElasticShardedRetireJoinUnderLoad(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		cl, view, dir, ino, expect := shardedFile(t, p, r, 16*testStripe)
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "g"})
		if err != nil {
			t.Fatal(err)
		}
		g := resp.Attr.Ino
		elasticWrite(t, p, r, cl, g, 0, pattern(testStripe))
		w := r.clusterOf(t, p, 20, platform.Desc{Replicas: 2, Stripe: testStripe, Window: 4, Timeout: faultTimeout, Sharded: true})
		w.AttachView(view)

		// The writer alternates an append to f with an overwrite further
		// back, half a stripe each, a fresh fill byte per write, paced so
		// the migration's copy outruns it. Stripe 1 of g lives on slots 2
		// and 3 under members [0 2 3] and [0 2 3 1] alike.
		va, vec := r.kbuf(t, testStripe)
		var joinCopying func() bool
		stop, exited, grewG := false, false, false
		r.env.Spawn("writer", func(wp *sim.Proc) {
			defer func() { exited = true }()
			write := func(ino kernel.InodeID, off int, data []byte) bool {
				if err := r.client.Kernel.WriteBytes(va, data); err != nil {
					t.Error(err)
					return false
				}
				if resp, err := w.Write(wp, ino, int64(off), vec.Slice(0, len(data))); err != nil || int(resp.N) != len(data) {
					t.Errorf("writer: write inode %d [%d,%d): n=%d err=%v", ino, off, off+len(data), resp.N, err)
					return false
				}
				return true
			}
			for k := 0; !stop; k++ {
				if !grewG && joinCopying != nil && joinCopying() {
					if !write(g, testStripe, pattern(testStripe)) {
						return
					}
					grewG = true
				}
				data := bytes.Repeat([]byte{byte(k + 1)}, testStripe/2)
				off := len(expect)
				if k%2 == 1 {
					off = (k * 3 * testStripe / 2) % (len(expect) - len(data))
				}
				if !write(ino, off, data) {
					return
				}
				if off == len(expect) {
					expect = append(expect, data...)
				} else {
					copy(expect[off:], data)
				}
				wp.Sleep(50 * time.Microsecond)
			}
		})
		defer func() { stop = true }() // a failing check must not leave the writer running forever

		p.Sleep(200 * time.Microsecond)
		before := len(expect)
		if err := cl.Retire(p, 1); err != nil {
			t.Fatalf("retire: %v", err)
		}
		retired := cl.Migrated.Bytes
		joinCopying = func() bool { return cl.Migrated.Bytes > retired }
		if err := cl.Join(p, 1); err != nil {
			t.Fatalf("join: %v", err)
		}
		if len(expect) <= before || !grewG {
			t.Fatalf("the writer did not write during the changes (f: %d bytes before, %d after; g extended: %v)", before, len(expect), grewG)
		}
		// Still the cutover instant: the writer is parked at the fence
		// with its last write, size publish included, complete.
		for _, f := range []struct {
			ino  kernel.InodeID
			size int
		}{{ino, len(expect)}, {g, 2 * testStripe}} {
			if got := r.serverFS[1].LocalSize(f.ino); got != int64(f.size) {
				t.Errorf("joiner's local size of inode %d is %d at the cutover, want the global %d", f.ino, got, f.size)
			}
		}
		p.Sleep(200 * time.Microsecond)
		stop = true
		for !exited {
			p.Sleep(10 * time.Microsecond)
		}
		if m := view.Members(); !equalInts(m, []int{0, 2, 3, 1}) || view.Epoch() != 2 {
			t.Fatalf("after retire+join: members %v epoch %d, want [0 2 3 1] epoch 2", m, view.Epoch())
		}
		if got := elasticReadBack(t, p, r, cl, ino, len(expect)); !bytes.Equal(got, expect) {
			t.Fatal("read after retire+join under load returned wrong bytes")
		}
		assertPlacementHeld(t, p, r, cl, view, ino, expect)
		assertWindowsIdle(t, cl)
		assertWindowsIdle(t, w)
		r.checkNoLeaks(t)
	})
}

// shardedFile builds the sharded R=2 operator of a Bounce over the rig
// (view shared) and writes one file of size bytes
// into a directory owned by server 1's group. It returns the cluster,
// its view, the directory, the file and the file's bytes.
func shardedFile(t *testing.T, p *sim.Proc, r *clusterRig, size int) (*rfsrv.Cluster, *rfsrv.MemberView, kernel.InodeID, kernel.InodeID, []byte) {
	t.Helper()
	cl := r.shardClient(t, p, 2)
	view := cl.ShareView()
	dir := mkdirRes(t, p, cl, len(r.servers), 1, "dir")
	resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "f"})
	if err != nil {
		t.Fatal(err)
	}
	expect := pattern(size)
	elasticWrite(t, p, r, cl, resp.Attr.Ino, 0, expect)
	return cl, view, dir, resp.Attr.Ino, expect
}

// killWhen spawns a proc that cuts node's NIC the first instant cond
// holds, polling every microsecond; the returned func stops it.
func killWhen(r *clusterRig, node int, cond func() bool) (stop func()) {
	done := false
	r.env.Spawn("killer", func(kp *sim.Proc) {
		for !done {
			if cond() {
				r.servers[node].NIC.Kill()
				return
			}
			kp.Sleep(time.Microsecond)
		}
	})
	return func() { done = true }
}

// TestElasticBounceFaultMidCopyCommitsNothing cuts a receiving
// server's NIC while a sharded Bounce copies stripes over the wire.
// The copy runs before anything commits, so the Bounce must fail with
// a fault and leave every server's member epoch, the shared view and
// every byte as they were; after Revive + Reinstate a retried Bounce
// completes with every byte intact.
func TestElasticBounceFaultMidCopyCommitsNothing(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		const size = 48 * testStripe
		cl, view, _, ino, expect := shardedFile(t, p, r, size)
		members := view.Members()

		// Bouncing 1 first retires it, and servers 0, 2 and 3 receive the
		// stripes it held: cut 3 once that copy is under way.
		stop := killWhen(r, 3, func() bool { return cl.Migrated.Bytes > 0 })
		err := cl.Bounce(p, 1)
		stop()
		if !fabric.IsFault(err) {
			t.Fatalf("bounce with a receiver cut mid-copy: err = %v, want a fault", err)
		}
		if m := view.Members(); !equalInts(m, members) || view.Epoch() != 0 {
			t.Fatalf("failed bounce moved the view: members %v epoch %d", m, view.Epoch())
		}
		for i, srv := range r.rsrv {
			if e := srv.MemberEpoch(); e != 0 {
				t.Errorf("server %d committed member epoch %d during a bounce that failed", i, e)
			}
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after the failed bounce returned wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)

		r.servers[3].NIC.Revive()
		for _, s := range cl.DownServers() {
			if err := cl.Reinstate(p, s); err != nil {
				t.Fatalf("reinstate slot %d before retry: %v", s, err)
			}
		}
		if err := cl.Bounce(p, 1); err != nil {
			t.Fatalf("bounce retry: %v", err)
		}
		if m := view.Members(); !equalInts(m, members) || view.Epoch() != 2 {
			t.Fatalf("after retried bounce: members %v epoch %d, want %v epoch 2", m, view.Epoch(), members)
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after the retried bounce returned wrong bytes")
		}
		assertPlacementHeld(t, p, r, cl, view, ino, expect)
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticSpillResyncFaultMidCopy cuts the returning server's NIC
// while the full-slice resync of its spilled journal copies stripes
// back over the wire: Reinstate must fail with the slot still excluded
// and its journal still spilled, and succeed — byte-exact through the
// returning server — once the NIC is revived.
func TestElasticSpillResyncFaultMidCopy(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		cl.SetJournalLimits(1, 0)
		const size = 12 * testStripe
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
			expect[i] = b ^ 0x42
		}
		elasticWrite(t, p, r, cl, ino, 0, expect)
		if !cl.JournalSpilled(1) {
			t.Fatal("two mutations under a one-op cap did not spill the journal")
		}

		r.servers[1].NIC.Revive()
		stop := killWhen(r, 1, func() bool { return cl.ResyncBytes.Bytes > 0 })
		err := cl.Reinstate(p, 1)
		stop()
		if err == nil {
			t.Fatal("reinstate with the target cut mid-copy: want error")
		}
		if down := cl.DownServers(); !equalInts(down, []int{1}) {
			t.Fatalf("down = %v after the failed resync, want [1]", down)
		}
		if !cl.JournalSpilled(1) {
			t.Fatal("the failed resync unspilled the journal; the retry would replay nothing")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)

		r.servers[1].NIC.Revive()
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate retry: %v", err)
		}
		if down := cl.DownServers(); len(down) != 0 {
			t.Fatalf("down = %v after the retry, want none", down)
		}
		assertPlacementHeld(t, p, r, cl, nil, ino, expect)
		r.servers[0].NIC.Kill()
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Error("read through the resynced server returned wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticSpillResyncFaultMidImport cuts the returning server's NIC
// the instant the namespace image of its full-slice resync reaches it:
// Reinstate must fail before a single stripe is copied, with the slot
// still excluded and its journal still spilled, and succeed — namespace
// and bytes exact — once the NIC is revived.
func TestElasticSpillResyncFaultMidImport(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		cl.SetJournalLimits(1, 0)
		const size = 6 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		expect := pattern(size)
		elasticWrite(t, p, r, cl, ino, 0, expect)

		r.servers[1].NIC.Kill()
		for _, name := range []string{"d1", "d2"} {
			if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: name}); err != nil {
				t.Fatalf("mkdir %s: %v", name, err)
			}
		}
		if !cl.JournalSpilled(1) {
			t.Fatal("two mutations under a one-op cap did not spill the journal")
		}

		// The excluded server hears nothing until the resync's import
		// arrives: cut it then.
		r.servers[1].NIC.Revive()
		nic := r.servers[1].NIC
		heard := nic.RxMsgs.N
		stop := killWhen(r, 1, func() bool { return nic.RxMsgs.N > heard })
		err := cl.Reinstate(p, 1)
		stop()
		if !fabric.IsFault(err) {
			t.Fatalf("reinstate with the target cut mid-import: err = %v, want a fault", err)
		}
		if cl.ResyncBytes.Bytes != 0 {
			t.Fatalf("the resync copied %d bytes after its image transfer failed", cl.ResyncBytes.Bytes)
		}
		if down := cl.DownServers(); !equalInts(down, []int{1}) || !cl.JournalSpilled(1) {
			t.Fatalf("down = %v, spilled = %v after the failed import, want [1] and spilled", down, cl.JournalSpilled(1))
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)

		r.servers[1].NIC.Revive()
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate retry: %v", err)
		}
		for _, name := range []string{"d1", "d2"} {
			if _, err := r.serverFS[1].Lookup(p, r.serverFS[1].Root(), name); err != nil {
				t.Errorf("resynced server missing %q: %v", name, err)
			}
		}
		assertPlacementHeld(t, p, r, cl, nil, ino, expect)
		r.servers[0].NIC.Kill()
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Error("read through the resynced server returned wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticBounceFaultMidStageCommitsNothing cuts a member's NIC while
// a sharded Bounce stages its cutover images: the first member already
// holds its staged image, the cut one never receives its own. Staged
// images apply only at the commit, so nothing commits: every server's
// member epoch stays 0, the view is unchanged and every byte reads back;
// after Revive + Reinstate a retried Bounce completes.
func TestElasticBounceFaultMidStageCommitsNothing(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		const size = 8 * testStripe
		cl, view, dir, ino, expect := shardedFile(t, p, r, size)
		members := view.Members()

		// Bouncing 1 first retires it: its cutover stages images on 0, 2
		// and 3, in that order. Cut 3 once 0 holds its image.
		stop := killWhen(r, 3, r.rsrv[0].StagedImage)
		err := cl.Bounce(p, 1)
		stop()
		if !fabric.IsFault(err) {
			t.Fatalf("bounce with a member cut mid-stage: err = %v, want a fault", err)
		}
		if m := view.Members(); !equalInts(m, members) || view.Epoch() != 0 {
			t.Fatalf("failed bounce moved the view: members %v epoch %d", m, view.Epoch())
		}
		for i, srv := range r.rsrv {
			if e := srv.MemberEpoch(); e != 0 {
				t.Errorf("server %d committed member epoch %d during a bounce that failed", i, e)
			}
		}
		if a, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dir, Name: "f"}); err != nil || a.Attr.Ino != ino {
			t.Fatalf("lookup after the failed bounce: ino=%d err=%v, want %d", a.Attr.Ino, err, ino)
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after the failed bounce returned wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)

		r.servers[3].NIC.Revive()
		for _, s := range cl.DownServers() {
			if err := cl.Reinstate(p, s); err != nil {
				t.Fatalf("reinstate slot %d before retry: %v", s, err)
			}
		}
		if err := cl.Bounce(p, 1); err != nil {
			t.Fatalf("bounce retry: %v", err)
		}
		if m := view.Members(); !equalInts(m, members) || view.Epoch() != 2 {
			t.Fatalf("after retried bounce: members %v epoch %d, want %v epoch 2", m, view.Epoch(), members)
		}
		for i, srv := range r.rsrv {
			if srv.StagedImage() {
				t.Errorf("server %d still holds a staged image after the commit", i)
			}
		}
		assertPlacementHeld(t, p, r, cl, view, ino, expect)
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticBounceCopyTakesWireTime pins that a stop-world Bounce's
// stripe copy is real traffic: every migrated byte leaves the
// operator's node through its one link, so a Bounce that moves several
// MB takes at least Migrated.Bytes ÷ link bandwidth of virtual time.
func TestElasticBounceCopyTakesWireTime(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		const size = 4 << 20
		cl, view, _, ino, expect := shardedFile(t, p, r, size)
		start, before := p.Now(), cl.Migrated.Bytes
		if err := cl.Bounce(p, 1); err != nil {
			t.Fatalf("bounce: %v", err)
		}
		took, moved := p.Now()-start, cl.Migrated.Bytes-before
		if moved < size {
			t.Fatalf("bounce of a %d-byte file moved %d bytes, want several MB", size, moved)
		}
		hwc := r.rig.HW
		if floor := hwc.Params.LinkTime(hwc.Model, int(moved)); took < floor {
			t.Errorf("bounce moved %d bytes in %v, less than their %v on one link", moved, took, floor)
		}
		if got := elasticReadBack(t, p, r, cl, ino, size); !bytes.Equal(got, expect) {
			t.Fatal("read after bounce returned wrong bytes")
		}
		assertPlacementHeld(t, p, r, cl, view, ino, expect)
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestElasticOwnViewClientGoesStale runs a membership change behind
// a client that stayed on the view it owns instead of attaching to the
// operator's, and requires that client's next operation to fail with
// ErrStaleMembership (replies carry the new epoch) and every later one
// to keep failing — the latch that stops a stale client from reading
// re-placed data through the old geometry.
func TestElasticOwnViewClientGoesStale(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		op := r.clusterRep(t, p, 4, testStripe, 2)
		if err := op.SetMembers(3); err != nil {
			t.Fatal(err)
		}
		op.ShareView()

		// A second cluster on the same client node needs its own local
		// endpoints (clusterRep claims 10+i).
		other := r.handBuilt(t, p, 20, 2)
		if err := other.SetMembers(3); err != nil {
			t.Fatal(err)
		}
		const size = 2 * testStripe
		ino := clusterCreate(t, p, other, "f")
		elasticWrite(t, p, r, other, ino, 0, pattern(size))

		if err := op.Join(p, 3); err != nil {
			t.Fatalf("join: %v", err)
		}

		// The first reply stamped with the new epoch poisons the other
		// cluster (the op itself still completes — its routing was
		// consistent); everything after fails at the entry gate.
		_, rvec := r.kbuf(t, size)
		if _, err := other.Read(p, ino, 0, rvec); err != nil {
			t.Fatalf("poisoning read: %v", err)
		}
		if _, err := other.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); !errors.Is(err, rfsrv.ErrStaleMembership) {
			t.Fatalf("getattr after the latch: %v, want ErrStaleMembership", err)
		}
		if _, err := other.Read(p, ino, 0, rvec); !errors.Is(err, rfsrv.ErrStaleMembership) {
			t.Fatalf("read after the latch: %v, want ErrStaleMembership", err)
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
// every replay verdict class — a mkdir, creates, an idempotent unlink,
// a local rename — beside an epoch-bumping truncate and dirty data, and
// requires the journal to hold namespace verbs only (the truncate is
// state the re-image carries), a clean Reinstate to land it through
// combined batches alone (no verification batch), and the victim's
// resulting state — names, size and bytes — to equal
// a server that applied the same mutations live.
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
		for _, req := range cl.JournaledReqs(1) {
			switch req.Op {
			case rfsrv.OpSetSize, rfsrv.OpTruncate:
				t.Errorf("the journal holds a size verb (op %d): sizes are re-imaged, not replayed", req.Op)
			}
		}

		r.servers[1].NIC.Revive()
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate: %v", err)
		}
		if n := cl.ResyncFallbacks.N; n != 0 {
			t.Errorf("ResyncFallbacks = %d after a clean replay, want 0 (no verification batch)", n)
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
