package rfsrv_test

// Fault-injected cluster tests: replicated reads failing over a killed
// server, writes tolerating a lost replica, timeout-driven slot and
// staging recovery (with fabric.Pool.CheckLeaks asserting nothing can
// ever recycle), OpSetSize reconciliation retry after a transient
// fault, cross-client truncate-then-overwrite coherence, and the
// Reinstate contract (a missed mutation replayed, every size-cache
// entry kept across a readmission, reconciliation across an excluded
// home).

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	platform "repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/vm"
)

// faultTimeout is the per-request reply deadline used by the fault
// tests: far above any healthy round trip in these tiny rigs, far
// below the point a hang would look like progress.
const faultTimeout = 2 * time.Millisecond

// clusterRep builds a replicated striped client over the rig: one
// kernel-side MX session per server on distinct endpoints, every
// session with the reply deadline armed.
func (r *clusterRig) clusterRep(t *testing.T, p *sim.Proc, window, stripe, replicas int) *rfsrv.Cluster {
	t.Helper()
	return r.clusterRepAt(t, p, 10, window, stripe, replicas)
}

// clusterRepAt is clusterRep on local endpoints epBase+i: a second
// cluster on the rig's one client node needs endpoints of its own.
func (r *clusterRig) clusterRepAt(t *testing.T, p *sim.Proc, epBase, window, stripe, replicas int) *rfsrv.Cluster {
	t.Helper()
	return r.clusterOf(t, p, epBase, platform.Desc{Replicas: replicas, Stripe: stripe, Window: window, Timeout: faultTimeout})
}

// checkNoLeaks asserts every node's shared fabric pool has nothing
// that can never recycle — the PR's leak bar for the fault paths.
func (r *clusterRig) checkNoLeaks(t *testing.T) {
	t.Helper()
	if err := fabric.PoolOf(r.client).CheckLeaks(); err != nil {
		t.Errorf("client pool: %v", err)
	}
	for i, srv := range r.servers {
		if err := fabric.PoolOf(srv).CheckLeaks(); err != nil {
			t.Errorf("server %d pool: %v", i, err)
		}
	}
}

// assertWindowsIdle asserts no session of the cluster still holds
// window slots (every pending retired).
func assertWindowsIdle(t *testing.T, cl *rfsrv.Cluster) {
	t.Helper()
	for i, s := range cl.Sessions() {
		if s.InFlight() != 0 {
			t.Errorf("server %d session still holds %d window slots", i, s.InFlight())
		}
	}
}

// TestClusterReadFailoverAfterKill kills one of three servers between
// a replicated write and a full read-back: every stripe owned by the
// victim must be served by its replica, byte-exact, with the victim
// recorded as excluded — and no pooled staging may leak anywhere.
func TestClusterReadFailoverAfterKill(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		const size = 9 * testStripe
		data := pattern(size)
		ino := clusterCreate(t, p, cl, "f")
		va, vec := r.kbuf(t, size)
		if err := r.client.Kernel.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		if resp, err := cl.Write(p, ino, 0, vec); err != nil || int(resp.N) != size {
			t.Fatalf("replicated write: n=%d err=%v", resp.N, err)
		}
		// Replica placement: every stripe must be on its primary AND the
		// next server.
		pagesPerStripe := testStripe / mem.PageSize
		for k := 0; k < size/testStripe; k++ {
			for rep := 0; rep < 2; rep++ {
				s := (k + rep) % 3
				if r.serverFS[s].FrameAt(ino, int64(k*pagesPerStripe)) == nil {
					t.Fatalf("stripe %d missing on replica %d (server %d)", k, rep, s)
				}
			}
		}

		r.servers[0].NIC.Kill()

		rva, rvec := r.kbuf(t, size)
		resp, err := cl.Read(p, ino, 0, rvec)
		if err != nil || int(resp.N) != size {
			t.Fatalf("read across kill: n=%d err=%v", resp.N, err)
		}
		got, _ := r.client.Kernel.ReadBytes(rva, size)
		if !bytes.Equal(got, data) {
			t.Fatal("failover read returned wrong bytes")
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 0 {
			t.Fatalf("down servers = %v, want [0]", down)
		}
		if cl.Failovers.N == 0 {
			t.Error("no failovers counted across a kill")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestClusterPipelinedFailoverReleasesSlots is the bar for the async
// path: striped reads are mid-flight through the windows when the
// victim dies, so some parts fault at Wait (timeout or dead-peer)
// while siblings complete. Every drained part must release its window
// slot and its pooled staging; the reads must still return the right
// bytes via failover. Each one-stripe read takes a slot on both
// replicas (one per read slice), so three reads fill the windows of 2
// on 3 servers, and the Async contract's CanStart says so.
func TestClusterPipelinedFailoverReleasesSlots(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 2, testStripe, 2)
		const size = 12 * testStripe
		data := pattern(size)
		ino := clusterCreate(t, p, cl, "f")
		va, vec := r.kbuf(t, size)
		if err := r.client.Kernel.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}

		// Fill the windows with stripe reads, then kill the victim while
		// they are in flight.
		var pds []rfsrv.PendingOp
		var vas []vm.VirtAddr
		for k := 0; k < 3; k++ {
			if !cl.CanStart(ino, int64(k)*testStripe, testStripe) {
				t.Fatalf("read %d: CanStart false with %d of %d slots in flight", k, cl.InFlight(), cl.Window())
			}
			rva, rvec := r.kbuf(t, testStripe)
			pd, err := cl.StartRead(p, ino, int64(k)*testStripe, rvec)
			if err != nil {
				t.Fatal(err)
			}
			pds, vas = append(pds, pd), append(vas, rva)
		}
		if cl.InFlight() != cl.Window() || cl.CanStart(ino, 3*testStripe, testStripe) {
			t.Fatalf("three stripe reads hold %d of %d slots, CanStart %v; want the windows full",
				cl.InFlight(), cl.Window(), cl.CanStart(ino, 3*testStripe, testStripe))
		}
		r.servers[0].NIC.Kill()
		for k, pd := range pds {
			resp, err := pd.Wait(p)
			if err != nil || int(resp.N) != testStripe {
				t.Fatalf("pipelined read %d across kill: n=%d err=%v", k, resp.N, err)
			}
			got, _ := r.client.Kernel.ReadBytes(vas[k], testStripe)
			if want := data[k*testStripe : (k+1)*testStripe]; !bytes.Equal(got, want) {
				t.Fatalf("pipelined read %d across kill returned wrong bytes", k)
			}
		}
		if cl.Failovers.N == 0 {
			t.Error("no failovers counted across a kill")
		}
		// And a second full pass after the exclusion settled.
		rva, rvec := r.kbuf(t, size)
		resp, err := cl.Read(p, ino, 0, rvec)
		if err != nil || int(resp.N) != size {
			t.Fatalf("post-exclusion read: n=%d err=%v", resp.N, err)
		}
		got, _ := r.client.Kernel.ReadBytes(rva, size)
		if !bytes.Equal(got, data) {
			t.Fatal("post-exclusion read returned wrong bytes")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestClusterWriteSurvivesReplicaLoss kills a server and then writes:
// runs whose primary died land on the replica alone, the write
// reports full success, the data reads back, and namespace mutations
// keep working with the victim excluded instead of reporting
// divergence.
func TestClusterWriteSurvivesReplicaLoss(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		const size = 6 * testStripe
		data := pattern(size)
		ino := clusterCreate(t, p, cl, "f")

		r.servers[1].NIC.Kill()

		va, vec := r.kbuf(t, size)
		if err := r.client.Kernel.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Write(p, ino, 0, vec)
		if err != nil || int(resp.N) != size {
			t.Fatalf("write with dead replica: n=%d err=%v", resp.N, err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down servers = %v, want [1]", down)
		}
		// Namespace mutations must tolerate the exclusion (no divergence).
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: "d"}); err != nil {
			t.Fatalf("mkdir with excluded server: %v", err)
		}
		rva, rvec := r.kbuf(t, size)
		resp, err = cl.Read(p, ino, 0, rvec)
		if err != nil || int(resp.N) != size {
			t.Fatalf("read back: n=%d err=%v", resp.N, err)
		}
		got, _ := r.client.Kernel.ReadBytes(rva, size)
		if !bytes.Equal(got, data) {
			t.Fatal("read back wrong bytes after degraded write")
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestClusterAllReplicasDownFails pins the failure floor: with every
// replica of a stripe excluded, reads and writes report a fault error
// (fabric.IsFault) instead of hanging or fabricating data.
func TestClusterAllReplicasDownFails(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 2, testStripe, 2)
		const size = 2 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		va, vec := r.kbuf(t, size)
		if err := r.client.Kernel.WriteBytes(va, pattern(size)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}
		r.servers[0].NIC.Kill()
		r.servers[1].NIC.Kill()
		rva, rvec := r.kbuf(t, size)
		_, err := cl.Read(p, ino, 0, rvec)
		if err == nil {
			t.Fatal("read with every server dead succeeded")
		}
		if !fabric.IsFault(err) {
			t.Fatalf("read error %v is not a transport fault", err)
		}
		if _, err := cl.Write(p, ino, 0, vec); err == nil || !fabric.IsFault(err) {
			t.Fatalf("write with every server dead: err=%v, want fault", err)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
		_ = rva
	})
}

// TestClusterSetSizeRetryAfterTransientFault is the PR 4 satellite-2
// regression carried into the coherence protocol: a transient fault
// (stalled NIC, longer than the reply deadline) hits exactly the
// OpSetSize reconciliation fan-out of a write whose data lives
// entirely on the other server. The write must still succeed with the
// stalled server excluded and its local size stale; after the stall
// clears and the operator reinstates the server (allowed: no namespace
// or exact-size mutation ran during the exclusion), RE-RUNNING the
// same write must replay OpSetSize — grow-only, idempotent, so
// replaying against a server that meanwhile caught up (or not)
// converges every local size. (The entry was established during the
// exclusion, so the targeted invalidation drops it at Reinstate; the
// file is additionally chosen with its hashed metadata home on the
// faulting server, so homed getattr routing is exercised across the
// exclusion too.) A second explicit replay pins the idempotence
// itself.
func TestClusterSetSizeRetryAfterTransientFault(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 2, testStripe, 1)
		// Pick a file homed on server 1: its single stripe lives on
		// server 0, so data and reconciliation hit disjoint servers and
		// the home is exactly the one that faults.
		var ino kernel.InodeID
		for i := 0; i < 16; i++ {
			cand := clusterCreate(t, p, cl, fmt.Sprintf("f%d", i))
			if cl.HomeServer(cand) == 1 {
				ino = cand
				break
			}
		}
		if ino == 0 {
			t.Fatal("no candidate file homed on server 1")
		}
		va, vec := r.kbuf(t, testStripe)
		if err := r.client.Kernel.WriteBytes(va, pattern(testStripe)); err != nil {
			t.Fatal(err)
		}

		r.servers[1].NIC.StallFor(10 * faultTimeout)
		resp, err := cl.Write(p, ino, 0, vec)
		if err != nil || int(resp.N) != testStripe {
			t.Fatalf("write across stalled reconciliation: n=%d err=%v", resp.N, err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down servers = %v, want [1] (setsize fan-out faulted)", down)
		}
		if a, _ := r.serverFS[0].Getattr(p, ino); a.Size != testStripe {
			t.Fatalf("data server size = %d, want %d", a.Size, testStripe)
		}

		// Let the stall clear (and its late deliveries drain), then
		// reinstate and re-run the same write: its size publish must replay.
		p.Sleep(20 * faultTimeout)
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate after mutation-free exclusion: %v", err)
		}
		resp, err = cl.Write(p, ino, 0, vec)
		if err != nil || int(resp.N) != testStripe {
			t.Fatalf("re-run write after transient fault: n=%d err=%v", resp.N, err)
		}
		for s, fs := range r.serverFS {
			if a, _ := fs.Getattr(p, ino); a.Size != testStripe {
				t.Fatalf("server %d size = %d after retry, want %d", s, a.Size, testStripe)
			}
		}
		if len(cl.DownServers()) != 0 {
			t.Fatalf("server still excluded after reinstate+retry: %v", cl.DownServers())
		}

		// Idempotence proper: replaying a grow-mode OpSetSize against
		// already-extended servers changes nothing. The cluster refuses
		// the internal verb, so the replay goes to each server through
		// its own session, stamped with the epoch that server reports.
		before := make([]int64, len(r.serverFS))
		for s, fs := range r.serverFS {
			a, _ := fs.Getattr(p, ino)
			before[s] = a.Size
		}
		for s, sess := range cl.Sessions() {
			attr, err := sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
			if err != nil {
				t.Fatalf("getattr on server %d: %v", s, err)
			}
			grow := rfsrv.Req{Op: rfsrv.OpSetSize, Ino: ino, Off: testStripe, Len: rfsrv.PackSetSize(false, attr.Epoch)}
			if _, err := sess.Meta(p, &grow); err != nil {
				t.Fatalf("explicit OpSetSize replay on server %d: %v", s, err)
			}
		}
		for s, fs := range r.serverFS {
			if a, _ := fs.Getattr(p, ino); a.Size != before[s] {
				t.Fatalf("OpSetSize replay changed server %d size %d -> %d", s, before[s], a.Size)
			}
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestClusterCrossClientExtend is the coherence acceptance test for
// the size-epoch protocol — it used to PIN the opposite (stale)
// behaviour. Client B establishes a large size, client A truncates
// the file (an exact OpSetSize, bumping the replicated size epoch),
// and B's next overwrite below its stale cached size must now DETECT
// the foreign truncate from its data replies' epochs and re-run the
// reconciliation, so every server — and the homed getattr both
// clients see — agrees on the true end of file.
func TestClusterCrossClientExtend(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		mkCluster := func(baseEP uint8) *rfsrv.Cluster {
			sessions := make([]*rfsrv.Session, len(r.servers))
			for i, srv := range r.servers {
				fc, err := rfsrv.NewMXClient(r.clientMX, baseEP+uint8(i), true, r.client.Kernel, srv.ID, 1)
				if err != nil {
					t.Fatal(err)
				}
				var serr error
				if sessions[i], serr = rfsrv.NewSession(p, fc, 4); serr != nil {
					t.Fatal(serr)
				}
			}
			cl, err := rfsrv.NewCluster(p, sessions, testStripe)
			if err != nil {
				t.Fatal(err)
			}
			return cl
		}
		clA := mkCluster(10)
		clB := mkCluster(20)

		const full = 4 * testStripe
		ino := clusterCreate(t, p, clA, "f")

		// B writes the whole file: B's cache records size=full, every
		// server reconciled.
		vaB, vecB := r.kbuf(t, full)
		if err := r.client.Kernel.WriteBytes(vaB, pattern(full)); err != nil {
			t.Fatal(err)
		}
		if _, err := clB.Write(p, ino, 0, vecB); err != nil {
			t.Fatal(err)
		}

		// A truncates to one stripe. A's fan-out shrinks every server
		// and bumps the size epoch; B's cache still says full.
		if _, err := clA.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: testStripe}); err != nil {
			t.Fatal(err)
		}

		// B overwrites [0, 2 stripes): below B's stale cached size. The
		// data replies carry the bumped epoch, B invalidates its entry
		// and re-reconciles — every server must agree EOF = 2S.
		if _, err := clB.Write(p, ino, 0, vecB.Slice(0, 2*testStripe)); err != nil {
			t.Fatal(err)
		}
		for s, fs := range r.serverFS {
			a, err := fs.Getattr(p, ino)
			if err != nil || a.Size != 2*testStripe {
				t.Fatalf("server %d local size = %d (%v), want %d: truncate-then-overwrite must reconcile", s, a.Size, err, 2*testStripe)
			}
		}
		// Homed getattr agrees everywhere, through either client.
		for name, cl := range map[string]*rfsrv.Cluster{"A": clA, "B": clB} {
			resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
			if err != nil || resp.Attr.Size != 2*testStripe {
				t.Fatalf("client %s homed getattr = %d (%v), want %d", name, resp.Attr.Size, err, 2*testStripe)
			}
		}
		// And the full range reads back at the reconciled length.
		rva, rvec := r.kbuf(t, 2*testStripe)
		resp, err := clB.Read(p, ino, 0, rvec)
		if err != nil || int(resp.N) != 2*testStripe {
			t.Fatalf("read after reconcile: n=%d err=%v, want %d", resp.N, err, 2*testStripe)
		}
		_ = rva

		// Second foreign truncate, overwrite entirely BELOW the new
		// size: nothing may resurrect the cut bytes — EOF stays at the
		// truncated size on every server.
		if _, err := clA.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: testStripe}); err != nil {
			t.Fatal(err)
		}
		if _, err := clB.Write(p, ino, 0, vecB.Slice(0, testStripe/2)); err != nil {
			t.Fatal(err)
		}
		for s, fs := range r.serverFS {
			if a, _ := fs.Getattr(p, ino); a.Size != testStripe {
				t.Fatalf("server %d size = %d after below-EOF overwrite, want %d (no resurrection)", s, a.Size, testStripe)
			}
		}

		// A size-extending write from B still reconciles everywhere.
		vaX, vecX := r.kbuf(t, full+testStripe)
		if err := r.client.Kernel.WriteBytes(vaX, pattern(full+testStripe)); err != nil {
			t.Fatal(err)
		}
		if _, err := clB.Write(p, ino, 0, vecX); err != nil {
			t.Fatal(err)
		}
		for s, fs := range r.serverFS {
			if a, _ := fs.Getattr(p, ino); a.Size != full+testStripe {
				t.Fatalf("server %d size = %d after extending write, want %d", s, a.Size, full+testStripe)
			}
		}
	})
}

// TestClusterHomedGetattrExcludesStaleHome: a homed getattr in the
// replicated namespace must not serve a size from a home that missed a
// truncate this client has already observed. Client A excludes the
// file's home (server 1) and truncates with only server 0 alive; B then
// reads the file from server 0, whose reply carries the truncate's size
// epoch, and its getattr reaches the stale home — whose answer is
// behind that epoch, so B excludes it and asks server 0.
func TestClusterHomedGetattrExcludesStaleHome(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		clA := r.clusterRepAt(t, p, 10, 2, testStripe, 1)
		clB := r.clusterRepAt(t, p, 20, 2, testStripe, 1)
		var ino kernel.InodeID
		for i := 0; i < 16 && ino == 0; i++ {
			if cand := clusterCreate(t, p, clA, fmt.Sprintf("f%d", i)); clA.HomeServer(cand) == 1 {
				ino = cand
			}
		}
		if ino == 0 {
			t.Fatal("no candidate file homed on server 1")
		}
		_, vec := r.kbuf(t, 2*testStripe)
		if _, err := clA.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}
		r.servers[1].NIC.StallFor(10 * faultTimeout)
		if _, err := clA.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil {
			t.Fatalf("getattr failing over from the stalled home: %v", err)
		}
		if down := clA.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("A's down servers = %v, want [1]", down)
		}
		if _, err := clA.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: testStripe / 2}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(20 * faultTimeout) // the stall clears; server 1 still holds 2 stripes

		_, rvec := r.kbuf(t, testStripe)
		if resp, err := clB.Read(p, ino, 0, rvec); err != nil || resp.N != testStripe/2 {
			t.Fatalf("B's read from server 0: n=%d err=%v, want %d", resp.N, err, testStripe/2)
		}
		resp, err := clB.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
		if err != nil || resp.Attr.Size != testStripe/2 {
			t.Fatalf("B's homed getattr = %d (%v), want the truncated %d", resp.Attr.Size, err, testStripe/2)
		}
		if down := clB.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Errorf("B's down servers = %v, want the stale home [1]", down)
		}
	})
}

// TestClusterZeroLengthWritePublishesNoSize: a zero-length write is one
// attr-only request to its offset's replica; it extends nothing, so it
// publishes no size to the other servers.
func TestClusterZeroLengthWritePublishesNoSize(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 2, testStripe)
		ino := clusterCreate(t, p, cl, "f")
		va, _ := r.kbuf(t, mem.PageSize)
		empty := core.Of(core.KernelSeg(r.client.Kernel, va, 0))
		if resp, err := cl.Write(p, ino, 3*testStripe, empty); err != nil || resp.N != 0 {
			t.Fatalf("zero-length write: n=%d err=%v", resp.N, err)
		}
		if cl.SetSizes.N != 0 {
			t.Errorf("a zero-length write sent %d size publishes", cl.SetSizes.N)
		}
		if a, _ := r.serverFS[0].Getattr(p, ino); a.Size != 0 {
			t.Errorf("server 0, which the write does not address, holds size %d", a.Size)
		}
	})
}

// TestClusterEOFAtStripeBoundary is the satellite-4 off-by-one sweep:
// EOF falling exactly ON a stripe boundary and one byte PAST it, over
// 1, 3 and 8 servers — the run-splitting edges where an off-by-one in
// the EOF clip or the contiguous-prefix merge would show.
func TestClusterEOFAtStripeBoundary(t *testing.T) {
	for _, nServers := range []int{1, 3, 8} {
		nServers := nServers
		t.Run(fmt.Sprintf("%dservers", nServers), func(t *testing.T) {
			r := newClusterRig(t, nServers)
			r.run(t, func(p *sim.Proc) {
				cl := r.cluster(t, p, 4, testStripe)
				for _, size := range []int{4 * testStripe, 4*testStripe + 1} {
					name := fmt.Sprintf("f%d", size)
					ino := clusterCreate(t, p, cl, name)
					data := pattern(size)
					va, vec := r.kbuf(t, size)
					if err := r.client.Kernel.WriteBytes(va, data); err != nil {
						t.Fatal(err)
					}
					if resp, err := cl.Write(p, ino, 0, vec); err != nil || int(resp.N) != size {
						t.Fatalf("size %d: write n=%d err=%v", size, resp.N, err)
					}
					if resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil || resp.Attr.Size != int64(size) {
						t.Fatalf("size %d: getattr=%d err=%v", size, resp.Attr.Size, err)
					}
					reads := []struct {
						off  int64
						len  int
						want int
					}{
						// Straddle the last whole stripe into EOF.
						{3 * testStripe, 2 * testStripe, size - 3*testStripe},
						// Start exactly at the stripe-boundary EOF (or one
						// short of the tail byte).
						{4 * testStripe, testStripe, size - 4*testStripe},
						// Entirely past EOF.
						{int64(size) + testStripe, testStripe, 0},
						// End exactly at EOF.
						{int64(size) - testStripe, testStripe, testStripe},
						// One byte around the boundary.
						{4*testStripe - 1, 2, min(2, size-(4*testStripe-1))},
					}
					for _, rd := range reads {
						rva, rvec := r.kbuf(t, rd.len)
						resp, err := cl.Read(p, ino, rd.off, rvec)
						if err != nil {
							t.Fatalf("size %d read [%d,+%d): %v", size, rd.off, rd.len, err)
						}
						if int(resp.N) != rd.want {
							t.Fatalf("size %d read [%d,+%d): n=%d want %d", size, rd.off, rd.len, resp.N, rd.want)
						}
						if rd.want > 0 {
							got, _ := r.client.Kernel.ReadBytes(rva, rd.want)
							if !bytes.Equal(got, data[rd.off:rd.off+int64(rd.want)]) {
								t.Fatalf("size %d read [%d,+%d): wrong bytes", size, rd.off, rd.len)
							}
						}
					}
				}
			})
		})
	}
}

// TestClusterSetSizeToExcludedHomeFansToReplicas is the coherence ×
// failover interaction bar: the file's hashed metadata home dies
// before a write, so the write's OpSetSize reconciliation faults on
// the home, excludes it, and the size information survives on the
// replicas — homed getattr re-routes and still answers the true EOF.
// After out-of-band recovery, Reinstate succeeds (no namespace or
// exact-size mutation ran during the exclusion), drops the file's
// cache entry (its home touches the victim), and re-running the write
// replays the grow-only OpSetSize onto the reinstated server so every
// local size converges.
func TestClusterSetSizeToExcludedHomeFansToReplicas(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 2, testStripe, 2)
		// Pick a file homed on server 2: its single stripe (replicated)
		// lives on servers 0 and 1, so data never touches the victim.
		var ino kernel.InodeID
		for i := 0; i < 24 && ino == 0; i++ {
			cand := clusterCreate(t, p, cl, fmt.Sprintf("f%d", i))
			if cl.HomeServer(cand) == 2 {
				ino = cand
			}
		}
		if ino == 0 {
			t.Fatal("no candidate file homed on server 2")
		}
		va, vec := r.kbuf(t, testStripe)
		if err := r.client.Kernel.WriteBytes(va, pattern(testStripe)); err != nil {
			t.Fatal(err)
		}

		r.servers[2].NIC.Kill()

		resp, err := cl.Write(p, ino, 0, vec)
		if err != nil || int(resp.N) != testStripe {
			t.Fatalf("write across dead home: n=%d err=%v", resp.N, err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 2 {
			t.Fatalf("down servers = %v, want [2]", down)
		}
		// The home re-routes; the re-homed getattr must see the true EOF
		// (the reconciliation covered every alive server).
		gresp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
		if err != nil || gresp.Attr.Size != testStripe {
			t.Fatalf("re-homed getattr = %d (%v), want %d", gresp.Attr.Size, err, testStripe)
		}

		// Recover out of band, reinstate (must be allowed: only grow
		// reconciliation ran during the exclusion), re-run the write:
		// the replay must converge the reinstated server's local size.
		r.servers[2].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 2); err != nil {
			t.Fatalf("reinstate after mutation-free exclusion: %v", err)
		}
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatalf("re-run write after reinstate: %v", err)
		}
		for s, fs := range r.serverFS {
			if a, _ := fs.Getattr(p, ino); a.Size != testStripe {
				t.Fatalf("server %d size = %d after reinstate replay, want %d", s, a.Size, testStripe)
			}
		}
		// Home routing is back on the reinstated server and coherent.
		if h := cl.HomeServer(ino); h != 2 {
			t.Fatalf("home = %d after reinstate, want 2", h)
		}
		if gresp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil || gresp.Attr.Size != testStripe {
			t.Fatalf("homed getattr after reinstate = %d (%v), want %d", gresp.Attr.Size, err, testStripe)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestClusterReinstateReplaysMissedMutation is the journaled-resync
// upgrade of the namespace footgun: a server that missed a fanned-out
// namespace mutation while excluded is no longer refused — the client
// journaled the mutation and Reinstate replays it, so readmission
// hands back a server whose replicated state already converged.
func TestClusterReinstateReplaysMissedMutation(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 2, testStripe, 2)
		ino := clusterCreate(t, p, cl, "f")
		va, vec := r.kbuf(t, testStripe)
		if err := r.client.Kernel.WriteBytes(va, pattern(testStripe)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}

		r.servers[1].NIC.Kill()
		// Any operation touching the victim observes the fault.
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatalf("replicated write across kill: %v", err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down servers = %v, want [1]", down)
		}

		// A namespace mutation fans out while server 1 is excluded: its
		// replicated state has now diverged.
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: "d"}); err != nil {
			t.Fatalf("mkdir with excluded server: %v", err)
		}

		r.servers[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate with a journaled mkdir: %v", err)
		}
		if cl.ResyncOps.N == 0 {
			t.Fatal("reinstate replayed nothing; the missed mkdir should be journaled")
		}
		if down := cl.DownServers(); len(down) != 0 {
			t.Fatalf("down servers = %v after replayed reinstate, want none", down)
		}
		// The replay converged server 1: it holds the directory it missed.
		if a, err := r.serverFS[1].Lookup(p, r.serverFS[1].Root(), "d"); err != nil || a.Kind != kernel.Directory {
			t.Fatalf("reinstated server's replayed mkdir = %+v, %v; want a directory", a, err)
		}
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil {
			t.Fatalf("getattr after replayed reinstate: %v", err)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestClusterReinstateKeepsEveryFloor: readmission drops no size-cache
// entry, because Reinstate re-images the returning server at the
// newest merged sizes. A file reconciled before the exclusion and a
// file written during it — whose reconciliation fan skipped the
// excluded server — both keep their entries: the returning server
// already holds both sizes when Reinstate returns, and neither file's
// next overwrite issues a reconciliation RPC.
func TestClusterReinstateKeepsEveryFloor(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 2, testStripe, 1)
		// Both files exist before the exclusion.
		pre := clusterCreate(t, p, cl, "pre")
		dur := clusterCreate(t, p, cl, "dur")
		vaP, vecP := r.kbuf(t, 3*testStripe)
		if err := r.client.Kernel.WriteBytes(vaP, pattern(3*testStripe)); err != nil {
			t.Fatal(err)
		}
		vaD, vecD := r.kbuf(t, testStripe)
		if err := r.client.Kernel.WriteBytes(vaD, pattern(testStripe)); err != nil {
			t.Fatal(err)
		}
		// pre's entry is established while every server is alive: its
		// fan reached server 2.
		if _, err := cl.Write(p, pre, 0, vecP); err != nil {
			t.Fatal(err)
		}

		// Exclude server 2 via a homed metadata fault (no data loss:
		// the getattr re-homes) on a file deterministically homed there.
		var homed2 kernel.InodeID
		for i := 0; i < 24 && homed2 == 0; i++ {
			cand := clusterCreate(t, p, cl, fmt.Sprintf("h%d", i))
			if cl.HomeServer(cand) == 2 {
				homed2 = cand
			}
		}
		if homed2 == 0 {
			t.Fatal("no candidate file homed on server 2")
		}
		r.servers[2].NIC.Kill()
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: homed2}); err != nil {
			t.Fatalf("getattr across kill: %v", err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 2 {
			t.Fatalf("down servers = %v, want [2]", down)
		}

		// dur is written DURING the exclusion: one stripe on server 0,
		// reconciliation fanned only to server 1 — server 2 missed it.
		if _, err := cl.Write(p, dur, 0, vecD); err != nil {
			t.Fatalf("write during exclusion: %v", err)
		}
		if a, _ := r.serverFS[2].Getattr(p, dur); a.Size != 0 {
			t.Fatalf("excluded server learned dur's size %d, want 0", a.Size)
		}

		r.servers[2].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 2); err != nil {
			t.Fatalf("reinstate: %v", err)
		}

		if a, _ := r.serverFS[2].Getattr(p, dur); a.Size != testStripe {
			t.Fatalf("reinstated server's size for dur = %d, want %d (re-imaged)", a.Size, testStripe)
		}

		// Both entries survived: an overwrite below either size issues no
		// reconciliation RPCs.
		before := cl.SetSizes.N
		if _, err := cl.Write(p, pre, 0, vecP); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(p, dur, 0, vecD); err != nil {
			t.Fatal(err)
		}
		if cl.SetSizes.N != before {
			t.Fatalf("overwrites below the cached sizes issued %d reconciliation RPC(s); both entries should have survived the readmission", cl.SetSizes.N-before)
		}
		for s, fs := range r.serverFS {
			if a, _ := fs.Getattr(p, dur); a.Size != testStripe {
				t.Fatalf("server %d size = %d for dur, want %d", s, a.Size, testStripe)
			}
			if a, _ := fs.Getattr(p, pre); a.Size != 3*testStripe {
				t.Fatalf("server %d size = %d for pre, want %d", s, a.Size, 3*testStripe)
			}
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}
