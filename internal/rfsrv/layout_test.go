package rfsrv_test

// Layout-policy edge-case tests (DESIGN.md §10): adaptive promotion of
// a whole-on-home file mid-write (with byte-exact migration of the
// pre-promotion bytes), the refusal of a create hinting an unknown
// class, replica placement and failover of a replicated whole-on-home
// file, and the guarantee that every layout policy is inert on a
// one-server cluster.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// writeAt writes data at off through the cluster, failing the test on
// any error or short write.
func writeAt(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster, ino kernel.InodeID, off int64, data []byte) {
	t.Helper()
	va, vec := r.kbuf(t, len(data))
	if err := r.client.Kernel.WriteBytes(va, data); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Write(p, ino, off, vec)
	if err != nil || int(resp.N) != len(data) {
		t.Fatalf("write %d bytes at %d: n=%d err=%v", len(data), off, resp.N, err)
	}
}

// readBack reads n bytes at off through the cluster and returns
// (bytes, resp.N). The buffer may be larger than the file; the caller
// checks the clipped count.
func readBack(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster, ino kernel.InodeID, off int64, n int) ([]byte, int) {
	t.Helper()
	va, vec := r.kbuf(t, n)
	resp, err := cl.Read(p, ino, off, vec)
	if err != nil {
		t.Fatalf("read %d bytes at %d: %v", n, off, err)
	}
	got, err := r.client.Kernel.ReadBytes(va, int(resp.N))
	if err != nil {
		t.Fatal(err)
	}
	return got, int(resp.N)
}

// TestClusterWholePromotedMidWrite drives the adaptive policy through
// its promotion edge: a file written below PromoteThreshold stays
// whole-on-home with zero OpSetSize reconciliations, and the write
// that would push EOF past the threshold first migrates the existing
// bytes to standard placement, then lands striped — with the full
// contents byte-exact afterwards.
func TestClusterWholePromotedMidWrite(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 4, testStripe)
		if err := cl.SetLayoutPolicy(rfsrv.LayoutPolicy{Adaptive: true}); err != nil {
			t.Fatal(err)
		}

		const head = 200 * 1024 // below PromoteThreshold (256 KiB)
		const tail = 100 * 1024 // pushes EOF to 300 KiB, past it
		data := pattern(head + tail)
		ino := clusterCreate(t, p, cl, "f")
		if lc := cl.LayoutOf(ino); lc != rfsrv.LayoutWhole {
			t.Fatalf("adaptive unhinted create classified %v, want LayoutWhole", lc)
		}
		home := cl.HomeServer(ino)

		writeAt(t, p, r, cl, ino, 0, data[:head])
		if n := cl.SetSizes.N; n != 0 {
			t.Errorf("whole-on-home write issued %d OpSetSize reconciliations, want 0", n)
		}
		if n := cl.Promotions.N; n != 0 {
			t.Fatalf("premature promotion (%d) below threshold", n)
		}
		// Every byte of the whole-phase file lives on the home server and
		// nowhere else.
		headPages := head / mem.PageSize
		for s := range r.servers {
			for pg := 0; pg < headPages; pg++ {
				have := r.serverFS[s].FrameAt(ino, int64(pg)) != nil
				if want := s == home; have != want {
					t.Fatalf("whole phase: server %d page %d present=%v, want %v (home %d)",
						s, pg, have, want, home)
				}
			}
		}

		// The append crosses PromoteThreshold: promotion must migrate the
		// head before the tail is written striped.
		writeAt(t, p, r, cl, ino, head, data[head:])
		if n := cl.Promotions.N; n != 1 {
			t.Errorf("promotions = %d, want exactly 1", n)
		}
		if lc := cl.LayoutOf(ino); lc != rfsrv.LayoutStandard {
			t.Errorf("post-promotion layout %v, want LayoutStandard", lc)
		}
		if n := cl.SetSizes.N; n == 0 {
			t.Error("standard-layout write reconciled no sizes; expected OpSetSize fan-out")
		}

		got, n := readBack(t, p, r, cl, ino, 0, len(data)+mem.PageSize)
		if n != len(data) {
			t.Fatalf("post-promotion read clipped to %d, want %d", n, len(data))
		}
		if !bytes.Equal(got, data) {
			t.Fatal("post-promotion contents differ from what was written")
		}
		// Standard placement after migration: every stripe's primary owner
		// holds its frames.
		pagesPerStripe := testStripe / mem.PageSize
		for k := 0; k*testStripe < len(data); k++ {
			owner := cl.OwnerServer(int64(k) * testStripe)
			if r.serverFS[owner].FrameAt(ino, int64(k*pagesPerStripe)) == nil {
				t.Fatalf("stripe %d missing on its standard owner (server %d) after promotion", k, owner)
			}
		}
	})
}

// TestClusterUnknownLayoutHintRefused pins the classes the protocol
// knows: a create hinting class 2 (no class has that number) is
// answered StInval by every server, and none of them creates the file.
func TestClusterUnknownLayoutHintRefused(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 4, testStripe)
		// Non-adaptive policy: explicit create hints go out as given.
		if err := cl.SetLayoutPolicy(rfsrv.LayoutPolicy{}); err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "f", Len: 2})
		if resp.Status != rfsrv.StInval || !errors.Is(err, rfsrv.ErrInval) {
			t.Fatalf("create hinting class 2: status %d err %v, want StInval", resp.Status, err)
		}
		for i, fs := range r.serverFS {
			if _, err := fs.Lookup(p, fs.Root(), "f"); err == nil {
				t.Errorf("server %d created the file a refused hint named", i)
			}
		}
	})
}

// TestClusterWholeReplicatedFailover pins the replica placement of a
// replicated whole-on-home file — home and the next server, nothing
// anywhere else — then kills the home and verifies the read fails over
// to the replica byte-exact, without leaking window slots or pooled
// staging.
func TestClusterWholeReplicatedFailover(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 2)
		if err := cl.SetLayoutPolicy(rfsrv.LayoutPolicy{Adaptive: true}); err != nil {
			t.Fatal(err)
		}

		const size = 16 * 1024
		data := pattern(size)
		ino := clusterCreate(t, p, cl, "f")
		if lc := cl.LayoutOf(ino); lc != rfsrv.LayoutWhole {
			t.Fatalf("layout %v, want LayoutWhole", lc)
		}
		home := cl.HomeServer(ino)
		writeAt(t, p, r, cl, ino, 0, data)

		// Replicas land on home and the cyclically next server only.
		replica := (home + 1) % len(r.servers)
		for s := range r.servers {
			for pg := 0; pg < size/mem.PageSize; pg++ {
				have := r.serverFS[s].FrameAt(ino, int64(pg)) != nil
				if want := s == home || s == replica; have != want {
					t.Fatalf("server %d page %d present=%v, want %v (home %d)", s, pg, have, want, home)
				}
			}
		}

		r.servers[home].NIC.Kill()
		got, n := readBack(t, p, r, cl, ino, 0, size)
		if n != size || !bytes.Equal(got, data) {
			t.Fatalf("failover read n=%d, contents match=%v", n, bytes.Equal(got, data))
		}
		downOK := false
		for _, d := range cl.DownServers() {
			if d == home {
				downOK = true
			}
		}
		if !downOK {
			t.Errorf("home %d not excluded after failover (down: %v)", home, cl.DownServers())
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestClusterOneServerPolicyInert extends the degeneracy guarantee to
// the layout machinery: on a one-server cluster every policy — off,
// non-adaptive, adaptive — produces the identical virtual-time finish
// and identical bytes, because classification is inert without a
// second server to place data on.
func TestClusterOneServerPolicyInert(t *testing.T) {
	runOnce := func(set bool, pol rfsrv.LayoutPolicy) (sim.Time, []byte) {
		r := newClusterRig(t, 1)
		var end sim.Time
		var sum []byte
		r.run(t, func(p *sim.Proc) {
			cl := r.cluster(t, p, 4, 0)
			if set {
				if err := cl.SetLayoutPolicy(pol); err != nil {
					t.Fatal(err)
				}
			}
			end, sum = oneServerWorkload(t, p, r.client.Kernel, cl)
		})
		return end, sum
	}
	baseEnd, baseSum := runOnce(false, rfsrv.LayoutPolicy{})
	for _, tc := range []struct {
		name string
		pol  rfsrv.LayoutPolicy
	}{
		{"non-adaptive", rfsrv.LayoutPolicy{}},
		{"adaptive", rfsrv.LayoutPolicy{Adaptive: true}},
	} {
		end, sum := runOnce(true, tc.pol)
		if end != baseEnd {
			t.Errorf("%s policy finished at %v, policy-off at %v — not bit-identical", tc.name, end, baseEnd)
		}
		if !bytes.Equal(sum, baseSum) {
			t.Errorf("%s policy read different bytes than policy-off", tc.name)
		}
	}
}
