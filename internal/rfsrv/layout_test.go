package rfsrv_test

// Layout-class tests (DESIGN.md §10): the refusal of a create hinting
// an unknown class, replica placement and failover of a replicated
// whole-on-home file, the guarantee that the class is inert on a
// one-member ring, and the whole-on-home file's life in both namespaces
// — created, written, read by a client that never saw it, renamed
// across owner groups, moved by every membership change and unlinked.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	platform "repro/internal/rig"
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

// TestClusterUnknownLayoutHintRefused pins the classes the protocol
// knows: a create hinting class 2 (no class has that number) is
// answered StInval by every server, and none of them creates the file.
func TestClusterUnknownLayoutHintRefused(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 4, testStripe)
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
		const size = 16 * 1024
		data := pattern(size)
		ino := wholeCreate(t, p, cl, 0, "f")
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

// wholeCreate creates name in dir with the whole-on-home hint and
// requires the creator to have learned the class from the reply.
func wholeCreate(t *testing.T, p *sim.Proc, cl *rfsrv.Cluster, dir kernel.InodeID, name string) kernel.InodeID {
	t.Helper()
	resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: name, Len: uint32(rfsrv.LayoutWhole)})
	if err != nil {
		t.Fatalf("create %s whole-on-home: %v", name, err)
	}
	if lc := cl.LayoutOf(resp.Attr.Ino); lc != rfsrv.LayoutWhole {
		t.Fatalf("create %s: the creator learned %v, want LayoutWhole", name, lc)
	}
	return resp.Attr.Ino
}

// homeGroup returns the slots of an inode's home group under cl's
// committed membership: sharded, its residue's replica group, computed
// here from the inode number; replicated, the group of the hashed home
// cl reports (nobody may be excluded).
func homeGroup(cl *rfsrv.Cluster, ino kernel.InodeID) []int {
	members := cl.Members()
	pos := int((ino - 2) % kernel.InodeID(len(members)))
	if !cl.ShardedNamespace() {
		pos = slices.Index(members, cl.HomeServer(ino))
	}
	var out []int
	for j := 0; j < cl.Replicas(); j++ {
		out = append(out, members[(pos+j)%len(members)])
	}
	return out
}

// assertWholeHeld requires every page of a whole-on-home file to sit on
// each slot of its home group — only there when exclusive — and a
// fresh client of view (nil: the construction-time membership) to read
// it back exact without excluding anyone.
func assertWholeHeld(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster, view *rfsrv.MemberView, ino kernel.InodeID, data []byte, exclusive bool) {
	t.Helper()
	group := homeGroup(cl, ino)
	for s := range r.servers {
		in := slices.Contains(group, s)
		if !in && !exclusive {
			continue
		}
		for pg := 0; pg < (len(data)+mem.PageSize-1)/mem.PageSize; pg++ {
			if have := r.serverFS[s].FrameAt(ino, int64(pg)) != nil; have != in {
				t.Fatalf("server %d page %d present=%v, want %v (home group %v)", s, pg, have, in, group)
			}
		}
	}
	fresh := r.freshClient(t, p, cl, view)
	if got := elasticReadBack(t, p, r, fresh, ino, len(data)); !bytes.Equal(got, data) {
		t.Fatal("a fresh client read wrong bytes")
	}
	if lc := fresh.LayoutOf(ino); lc != rfsrv.LayoutWhole {
		t.Errorf("the fresh client learned %v, want LayoutWhole", lc)
	}
	if down := fresh.DownServers(); len(down) != 0 {
		t.Errorf("the fresh client had to exclude %v to read the file", down)
	}
}

// hinted is a client whose creates all carry one layout hint.
type hinted struct {
	rfsrv.Async
	hint rfsrv.LayoutClass
}

func (h hinted) Meta(p *sim.Proc, req *rfsrv.Req) (*rfsrv.Resp, error) {
	if req.Op == rfsrv.OpCreate {
		r := *req
		r.Len = uint32(h.hint)
		req = &r
	}
	return h.Async.Meta(p, req)
}

// TestClusterOneServerHintInert: on a one-member ring both classes
// place every byte on the one server, so the cluster resolves nothing —
// a whole-on-home create's workload and an unhinted one's send the
// server the same requests, finish at the same instant and read the
// same bytes as a plain Session's.
func TestClusterOneServerHintInert(t *testing.T) {
	runOnce := func(wrap bool, hint rfsrv.LayoutClass) (sim.Time, []byte, int64) {
		r := newClusterRig(t, 1)
		var end sim.Time
		var sum []byte
		r.run(t, func(p *sim.Proc) {
			fc, err := rfsrv.NewMXClient(r.clientMX, 10, true, r.client.Kernel, r.servers[0].ID, 1)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := rfsrv.NewSession(p, fc, 4)
			if err != nil {
				t.Fatal(err)
			}
			var cl rfsrv.Async = sess
			if wrap {
				if cl, err = rfsrv.NewCluster(p, []*rfsrv.Session{sess}, 0); err != nil {
					t.Fatal(err)
				}
			}
			_, end, sum = oneServerWorkload(t, p, r.client.Kernel, hinted{cl, hint})
		})
		return end, sum, r.rsrv[0].Requests.N
	}
	sessEnd, sessSum, sessReqs := runOnce(false, rfsrv.LayoutStandard)
	for _, hint := range []rfsrv.LayoutClass{rfsrv.LayoutStandard, rfsrv.LayoutWhole} {
		end, sum, reqs := runOnce(true, hint)
		if end != sessEnd || reqs != sessReqs {
			t.Errorf("%v create: one-server cluster finished at %v after %d requests, plain session at %v after %d", hint, end, reqs, sessEnd, sessReqs)
		}
		if !bytes.Equal(sum, sessSum) {
			t.Errorf("%v create: one-server cluster read different bytes than the plain session", hint)
		}
	}
}

// TestShardWholeFileLifecycle runs a whole-on-home file through its
// life in the sharded namespace: created with the hint, written past
// one stripe, read back, renamed across owner groups and unlinked. Its
// bytes sit on its owner group and nowhere else — no size fan, a
// stranger reads it through the group after the rename — and the
// unlink's scrub leaves it on no server.
func TestShardWholeFileLifecycle(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		src := mkdirRes(t, p, cl, 4, 1, "src")
		dst := mkdirRes(t, p, cl, 4, 3, "dst")
		ino := wholeCreate(t, p, cl, src, "f")
		data := pattern(3 * testStripe)
		writeAt(t, p, r, cl, ino, 0, data)
		if n := cl.SetSizes.N; n != 0 {
			t.Errorf("whole-on-home write issued %d OpSetSize reconciliations, want 0", n)
		}
		if g := homeGroup(cl, ino); !slices.Equal(g, []int{1, 2}) {
			t.Fatalf("home group %v, want the source directory's owner group [1 2]", g)
		}
		if got, n := readBack(t, p, r, cl, ino, 0, len(data)+mem.PageSize); n != len(data) || !bytes.Equal(got, data) {
			t.Fatalf("read back n=%d, contents match=%v", n, bytes.Equal(got, data))
		}
		assertWholeHeld(t, p, r, cl, nil, ino, data, true)

		if _, err := cl.Rename(p, src, "f", dst, "g"); err != nil {
			t.Fatalf("cross-owner rename: %v", err)
		}
		if look, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dst, Name: "g"}); err != nil || look.Attr.Ino != ino {
			t.Fatalf("lookup after rename: ino=%d err=%v, want %d", look.Attr.Ino, err, ino)
		}
		assertWholeHeld(t, p, r, cl, nil, ino, data, true)

		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: dst, Name: "g"}); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		for i, fs := range r.serverFS {
			if _, err := fs.Getattr(p, ino); err == nil {
				t.Errorf("server %d still holds the unlinked file", i)
			}
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestClusterWholeReadByStranger: a client that never looked a
// whole-on-home file up reads it — one getattr on the namespace's own
// route teaches it the class — in both namespaces, for a file homed
// away from position 0, where a striped read would look first.
func TestClusterWholeReadByStranger(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			r := newRigOf(t, 4, 1, sharded)
			r.run(t, func(p *sim.Proc) {
				cl := r.clusterOf(t, p, 10, platform.Desc{Replicas: 1, Stripe: testStripe, Window: 4, Timeout: faultTimeout, Sharded: sharded})
				var dir kernel.InodeID
				if sharded {
					dir = mkdirRes(t, p, cl, 4, 2, "d")
				}
				var ino kernel.InodeID
				for k := 0; ino == 0 || homeGroup(cl, ino)[0] == 0; k++ {
					ino = wholeCreate(t, p, cl, dir, fmt.Sprintf("f%d", k))
				}
				data := pattern(3 * testStripe)
				writeAt(t, p, r, cl, ino, 0, data)
				assertWholeHeld(t, p, r, cl, nil, ino, data, true)
				assertWindowsIdle(t, cl)
				r.checkNoLeaks(t)
			})
		})
	}
}

// TestElasticWholeFileMoves retires a member of a whole-on-home file's
// home group, joins it back and bounces it, in both namespaces: after
// every change the file's bytes sit on its home group under the new
// membership and a fresh client of the view reads them back exact.
func TestElasticWholeFileMoves(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			r := newRigOf(t, 4, 2, sharded)
			r.run(t, func(p *sim.Proc) {
				cl := r.clusterOf(t, p, 10, platform.Desc{Replicas: 2, Stripe: testStripe, Window: 4, Timeout: faultTimeout, Sharded: sharded})
				view := cl.ShareView()
				var dir kernel.InodeID
				if sharded {
					dir = mkdirRes(t, p, cl, 4, 1, "d")
				}
				ino := wholeCreate(t, p, cl, dir, "f")
				data := pattern(3 * testStripe)
				writeAt(t, p, r, cl, ino, 0, data)
				assertWholeHeld(t, p, r, cl, view, ino, data, false)
				slot := homeGroup(cl, ino)[0]
				for _, step := range []struct {
					name   string
					change func() error
				}{
					{"retire", func() error { return cl.Retire(p, slot) }},
					{"join", func() error { return cl.Join(p, slot) }},
					{"bounce", func() error { return cl.Bounce(p, slot) }},
				} {
					before := cl.Migrated.Bytes
					if err := step.change(); err != nil {
						t.Fatalf("%s %d: %v", step.name, slot, err)
					}
					if step.name == "retire" && cl.Migrated.Bytes == before {
						t.Errorf("retiring a home-group member migrated nothing")
					}
					assertWholeHeld(t, p, r, cl, view, ino, data, false)
					if got := elasticReadBack(t, p, r, cl, ino, len(data)); !bytes.Equal(got, data) {
						t.Fatalf("after %s: the operator read wrong bytes", step.name)
					}
				}
				assertWindowsIdle(t, cl)
				r.checkNoLeaks(t)
			})
		})
	}
}
