package rfsrv_test

// Tests of the size publish riding beside an extending write's data
// (Cluster.startPublish → Cluster.finishPublish, DESIGN.md §9): the
// grow fan's first round leaves right behind the data and is collected
// after the data replies, so its round trips hide under the data leg;
// a foreign truncate the data replies reveal voids the round; and every
// way the data can fail still collects the round, leaving the control
// paths idle.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/rfsrv"
	platform "repro/internal/rig"
	"repro/internal/sim"
)

// publishStripe is the stripe width of these tests: one 64 KB stripe is
// one write whose payload travels as its own message, the data leg the
// publish hides under.
const publishStripe = rfsrv.DefaultStripeSize

// publishRig is a 4-server R=1 rig with cl, a cluster over it at the
// default stripe with the fault tests' reply deadline, and a fresh file.
func publishRig(t *testing.T, p *sim.Proc, r *clusterRig) (*rfsrv.Cluster, kernel.InodeID) {
	t.Helper()
	cl := r.clusterRep(t, p, 4, publishStripe, 1)
	return cl, clusterCreate(t, p, cl, "f")
}

// localSizes reads every server's local size of ino (0 where the
// server has no such inode, reported as an error).
func localSizes(t *testing.T, p *sim.Proc, r *clusterRig, ino kernel.InodeID) []int64 {
	t.Helper()
	out := make([]int64, len(r.serverFS))
	for i, fs := range r.serverFS {
		a, err := fs.Getattr(p, ino)
		if err != nil {
			t.Errorf("server %d getattr: %v", i, err)
		}
		out[i] = a.Size
	}
	return out
}

// ctlIdle asserts no server's control path is still held.
func ctlIdle(t *testing.T, cl *rfsrv.Cluster) {
	t.Helper()
	if busy := cl.CtlBusy(); len(busy) != 0 {
		t.Errorf("control paths still held on servers %v", busy)
	}
}

// TestPublishHidesUnderTheData: an extending 64 KB write on a 4-server
// MX rig sends its grow fan to the three servers that do not hold the
// data, and returns within 2 µs of its data reply — the fan's round
// trips ran while the payload was on the wire. A publish that starts
// only after the data replied ends a whole control round trip later.
func TestPublishHidesUnderTheData(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		cl, ino := publishRig(t, p, r)
		va, vec := r.kbuf(t, publishStripe)
		if err := r.client.Kernel.WriteBytes(va, pattern(publishStripe)); err != nil {
			t.Fatal(err)
		}
		owner := cl.Sessions()[cl.OwnerServer(0)]
		// The data reply is the instant the owner's window slot comes
		// back: the write's process retires its one data part as soon as
		// the reply arrives.
		var replied sim.Time
		r.env.Spawn("watch", func(wp *sim.Proc) {
			for owner.InFlight() == 0 {
				wp.Sleep(100 * time.Nanosecond)
			}
			for owner.InFlight() != 0 {
				wp.Sleep(100 * time.Nanosecond)
			}
			replied = wp.Now()
		})
		setSizes := cl.SetSizes.N
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}
		done := p.Now()
		if got := cl.SetSizes.N - setSizes; got != 3 {
			t.Fatalf("the write published to %d servers, want 3", got)
		}
		if replied == 0 || done-replied > 2*time.Microsecond {
			t.Errorf("write returned %v after its data reply, want <= 2µs: the size fan is on the critical path", done-replied)
		}
		for i, n := range localSizes(t, p, r, ino) {
			if n != publishStripe {
				t.Errorf("server %d local size %d, want %d", i, n, publishStripe)
			}
		}
		ctlIdle(t, cl)
	})
}

// TestPublishVoidedByForeignTruncate: client B truncates the file after
// A's first publish round landed and before A's data did. The round
// succeeded, but under an epoch the data reply proves stale — B's
// truncate cut the servers it had raised — so A must void it and
// publish again under the new epoch: every server ends at A's end.
func TestPublishVoidedByForeignTruncate(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		clA, ino := publishRig(t, p, r)
		clB := r.clusterOn(t, p, r.rig.HW.AddNode("b"), 30, platform.Desc{Replicas: 1, Stripe: publishStripe, Window: 4, Timeout: faultTimeout})
		const end = 2 * publishStripe
		va, vec := r.kbuf(t, publishStripe)
		if err := r.client.Kernel.WriteBytes(va, pattern(publishStripe)); err != nil {
			t.Fatal(err)
		}
		if _, err := clA.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}
		owner := clA.OwnerServer(publishStripe)
		// A server posts its extra request receives only once it has held
		// two requests at once; until then B's truncate would wait behind
		// the receive that takes A's payload. Two reads in flight together
		// open them on the owner.
		var pds []rfsrv.PendingOp
		for range 2 {
			_, rvec := r.kbuf(t, publishStripe)
			pd, err := clA.StartRead(p, ino, publishStripe, rvec)
			if err != nil {
				t.Fatal(err)
			}
			pds = append(pds, pd)
		}
		for _, pd := range pds {
			if _, err := pd.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		// B truncates the instant A's first round has raised every other
		// server, while A's payload is still on its way to the owner.
		var truncated, dataLanded, written bool
		r.env.Spawn("b", func(bp *sim.Proc) {
			for !written {
				raised := true
				for i, n := range localSizes(t, bp, r, ino) {
					raised = raised && (i == owner || n == end)
				}
				if raised {
					if _, err := clB.Meta(bp, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: publishStripe / 2}); err != nil {
						t.Errorf("foreign truncate: %v", err)
					}
					truncated = true
					dataLanded = localSizes(t, bp, r, ino)[owner] == end
					return
				}
				bp.Sleep(100 * time.Nanosecond)
			}
		})
		setSizes := clA.SetSizes.N
		_, err := clA.Write(p, ino, publishStripe, vec)
		written = true
		if err != nil {
			t.Fatal(err)
		}
		if !truncated || dataLanded {
			t.Fatalf("the truncate did not land between A's first round and A's data (truncated %v, data already landed %v)", truncated, dataLanded)
		}
		// Round 1 to the three non-owners, voided; round 2 to all four.
		if got := clA.SetSizes.N - setSizes; got != 3+4 {
			t.Errorf("A published %d OpSetSize requests, want 7 (a voided round, then a full one)", got)
		}
		for i, n := range localSizes(t, p, r, ino) {
			if n != end {
				t.Errorf("server %d local size %d, want A's end %d", i, n, end)
			}
		}
		ctlIdle(t, clA)
		ctlIdle(t, clB)
		r.checkNoLeaks(t)
	})
}

// TestPublishFailedWriteLeavesItsRound pins what a write whose data run
// is lost on every replica leaves behind: it fails with a fault, the
// owner is excluded, and the publish round that rode beside it has
// raised the other servers' sizes over a hole — as a multi-stripe write
// that fails partway leaves the stripes that landed. The size cache
// records nothing, so publishing the same end again fans out again.
func TestPublishFailedWriteLeavesItsRound(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		cl, ino := publishRig(t, p, r)
		_, vec := r.kbuf(t, publishStripe)
		owner := cl.OwnerServer(0)
		swallowing(owner)(t, p, r, cl, ino)
		_, err := cl.Write(p, ino, 0, vec)
		if !fabric.IsFault(err) {
			t.Fatalf("write with its only replica swallowing: err = %v, want a fault", err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != owner {
			t.Errorf("down servers = %v, want [%d]", down, owner)
		}
		for i, n := range localSizes(t, p, r, ino) {
			if i != owner && n != publishStripe {
				t.Errorf("server %d local size %d, want %d (raised by the round beside the failed write)", i, n, publishStripe)
			}
		}
		setSizes := cl.SetSizes.N
		if err := cl.SetFileSize(p, ino, publishStripe); err != nil {
			t.Fatal(err)
		}
		if got := cl.SetSizes.N - setSizes; got != 3 {
			t.Errorf("republishing the failed write's end sent %d requests, want 3: the failed write recorded its size", got)
		}
		ctlIdle(t, cl)
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestPublishCollectedOnEveryDataError: every way Write can fail between
// starting its publish and finishing it — the data lost to a fault, or
// refused by the server — still collects the round: no control path
// stays held, the next fan runs, and nothing pooled leaks.
func TestPublishCollectedOnEveryDataError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prep  func(t *testing.T, p *sim.Proc, r *clusterRig, owner int, ino kernel.InodeID)
		check func(error) bool
	}{
		{"data lost to a fault", func(t *testing.T, p *sim.Proc, r *clusterRig, owner int, ino kernel.InodeID) {
			swallowing(owner)(t, p, r, nil, ino)
		}, fabric.IsFault},
		{"data refused by the server", func(t *testing.T, p *sim.Proc, r *clusterRig, owner int, _ kernel.InodeID) {
			fs := r.serverFS[owner]
			if err := fs.Unlink(p, fs.Root(), "f"); err != nil {
				t.Fatal(err)
			}
		}, func(err error) bool { return errors.Is(err, kernel.ErrNotFound) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newClusterRig(t, 4)
			r.run(t, func(p *sim.Proc) {
				cl, ino := publishRig(t, p, r)
				_, vec := r.kbuf(t, publishStripe)
				tc.prep(t, p, r, cl.OwnerServer(0), ino)
				setSizes := cl.SetSizes.N
				if _, err := cl.Write(p, ino, 0, vec); !tc.check(err) {
					t.Fatalf("write: err = %v, want the case's error", err)
				}
				if got := cl.SetSizes.N - setSizes; got != 3 {
					t.Fatalf("the failed write published to %d servers, want 3 (its round was on the wire)", got)
				}
				ctlIdle(t, cl)
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: "d"}); err != nil {
					t.Errorf("the next fan: %v", err)
				}
				assertWindowsIdle(t, cl)
				r.checkNoLeaks(t)
			})
		})
	}
}
