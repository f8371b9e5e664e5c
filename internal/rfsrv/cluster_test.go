package rfsrv_test

// Tests for the striped cluster client: placement, stripe-boundary and
// uneven-final-stripe correctness, the one-server bit-identity
// guarantee, metadata-home-vs-data-server semantics, and namespace
// divergence detection.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/rfsrv"
	platform "repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/vm"
)

// testStripe is the stripe width used by the cluster tests: two pages,
// small enough that modest files cross many boundaries.
const testStripe = 2 * mem.PageSize

// clusterRig is an S-server, one-client fixture over internal/rig:
// every server backed by its own memfs and served over MX. The slices
// alias the rig's (servers = rig.Nodes, serverFS = rig.Stores, rsrv =
// rig.Servers).
type clusterRig struct {
	rig      *platform.Rig
	env      *sim.Engine
	client   *hw.Node
	clientMX *mx.MX
	servers  []*hw.Node
	serverFS []*memfs.FS
	rsrv     []*rfsrv.Server // handles for SetResyncPeers
	audits   int             // assertPlacementHeld calls so far
}

// newRigOf builds the fixture. The description's client-side geometry
// (window, stripe, deadline) is only a starting point: the cluster
// builders below state their own per cluster.
func newRigOf(t *testing.T, nServers, replicas int, sharded bool) *clusterRig {
	t.Helper()
	rg, err := platform.New(platform.Desc{Servers: nServers, Replicas: replicas, Stripe: testStripe, Window: 4, Sharded: sharded})
	if err != nil {
		t.Fatal(err)
	}
	r := &clusterRig{rig: rg, env: rg.Env, client: rg.HW.AddNode("client"),
		servers: rg.Nodes, serverFS: rg.Stores, rsrv: rg.Servers}
	r.clientMX = rg.MX(r.client)
	return r
}

func newClusterRig(t *testing.T, nServers int) *clusterRig {
	t.Helper()
	return newRigOf(t, nServers, 1, false)
}

// clusterOf builds one client view through the rig under this
// cluster's own geometry: the rig is shared, the description is not.
func (r *clusterRig) clusterOf(t *testing.T, p *sim.Proc, epBase int, d platform.Desc) *rfsrv.Cluster {
	t.Helper()
	view := *r.rig
	d.Servers = view.Desc.Servers
	view.Desc = d
	cl, err := view.Cluster(p, r.client, epBase)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func (r *clusterRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("test", func(p *sim.Proc) {
		body(p)
		done = true
	})
	r.env.Run(0)
	if !done {
		t.Fatal("test body deadlocked")
	}
}

// cluster builds the striped client: one kernel-side MX session per
// server on distinct endpoints, no replication, no deadline.
func (r *clusterRig) cluster(t *testing.T, p *sim.Proc, window, stripe int) *rfsrv.Cluster {
	t.Helper()
	return r.clusterOf(t, p, 10, platform.Desc{Replicas: 1, Stripe: stripe, Window: window})
}

// kbuf maps n kernel bytes on the client and returns (va, vector).
func (r *clusterRig) kbuf(t *testing.T, n int) (vm.VirtAddr, core.Vector) {
	t.Helper()
	va, err := r.client.Kernel.Mmap(n, "test-buf")
	if err != nil {
		t.Fatal(err)
	}
	return va, core.Of(core.KernelSeg(r.client.Kernel, va, n))
}

// create makes a file through the cluster and returns its inode.
func clusterCreate(t *testing.T, p *sim.Proc, cl *rfsrv.Cluster, name string) kernel.InodeID {
	t.Helper()
	resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: name})
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	return resp.Attr.Ino
}

// TestClusterStripeBoundaryReadsWrites writes a file whose length is
// not a stripe multiple through a 3-server cluster, overwrites a range
// crossing a stripe boundary, reads it back at awkward offsets, and
// verifies byte-exact contents plus physical placement: every server
// holds frames for exactly the stripes it owns.
func TestClusterStripeBoundaryReadsWrites(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 4, testStripe)
		data := pattern(100_000) // 12 whole stripes + 1696-byte tail
		ino := clusterCreate(t, p, cl, "f")

		va, vec := r.kbuf(t, len(data))
		if err := r.client.Kernel.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Write(p, ino, 0, vec)
		if err != nil || int(resp.N) != len(data) {
			t.Fatalf("striped write: n=%d err=%v", resp.N, err)
		}

		// Overwrite a range crossing the stripe-1/stripe-2 boundary at
		// an unaligned offset.
		patch := bytes.Repeat([]byte{0xAB}, 3000)
		copy(data[testStripe*2-1500:], patch)
		pva, pvec := r.kbuf(t, len(patch))
		if err := r.client.Kernel.WriteBytes(pva, patch); err != nil {
			t.Fatal(err)
		}
		if resp, err := cl.Write(p, ino, testStripe*2-1500, pvec); err != nil || int(resp.N) != len(patch) {
			t.Fatalf("boundary overwrite: n=%d err=%v", resp.N, err)
		}

		// Read back at offsets that start and end mid-stripe.
		for _, rg := range [][2]int{{0, len(data)}, {5000, 30000}, {testStripe - 1, testStripe + 2}, {90_000, 10_000}} {
			off, n := rg[0], rg[1]
			rva, rvec := r.kbuf(t, n)
			resp, err := cl.Read(p, ino, int64(off), rvec)
			if err != nil || int(resp.N) != n {
				t.Fatalf("read [%d,%d): n=%d err=%v", off, off+n, resp.N, err)
			}
			got, _ := r.client.Kernel.ReadBytes(rva, n)
			if !bytes.Equal(got, data[off:off+n]) {
				t.Fatalf("read [%d,%d): contents differ", off, off+n)
			}
		}

		// Placement: frames live only on each stripe's owner.
		stripes := (len(data) + testStripe - 1) / testStripe
		pagesPerStripe := testStripe / mem.PageSize
		for k := 0; k < stripes; k++ {
			owner := cl.OwnerServer(int64(k) * testStripe)
			for s, fs := range r.serverFS {
				frame := fs.FrameAt(ino, int64(k*pagesPerStripe))
				if s == owner && frame == nil {
					t.Fatalf("stripe %d missing on its owner (server %d)", k, s)
				}
				if s != owner && frame != nil {
					t.Fatalf("stripe %d leaked onto server %d (owner %d)", k, s, owner)
				}
			}
		}

		// Size reconciliation: every server agrees on EOF locally.
		for s, fs := range r.serverFS {
			a, err := fs.Getattr(p, ino)
			if err != nil || a.Size != int64(len(data)) {
				t.Fatalf("server %d local size = %d (%v), want %d", s, a.Size, err, len(data))
			}
		}
	})
}

// TestClusterUnevenFinalStripe checks EOF handling when the file ends
// mid-stripe: reads straddling and beyond EOF clip exactly, and
// cluster getattr reports the true size even though most servers'
// stripes end earlier.
func TestClusterUnevenFinalStripe(t *testing.T) {
	r := newClusterRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 4, testStripe)
		const size = 5*testStripe + 123
		data := pattern(size)
		ino := clusterCreate(t, p, cl, "f")
		va, vec := r.kbuf(t, size)
		if err := r.client.Kernel.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}

		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
		if err != nil || resp.Attr.Size != size {
			t.Fatalf("getattr size = %d (%v), want %d", resp.Attr.Size, err, size)
		}

		// Straddle EOF: ask for two stripes starting in the last full one.
		off := int64(4 * testStripe)
		rva, rvec := r.kbuf(t, 2*testStripe)
		resp, err = cl.Read(p, ino, off, rvec)
		if err != nil {
			t.Fatal(err)
		}
		if want := size - int(off); int(resp.N) != want {
			t.Fatalf("EOF straddle read n = %d, want %d", resp.N, want)
		}
		got, _ := r.client.Kernel.ReadBytes(rva, size-int(off))
		if !bytes.Equal(got, data[off:]) {
			t.Fatal("EOF straddle read: contents differ")
		}

		// Entirely past EOF: zero bytes, no error.
		resp, err = cl.Read(p, ino, int64(size)+testStripe, rvec)
		if err != nil || resp.N != 0 {
			t.Fatalf("past-EOF read n=%d err=%v", resp.N, err)
		}
	})
}

// oneServerWorkload drives one client workload — create, a chunked
// write larger than MaxWriteChunk, sequential reads, and a metadata
// mix — against any rfsrv.Client, returning the finish time and a
// checksum of everything read.
func oneServerWorkload(t *testing.T, p *sim.Proc, kern *vm.AddressSpace, cl rfsrv.Client) (sim.Time, []byte) {
	t.Helper()
	const fileSize = 640 * 1024 // > 2 write chunks, a whole number of read chunks
	const chunk = 64 * 1024
	data := pattern(fileSize)
	resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "f"})
	if err != nil {
		t.Fatal(err)
	}
	ino := resp.Attr.Ino
	va, err := kern.Mmap(fileSize, "wl-buf")
	if err != nil {
		t.Fatal(err)
	}
	if err := kern.WriteBytes(va, data); err != nil {
		t.Fatal(err)
	}
	if resp, err = cl.Write(p, ino, 0, core.Of(core.KernelSeg(kern, va, fileSize))); err != nil || int(resp.N) != fileSize {
		t.Fatalf("write: n=%d err=%v", resp.N, err)
	}
	sum := make([]byte, 0, fileSize)
	rva, err := kern.Mmap(chunk, "wl-read")
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < fileSize; off += chunk {
		resp, err := cl.Read(p, ino, int64(off), core.Of(core.KernelSeg(kern, rva, chunk)))
		if err != nil || int(resp.N) != chunk {
			t.Fatalf("read at %d: n=%d err=%v", off, resp.N, err)
		}
		got, _ := kern.ReadBytes(rva, chunk)
		sum = append(sum, got...)
	}
	for _, req := range []*rfsrv.Req{
		{Op: rfsrv.OpGetattr, Ino: ino},
		{Op: rfsrv.OpLookup, Ino: 0, Name: "f"},
		{Op: rfsrv.OpReaddir, Ino: 0},
		{Op: rfsrv.OpTruncate, Ino: ino, Off: int64(fileSize / 2)},
	} {
		if _, err := cl.Meta(p, req); err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
	}
	return p.Now(), sum
}

// TestClusterOneServerMatchesSession is the degeneracy guarantee: a
// one-server cluster must issue the exact RPC sequence of the plain
// Session, so the same workload finishes at the identical virtual time
// with identical bytes (the cluster analogue of the window-1 equality
// test that guards Fig 7).
func TestClusterOneServerMatchesSession(t *testing.T) {
	const window = 4
	runOnce := func(wrap bool) (sim.Time, []byte) {
		r := newClusterRig(t, 1)
		var end sim.Time
		var sum []byte
		r.run(t, func(p *sim.Proc) {
			fc, err := rfsrv.NewMXClient(r.clientMX, 10, true, r.client.Kernel, r.servers[0].ID, 1)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := rfsrv.NewSession(p, fc, window)
			if err != nil {
				t.Fatal(err)
			}
			var cl rfsrv.Client = sess
			if wrap {
				if cl, err = rfsrv.NewCluster(p, []*rfsrv.Session{sess}, 0); err != nil {
					t.Fatal(err)
				}
			}
			end, sum = oneServerWorkload(t, p, r.client.Kernel, cl)
		})
		return end, sum
	}
	sessEnd, sessSum := runOnce(false)
	clEnd, clSum := runOnce(true)
	if sessEnd != clEnd {
		t.Errorf("one-server cluster finished at %v, plain session at %v — not bit-identical", clEnd, sessEnd)
	}
	if !bytes.Equal(sessSum, clSum) {
		t.Error("one-server cluster read different bytes than the plain session")
	}
}

// clientLayers lists the two client layers whose synchronous calls are
// both issue + retire on one slot — a window-1 Session's only slot and
// a one-server Cluster over such a session — each built over a fresh
// kernel-side endpoint of the given transport.
var clientLayers = []struct {
	name  string
	build func(t *testing.T, p *sim.Proc, r *rig, transport string) rfsrv.Client
}{
	{"Session(1)", func(t *testing.T, p *sim.Proc, r *rig, transport string) rfsrv.Client {
		return r.sessionOver(t, p, transport, 10, 1)
	}},
	{"Cluster(1 server)", func(t *testing.T, p *sim.Proc, r *rig, transport string) rfsrv.Client {
		cl, err := rfsrv.NewCluster(p, []*rfsrv.Session{r.sessionOver(t, p, transport, 10, 1)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}},
}

// TestClientLayersIdentical is the window-1 identity across the client
// layers on both transports: the same Meta/Read/Write workload
// completes at the same virtual instant, reads the same bytes and
// costs the server the same requests whichever layer issues it — the
// instant and the 18 requests the bare synchronous client took before
// the window-1 Session replaced it.
func TestClientLayersIdentical(t *testing.T) {
	for _, pin := range []struct {
		transport string
		end       sim.Time
	}{{"mx", 7455493}, {"gm", 6824253}} {
		transport, wantEnd := pin.transport, pin.end
		var baseSum []byte
		for i, layer := range clientLayers {
			r := newRig(t)
			var end sim.Time
			var sum []byte
			r.run(t, func(p *sim.Proc) {
				end, sum = oneServerWorkload(t, p, r.client.Kernel, layer.build(t, p, r, transport))
			})
			if i == 0 {
				baseSum = sum
			}
			if end != wantEnd {
				t.Errorf("%s: %s finished at %d ns, the synchronous client at %d", transport, layer.name, end, wantEnd)
			}
			if !bytes.Equal(sum, baseSum) {
				t.Errorf("%s: %s read different bytes than %s", transport, layer.name, clientLayers[0].name)
			}
			if r.srv.Requests.N != 18 {
				t.Errorf("%s: %s cost the server %d requests, the synchronous client 18", transport, layer.name, r.srv.Requests.N)
			}
		}
	}
}

// readUnderKill writes a 256 KB file through a fresh client of the
// given layer over GM, arms the reply deadline, kills the server's NIC
// killAt after the read-back starts, and reports how long the read
// took and how it ended.
func readUnderKill(t *testing.T, layer int, timeout, killAt time.Duration) (elapsed sim.Time, rerr error) {
	t.Helper()
	const size = 256 * 1024
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cl := clientLayers[layer].build(t, p, r, "gm")
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		ino := resp.Attr.Ino
		va, err := r.client.Kernel.Mmap(size, "buf")
		if err != nil {
			t.Fatal(err)
		}
		vec := core.Of(core.KernelSeg(r.client.Kernel, va, size))
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}
		switch c := cl.(type) {
		case *rfsrv.Session:
			c.SetRequestTimeout(timeout)
		case *rfsrv.Cluster:
			c.Sessions()[0].SetRequestTimeout(timeout)
		}
		r.server.NIC.KillAfter(killAt)
		start := p.Now()
		_, rerr = cl.Read(p, ino, 0, vec)
		elapsed = p.Now() - start
	})
	return elapsed, rerr
}

// TestReplyDeadlineRunsFromIssue pins the one deadline rule on every
// layer: a read's data and header waits share ONE budget that starts
// when the request was issued. The server is killed after the read's
// data left and before its reply header did (on GM they are separate,
// ordered messages), so the data wait succeeds late in the budget and
// only the header wait can expire — at issue + timeout, not a fresh
// timeout after the data landed. The gap between the two messages is
// well under a microsecond, so the test aims the kill itself: the
// read's outcome is monotone in the kill instant (data lost, then
// header lost, then nothing lost), and a bisection finds the last
// instant that still loses something.
func TestReplyDeadlineRunsFromIssue(t *testing.T) {
	const timeout = 2 * time.Millisecond
	lost, clean := time.Duration(0), timeout // the fault-free read takes ~1.1 ms
	for clean-lost > 1 {
		mid := (lost + clean) / 2
		if _, err := readUnderKill(t, 0, timeout, mid); err != nil {
			lost = mid
		} else {
			clean = mid
		}
	}
	var base sim.Time
	for i, layer := range clientLayers {
		elapsed, err := readUnderKill(t, i, timeout, lost)
		if !fabric.IsFault(err) || !strings.Contains(err.Error(), "reply for request") {
			t.Fatalf("%s: read under a kill at %v = %v, want the reply HEADER's deadline to expire", layer.name, lost, err)
		}
		// Issue costs a few microseconds before the budget starts and
		// withdrawing the expired receive a few after it ends; a budget
		// re-armed after the data phase would end past 3 ms.
		if elapsed < timeout || elapsed > timeout+50*time.Microsecond {
			t.Errorf("%s: read gave up after %v, want issue + %v", layer.name, elapsed, timeout)
		}
		if i == 0 {
			base = elapsed
		} else if elapsed != base {
			t.Errorf("%s gave up after %v, %s after %v", layer.name, elapsed, clientLayers[0].name, base)
		}
	}
}

// TestClusterMetadataHomeVsDataServer pins down the metadata-ownership
// semantics: after cluster writes, the home server's answer is
// authoritative and reconciled (it reports the true EOF even when the
// tail stripe lives elsewhere); conversely, data written to a data
// server behind the cluster's back does NOT leak into homed getattr —
// metadata is owned by the home, not by whichever server holds bytes.
func TestClusterMetadataHomeVsDataServer(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 4, testStripe)
		const size = 3 * testStripe // stripes 0,1,2 → owners 0,1,0
		ino := clusterCreate(t, p, cl, "f")
		home := cl.HomeServer(ino)
		va, vec := r.kbuf(t, size)
		if err := r.client.Kernel.WriteBytes(va, pattern(size)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}
		// The tail stripe's owner is server 0; whichever server is home,
		// its local size must have been reconciled to the true EOF.
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
		if err != nil || resp.Attr.Size != size {
			t.Fatalf("homed getattr size = %d (%v), want %d", resp.Attr.Size, err, size)
		}
		if a, _ := r.serverFS[home].Getattr(p, ino); a.Size != size {
			t.Fatalf("home server %d local size = %d, want %d", home, a.Size, size)
		}

		// Out-of-band append directly on the non-home server: grows that
		// server's local file but must not change homed metadata.
		rogue := 1 - home
		srvNode := r.servers[rogue]
		sva, err := srvNode.Kernel.Mmap(testStripe, "oob")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.serverFS[rogue].WriteDirect(p, ino, size, core.Of(core.KernelSeg(srvNode.Kernel, sva, testStripe))); err != nil {
			t.Fatal(err)
		}
		if a, _ := r.serverFS[rogue].Getattr(p, ino); a.Size != size+testStripe {
			t.Fatalf("out-of-band append did not take on server %d", rogue)
		}
		resp, err = cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
		if err != nil || resp.Attr.Size != size {
			t.Fatalf("homed getattr after out-of-band append = %d (%v), want %d (home-owned)", resp.Attr.Size, err, size)
		}
	})
}

// TestClusterNamespaceDivergence verifies the replicated-namespace
// guard: if a server's inode allocation is skewed out from under the
// cluster, the next replicated mutation reports divergence instead of
// silently striping data across mismatched inodes.
func TestClusterNamespaceDivergence(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 4, testStripe)
		// Skew server 1: allocate an inode the cluster never saw.
		if _, err := r.serverFS[1].Create(p, r.serverFS[1].Root(), "skew"); err != nil {
			t.Fatal(err)
		}
		_, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "f"})
		if err == nil {
			t.Fatal("divergent create succeeded")
		}
		if want := "diverged"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	})
}

// TestClusterPipelinedStripedReads drives the Async surface the way
// the figures harness and ORFA do: stripe-sized reads kept in flight
// up to the aggregate window, paced by CanStart, retired oldest-first.
func TestClusterPipelinedStripedReads(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 2, testStripe)
		const size = 24 * testStripe
		data := pattern(size)
		ino := clusterCreate(t, p, cl, "f")
		va, vec := r.kbuf(t, size)
		if err := r.client.Kernel.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}

		window := cl.Window() // 3 servers × 2
		bufs := make([]vm.VirtAddr, window)
		vecs := make([]core.Vector, window)
		for i := range bufs {
			bufs[i], vecs[i] = r.kbuf(t, testStripe)
		}
		type slot struct {
			pd  rfsrv.PendingOp
			off int
			buf int
		}
		var q []slot
		maxInFlight := 0
		check := func(s slot) {
			resp, err := s.pd.Wait(p)
			if err != nil || int(resp.N) != testStripe {
				t.Fatalf("striped read at %d: n=%d err=%v", s.off, resp.N, err)
			}
			got, _ := r.client.Kernel.ReadBytes(bufs[s.buf], testStripe)
			if !bytes.Equal(got, data[s.off:s.off+testStripe]) {
				t.Fatalf("striped read at %d: contents differ", s.off)
			}
		}
		for i := 0; i < size/testStripe; i++ {
			off := i * testStripe
			for len(q) > 0 && (len(q) == window || !cl.CanStart(ino, int64(off), testStripe)) {
				check(q[0])
				q = q[1:]
			}
			pd, err := cl.StartRead(p, ino, int64(off), vecs[i%window])
			if err != nil {
				t.Fatal(err)
			}
			q = append(q, slot{pd, off, i % window})
			if cl.InFlight() > maxInFlight {
				maxInFlight = cl.InFlight()
			}
		}
		for _, s := range q {
			check(s)
		}
		if maxInFlight < 4 {
			t.Errorf("pipelining never exceeded %d in flight (window %d)", maxInFlight, window)
		}
	})
}

// TestClusterMetaProceedsWithFullWindows pins the deadlock-freedom
// property behind homed metadata: even when striped reads hold EVERY
// window slot of every server, metadata travels the synchronous
// control path and completes (retiring the reads afterwards still
// works).
func TestClusterMetaProceedsWithFullWindows(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 2, testStripe)
		const size = 8 * testStripe
		ino := clusterCreate(t, p, cl, "f")
		va, vec := r.kbuf(t, size)
		if err := r.client.Kernel.WriteBytes(va, pattern(size)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}
		// Fill every slot: 2 servers x window 2 = 4 stripe reads.
		var pds []rfsrv.PendingOp
		for k := 0; k < 4; k++ {
			_, rv := r.kbuf(t, testStripe)
			pd, err := cl.StartRead(p, ino, int64(k)*testStripe, rv)
			if err != nil {
				t.Fatal(err)
			}
			pds = append(pds, pd)
		}
		if cl.InFlight() != cl.Window() {
			t.Fatalf("setup: %d in flight, want full window %d", cl.InFlight(), cl.Window())
		}
		// Metadata must proceed anyway — lookup, getattr, and a fanned
		// mutation, none of which may touch the data windows.
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: 0, Name: "f"}); err != nil {
			t.Fatalf("lookup with full windows: %v", err)
		}
		if resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil || resp.Attr.Size != size {
			t.Fatalf("getattr with full windows: size=%d err=%v", resp.Attr.Size, err)
		}
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: "d"}); err != nil {
			t.Fatalf("fanned mkdir with full windows: %v", err)
		}
		for _, pd := range pds {
			if _, err := pd.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestClusterStartReadWiderThanWindow: one striped operation needing
// more same-server slots than a server's window must self-retire its
// earlier runs instead of deadlocking (window-1 sessions, a read of
// two stripes per server).
func TestClusterStartReadWiderThanWindow(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 1, testStripe) // window 1 per server
		const size = 4 * testStripe          // 2 runs per server
		data := pattern(size)
		ino := clusterCreate(t, p, cl, "f")
		va, vec := r.kbuf(t, size)
		if err := r.client.Kernel.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			t.Fatal(err)
		}
		rva, rvec := r.kbuf(t, size)
		pd, err := cl.StartRead(p, ino, 0, rvec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := pd.Wait(p)
		if err != nil || int(resp.N) != size {
			t.Fatalf("wide striped read: n=%d err=%v", resp.N, err)
		}
		got, _ := r.client.Kernel.ReadBytes(rva, size)
		if !bytes.Equal(got, data) {
			t.Fatal("wide striped read corrupted data")
		}
	})
}

// TestClusterGetattrDoesNotPoisonSizeCache pins the size-cache
// invariant: a read-only getattr between an async StartWrite (which
// reconciles nothing) and a synchronous Write must not convince the
// cluster that reconciliation already happened. Before the fix, the
// homed getattr cached the home's size and the sync Write skipped
// the reconciliation fan, leaving other servers EOF-clipped. Under
// the size-epoch protocol the getattr reply still feeds only the
// EPOCH side of the validated cache, never the size floor.
func TestClusterGetattrDoesNotPoisonSizeCache(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 2, testStripe)
		ino := clusterCreate(t, p, cl, "f")
		const end = 3 * testStripe

		// Async write of the final stripe: extends only its owner.
		va, vec := r.kbuf(t, testStripe)
		if err := r.client.Kernel.WriteBytes(va, pattern(testStripe)); err != nil {
			t.Fatal(err)
		}
		pd, err := cl.StartWrite(p, ino, 2*testStripe, vec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pd.Wait(p); err != nil {
			t.Fatal(err)
		}

		// Read-only metadata in between (whatever it reports).
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil {
			t.Fatal(err)
		}

		// Sync write of the same final stripe: must reconcile all
		// servers even though a getattr just went by.
		if _, err := cl.Write(p, ino, 2*testStripe, vec); err != nil {
			t.Fatal(err)
		}
		for s, fs := range r.serverFS {
			a, err := fs.Getattr(p, ino)
			if err != nil || a.Size != end {
				t.Fatalf("server %d local size = %d (%v), want %d", s, a.Size, err, end)
			}
		}
		// And the whole range (leading hole included) reads at full length.
		rva, rvec := r.kbuf(t, end)
		resp, err := cl.Read(p, ino, 0, rvec)
		if err != nil || int(resp.N) != end {
			t.Fatalf("striped read after reconciliation: n=%d err=%v, want %d", resp.N, err, end)
		}
		_ = rva
	})
}

// TestClusterMetaBatchRepeatedSizeMutations pins the batched
// self-race fix: a MetaBatch carrying several exact size sets of ONE
// inode must succeed — the cluster stamps each with the epoch it will
// find after the batch's earlier sets (servers bump per exact set) —
// and the LAST mutation must win on every server, exactly as applied.
func TestClusterMetaBatchRepeatedSizeMutations(t *testing.T) {
	r := newClusterRig(t, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.cluster(t, p, 4, testStripe)
		ino := clusterCreate(t, p, cl, "f")
		resps, err := cl.MetaBatch(p, []*rfsrv.Req{
			{Op: rfsrv.OpTruncate, Ino: ino, Off: 3 * testStripe},
			{Op: rfsrv.OpTruncate, Ino: ino, Off: testStripe},
			{Op: rfsrv.OpGetattr, Ino: ino},
		})
		if err != nil {
			t.Fatalf("batched truncate-then-truncate: %v", err)
		}
		if got := resps[2].Attr.Size; got != testStripe {
			t.Fatalf("batched getattr after two truncates = %d, want %d", got, testStripe)
		}
		for s, fs := range r.serverFS {
			if a, _ := fs.Getattr(p, ino); a.Size != testStripe {
				t.Fatalf("server %d size = %d after batch, want %d (last mutation wins)", s, a.Size, testStripe)
			}
		}
		// A follow-up synchronous truncate must not see a stale cache.
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: 2 * testStripe}); err != nil {
			t.Fatalf("truncate after batch: %v", err)
		}
		for s, fs := range r.serverFS {
			if a, _ := fs.Getattr(p, ino); a.Size != 2*testStripe {
				t.Fatalf("server %d size = %d after follow-up truncate, want %d", s, a.Size, 2*testStripe)
			}
		}
	})
}
