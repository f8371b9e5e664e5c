package workload

// cluster_stream: 8 clients x window 8 per server over 4 servers, R = 1,
// 64 KB stripes, all through the rfsrv.Async pipeline surface. Four
// clients stream-read their own 16 MB striped files; four issue
// extending writes — a pipelined append to their own file, published
// with SetFileSize, then synchronous interleaved appends to one shared
// file so the size-coherence protocol runs. The Cluster data path, the
// Session windows, the server workers and NIC/link contention do the
// work; namespace and page cache do almost none. Reads run beside
// writes on the same layer, so a gain for one that costs the other
// shows.
//
// Every read chunk is compared with the seeded content on retirement;
// after the window every written stripe is read back from its owner's
// backing store, and every server's local size of every file is
// audited.

import (
	"bytes"
	"fmt"

	"repro/bench/trace"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

const (
	csServers      = 4
	csReaders      = 4
	csWriters      = 4
	csWindow       = 8
	csStripe       = rfsrv.DefaultStripeSize
	csReadStripes  = 256 // 16 MB per reader
	csOwnStripes   = 192 // 12 MB pipelined append per writer
	csShareStripes = 64  // synchronous shared-file appends per writer
	csWorkers      = 4   // MX server workers
)

type streamPlan struct {
	cfg                     Config
	tape                    tape
	readStripes, ownStripes int
	shareStripes            int
	content                 [csReaders][]byte // seeded reader files
	start                   [csReaders]int    // first stripe each reader asks for
	ownOffs, shareOffs      [csWriters][]int  // tape windows of the writes
}

func newStream(cfg Config) Plan {
	pl := &streamPlan{cfg: cfg, tape: newTape(cfg.Seed, csStripe)}
	pl.readStripes = cfg.scaled(csReadStripes, 8)
	pl.ownStripes = cfg.scaled(csOwnStripes, 6)
	pl.shareStripes = cfg.scaled(csShareStripes, 2)
	rng := rngFor(cfg.Seed, "stream", 0)
	for i := range pl.content {
		pl.content[i] = make([]byte, pl.readStripes*csStripe)
		pl.tape.fillFile(pl.content[i], i)
		pl.start[i] = rng.Intn(pl.readStripes)
	}
	for w := 0; w < csWriters; w++ {
		pl.ownOffs[w] = make([]int, pl.ownStripes)
		pl.shareOffs[w] = make([]int, pl.shareStripes)
		for k := range pl.ownOffs[w] {
			pl.ownOffs[w][k] = rng.Intn(tapeSlack)
		}
		for k := range pl.shareOffs[w] {
			pl.shareOffs[w][k] = rng.Intn(tapeSlack)
		}
	}
	return pl
}

// clusterRig is N MX-served file servers plus client nodes that each
// hold their own striped cluster view. The cluster workloads share it.
type clusterRig struct {
	env         *sim.Engine
	hwc         *hw.Cluster
	serverNodes []*hw.Node
	serverIDs   []hw.NodeID
	serverFS    []*memfs.FS
	servers     []*rfsrv.Server
	serverEPs   []*mx.Endpoint
	clientNodes []*hw.Node
	clusters    []*rfsrv.Cluster
	clientEPs   []*mx.Endpoint
}

// newClusterRig builds the server side. prep, when set, configures each
// server before it starts serving (sharding).
func newClusterRig(servers int, prep func(j int, fs *memfs.FS, srv *rfsrv.Server) error) (*clusterRig, error) {
	rg := &clusterRig{}
	rg.env, rg.hwc = newCluster()
	for j := 0; j < servers; j++ {
		n := rg.hwc.AddNode(fmt.Sprintf("server%d", j))
		fs := memfs.New(fmt.Sprintf("backing%d", j), n, 0)
		srv := rfsrv.NewServer(n, fs)
		if prep != nil {
			if err := prep(j, fs, srv); err != nil {
				return nil, err
			}
		}
		ep, err := srv.ServeMX(mx.Attach(n), 1, csWorkers)
		if err != nil {
			return nil, err
		}
		rg.serverNodes = append(rg.serverNodes, n)
		rg.serverIDs = append(rg.serverIDs, n.ID)
		rg.serverFS = append(rg.serverFS, fs)
		rg.servers = append(rg.servers, srv)
		rg.serverEPs = append(rg.serverEPs, ep)
	}
	return rg, nil
}

// addClient adds a client node wired to every server: one kernel-side
// MX fabric client and one session per server (reply deadline armed
// when timeout > 0), assembled into a striped cluster with replication
// factor replicas.
func (rg *clusterRig) addClient(p *sim.Proc, window, replicas int, timeout sim.Time) (*rfsrv.Cluster, error) {
	node := rg.hwc.AddNode(fmt.Sprintf("client%d", len(rg.clientNodes)))
	m := mx.Attach(node)
	sessions := make([]*rfsrv.Session, len(rg.serverIDs))
	for j, sid := range rg.serverIDs {
		fc, err := rfsrv.NewMXClient(m, uint8(10+j), true, node.Kernel, sid, 1)
		if err != nil {
			return nil, err
		}
		if timeout > 0 {
			fc.SetRequestTimeout(timeout)
		}
		if t, ok := fc.Transport().(interface{ Endpoint() *mx.Endpoint }); ok {
			rg.clientEPs = append(rg.clientEPs, t.Endpoint())
		}
		if sessions[j], err = rfsrv.NewSession(p, fc, window); err != nil {
			return nil, err
		}
	}
	cl, err := rfsrv.NewReplicatedCluster(p, sessions, csStripe, replicas)
	if err != nil {
		return nil, err
	}
	rg.clientNodes = append(rg.clientNodes, node)
	rg.clusters = append(rg.clusters, cl)
	return cl, nil
}

// endpoints returns every MX endpoint of the rig, servers first.
func (rg *clusterRig) endpoints() []*mx.Endpoint {
	return append(append([]*mx.Endpoint(nil), rg.serverEPs...), rg.clientEPs...)
}

// seedStriped lays file name down server-side the way a replicated
// cluster client's own writes would: created on every server in the
// same order (same inode everywhere), stripe k on servers k mod N ..
// +R-1 at its global offset, every server's copy extended to the full
// size. Seeding costs no simulated time.
func (rg *clusterRig) seedStriped(p *sim.Proc, name string, content []byte, replicas int) (kernel.InodeID, error) {
	var ino kernel.InodeID
	n := len(rg.serverFS)
	for j, fs := range rg.serverFS {
		attr, err := fs.Create(p, fs.Root(), name)
		if err != nil {
			return 0, err
		}
		if j == 0 {
			ino = attr.Ino
		} else if attr.Ino != ino {
			return 0, fmt.Errorf("seed %s: inode %d on server %d, %d on server 0", name, attr.Ino, j, ino)
		}
		for k := 0; k*csStripe < len(content); k++ {
			for r := 0; r < replicas; r++ {
				if (k+r)%n == j {
					if err := fs.WriteAt(ino, int64(k)*csStripe, content[k*csStripe:(k+1)*csStripe]); err != nil {
						return 0, err
					}
				}
			}
		}
		if err := fs.Resize(ino, int64(len(content))); err != nil {
			return 0, err
		}
	}
	return ino, nil
}

// clusterCounters folds the clients' cluster, session and transport
// counters and the servers' request counters into the accumulators.
func (r *run) clusterCounters(rg *clusterRig, ops, reads, writes int) {
	var sessions []*rfsrv.Session
	var stripeR, stripeW, setSizes, fanout int64
	for _, cl := range rg.clusters {
		sessions = append(sessions, cl.Sessions()...)
		stripeR += cl.StripeReads.N
		stripeW += cl.StripeWrites.N
		setSizes += cl.SetSizes.N
		fanout += cl.MetaFanout.N
		r.acc.count("rfsrv.failovers", float64(cl.Failovers.N))
		r.acc.count("rfsrv.excluded", float64(cl.Excluded.N))
		r.acc.count("rfsrv.reinstates", float64(cl.Reinstates.N))
		r.acc.count("rfsrv.reinstate_refusals", float64(cl.ReinstateRefusals.N))
		r.acc.count("rfsrv.resync_ops", float64(cl.ResyncOps.N))
		r.acc.count("rfsrv.resync_bytes", float64(cl.ResyncBytes.Bytes))
		r.acc.count("rfsrv.resync_fallbacks", float64(cl.ResyncFallbacks.N))
		r.acc.count("rfsrv.rename_indoubts", float64(cl.RenameInDoubts.N))
	}
	r.sessionCounters(sessions, ops)
	serverCounters(r.acc, rg.servers, ops)
	r.acc.ratio("rfsrv.stripe_reads_per_read", float64(stripeR), float64(reads))
	r.acc.ratio("rfsrv.stripe_writes_per_write", float64(stripeW), float64(writes))
	r.acc.ratio("rfsrv.setsize_per_write", float64(setSizes), float64(writes))
	r.acc.ratio("rfsrv.meta_fanout_per_op", float64(fanout), float64(ops))
	var sends int64
	for _, ep := range rg.endpoints() {
		sends += ep.Sends.N
	}
	r.acc.ratio("mx.sends_per_op", float64(sends), float64(ops))
}

// auditSizes checks that every server's backing store holds want as
// the local size of ino — the cross-server size audit.
func (r *run) auditSizes(rg *clusterRig, what string, ino kernel.InodeID, want int64) {
	for j, fs := range rg.serverFS {
		if got := fs.LocalSize(ino); got != want {
			r.fail("size audit: %s is %d bytes on server %d, want %d", what, got, j, want)
		}
	}
}

// Run implements Plan.
func (pl *streamPlan) Run(tr *trace.Recorder) (*Outcome, error) {
	reads := csReaders * pl.readStripes
	writes := csWriters * (pl.ownStripes + pl.shareStripes)
	r := newRun(pl.cfg, tr, reads+writes)
	var rg *clusterRig
	var readInos, ownInos [4]kernel.InodeID
	var shared kernel.InodeID
	err := r.setup(func() (err error) {
		if rg, err = newClusterRig(csServers, nil); err != nil {
			return err
		}
		return runProc(rg.env, "setup", func(p *sim.Proc) error {
			for i := range readInos {
				if readInos[i], err = rg.seedStriped(p, fmt.Sprintf("r%d", i), pl.content[i], 1); err != nil {
					return err
				}
			}
			for w := range ownInos {
				if ownInos[w], err = rg.seedStriped(p, fmt.Sprintf("w%d", w), nil, 1); err != nil {
					return err
				}
			}
			if shared, err = rg.seedStriped(p, "shared", nil, 1); err != nil {
				return err
			}
			for i := 0; i < csReaders+csWriters; i++ {
				if _, err := rg.addClient(p, csWindow, 1, 0); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("cluster_stream: setup: %w", err)
	}
	idle := rg.env.Stranded()
	_, _, err = r.probedWindow(rg.env, rg.hwc, rg.clientNodes, rg.serverNodes, func() (sim.Time, error) {
		return runProcs(rg.env, "stream", csReaders+csWriters, func(p *sim.Proc, i int) error {
			if i < csReaders {
				return pl.reader(p, r, rg, i, readInos[i])
			}
			w := i - csReaders
			return pl.writer(p, r, i, w, rg.clusters[i], ownInos[w], shared)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("cluster_stream: %w", err)
	}
	r.expectOps(reads + writes)
	r.clusterCounters(rg, r.out.Ops, reads, writes)

	// End state: every written stripe on its owner, every size agreed.
	check := func(what string, ino kernel.InodeID, k int, want []byte, cl *rfsrv.Cluster) {
		off := int64(k) * csStripe
		got := rg.serverFS[cl.OwnerServer(off)].ReadRange(ino, off, csStripe)
		if !bytes.Equal(got, want) {
			r.fail("end state: stripe %d of %s on server %d differs from what was written (byte %d)",
				k, what, cl.OwnerServer(off), firstDiff(got, want))
		}
	}
	for w := 0; w < csWriters; w++ {
		cl := rg.clusters[csReaders+w]
		for k, off := range pl.ownOffs[w] {
			check(fmt.Sprintf("w%d", w), ownInos[w], k, pl.tape.window(off, csStripe), cl)
		}
		for k, off := range pl.shareOffs[w] {
			check("shared", shared, k*csWriters+w, pl.tape.window(off, csStripe), cl)
		}
		r.auditSizes(rg, fmt.Sprintf("w%d", w), ownInos[w], int64(pl.ownStripes)*csStripe)
	}
	r.auditSizes(rg, "shared", shared, int64(pl.shareStripes*csWriters)*csStripe)
	r.hygiene(rg.env, rg.hwc, idle)
	release(rg.env, rg.hwc, rg.serverFS, append(append(readInos[:], ownInos[:]...), shared), rg.endpoints())
	return r.finish(), nil
}

// slotBufs maps one stripe-sized kernel buffer per window slot, so
// transfers in flight never share staging.
func slotBufs(node *hw.Node, slots int) ([]core.Vector, error) {
	bufs := make([]core.Vector, slots)
	for i := range bufs {
		va, err := node.Kernel.Mmap(csStripe, "stream-buf")
		if err != nil {
			return nil, err
		}
		bufs[i] = core.Of(core.KernelSeg(node.Kernel, va, csStripe))
	}
	return bufs, nil
}

// inflight is one pipelined request and the operation it belongs to.
type inflight struct {
	pd   rfsrv.PendingOp
	op   op
	slot int
	k    int // stripe index
}

// reader streams its file's stripes through the cluster's aggregate
// window, starting at a seed-drawn stripe and wrapping, retiring in
// issue order and checking each chunk as it lands.
func (pl *streamPlan) reader(p *sim.Proc, r *run, rg *clusterRig, i int, ino kernel.InodeID) error {
	cl, track := rg.clusters[i], i
	window := cl.Window()
	bufs, err := slotBufs(cl.Node(), window)
	if err != nil {
		return err
	}
	scratch := make([]byte, csStripe)
	var q []inflight
	retire := func() {
		f := q[0]
		q = q[1:]
		resp, err := f.pd.Wait(p)
		if err == nil && int(resp.N) != csStripe {
			err = fmt.Errorf("short read: %d bytes of stripe %d", resp.N, f.k)
		}
		if err == nil {
			var got []byte
			want := pl.content[i][f.k*csStripe : (f.k+1)*csStripe]
			if got, err = vecBytes(cl.Node(), bufs[f.slot], csStripe, scratch); err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("stripe %d of r%d differs from the seeded content at byte %d", f.k, i, firstDiff(got, want))
			}
		}
		r.end(p, f.op, Read, csStripe, err)
	}
	for n := 0; n < pl.readStripes; n++ {
		k := (pl.start[i] + n) % pl.readStripes
		off := int64(k) * csStripe
		for len(q) > 0 && (len(q) == window || !cl.CanStart(ino, off, csStripe)) {
			retire()
		}
		if r.skipNext() {
			continue
		}
		if r.corruptNext() {
			fs := rg.serverFS[cl.OwnerServer(off)]
			if err := fs.WriteAt(ino, off, []byte{^pl.content[i][k*csStripe]}); err != nil {
				return err
			}
		}
		o := r.begin(p, Read, track)
		pd, err := cl.StartRead(p, ino, off, bufs[n%window])
		if err != nil {
			r.end(p, o, Read, csStripe, err)
			continue
		}
		q = append(q, inflight{pd: pd, op: o, slot: n % window, k: k})
	}
	for len(q) > 0 {
		retire()
	}
	return nil
}

// writer appends its own file through the pipeline and publishes the
// size, then appends its share of the shared file synchronously.
func (pl *streamPlan) writer(p *sim.Proc, r *run, track, w int, cl *rfsrv.Cluster, own, shared kernel.InodeID) error {
	window := cl.Window()
	bufs, err := slotBufs(cl.Node(), window)
	if err != nil {
		return err
	}
	var q []inflight
	retire := func() {
		f := q[0]
		q = q[1:]
		resp, err := f.pd.Wait(p)
		if err == nil && int(resp.N) != csStripe {
			err = fmt.Errorf("short write: %d bytes of stripe %d", resp.N, f.k)
		}
		r.end(p, f.op, Write, csStripe, err)
	}
	fill := func(buf core.Vector, tapeOff int) error {
		return setVecBytes(cl.Node(), buf, pl.tape.window(tapeOff, csStripe))
	}
	for k, tapeOff := range pl.ownOffs[w] {
		off := int64(k) * csStripe
		for len(q) > 0 && (len(q) == window || !cl.CanStart(own, off, csStripe)) {
			retire()
		}
		if err := fill(bufs[k%window], tapeOff); err != nil {
			return err
		}
		if r.skipNext() {
			continue
		}
		o := r.begin(p, Write, track)
		pd, err := cl.StartWrite(p, own, off, bufs[k%window])
		if err != nil {
			r.end(p, o, Write, csStripe, err)
			continue
		}
		q = append(q, inflight{pd: pd, op: o, slot: k % window, k: k})
	}
	for len(q) > 0 {
		retire()
	}
	// The pipelined writes extended only the servers their stripes
	// landed on; publish the end of file the way ORFS does at fsync.
	if err := cl.SetFileSize(p, own, int64(len(pl.ownOffs[w]))*csStripe); err != nil {
		return err
	}
	for k, tapeOff := range pl.shareOffs[w] {
		off := int64(k*csWriters+w) * csStripe
		if err := fill(bufs[0], tapeOff); err != nil {
			return err
		}
		if r.skipNext() {
			continue
		}
		o := r.begin(p, Write, track)
		resp, err := cl.Write(p, shared, off, bufs[0])
		if err == nil && int(resp.N) != csStripe {
			err = fmt.Errorf("short shared write: %d bytes at %d", resp.N, off)
		}
		r.end(p, o, Write, csStripe, err)
	}
	return nil
}
