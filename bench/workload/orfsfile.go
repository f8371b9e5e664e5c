package workload

// orfs_file: one client, one server, the paper's synchronous protocol
// (a window-1 rfsrv.Session), syscalls through kernel.OS on an ORFS
// mount — first over GM, then over MX. This is the paper's headline
// path (Figs 3b/4b/7): vm, gmkrc, kernel, orfs, rfsrv.Session and
// memfs do the work. Requests are 4 KB..1 MB log-uniform, 70 % reads
// and 30 % writes, half O_DIRECT from a ring of user buffers (through
// the GMKRC registration cache on GM, pinned physical on MX) and half
// buffered through a page cache that holds a quarter of the buffered
// file, in sequential runs mixed with random jumps.
//
// The O_DIRECT half and the buffered half work on one file each (two
// files of half the size instead of one): an O_DIRECT write invalidates
// the inode's whole page cache, so on a shared file the cache would
// never fill and its size relative to the working set would not
// matter.
//
// Every read is compared with a byte model of the file; after the
// window both files' server-side contents are diffed against the
// model. The paper anchors (Fig 3b no-cache deficit, Fig 4b crossover,
// Fig 7b MX-over-GM gain) are then measured in the same rigs.

import (
	"bytes"
	"fmt"

	"repro/bench/trace"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/gmkrc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

const (
	ofOpsPerRig  = 500
	ofFileBytes  = 32 << 20 // each of the two files
	ofMaxReq     = 1 << 20
	ofMinReq     = 4096
	ofBufRing    = 8    // user buffers the application rotates through
	ofRegPages   = 1024 // GMKRC budget: half of what the ring can pin
	ofAnchorSize = 8 << 20
)

// ofOp is one generated syscall.
type ofOp struct {
	write, direct bool
	off           int64
	n             int
	buf           int // user buffer of the ring
	tapeOff       int // payload window (writes)
}

type orfsFilePlan struct {
	cfg       Config
	tape      tape
	fileBytes int
	maxReq    int
	ops       [2][]ofOp // per rig (GM, MX)
	base      [2][]byte // seed content of the direct and the buffered file
}

func newOrfsFile(cfg Config) Plan {
	pl := &orfsFilePlan{cfg: cfg, tape: newTape(cfg.Seed, ofMaxReq)}
	pl.fileBytes = cfg.scaled(ofFileBytes, 2<<20) &^ (mem.PageSize - 1)
	pl.maxReq = ofMaxReq
	if pl.maxReq > pl.fileBytes/4 {
		pl.maxReq = pl.fileBytes / 4
	}
	for f := range pl.base {
		pl.base[f] = make([]byte, pl.fileBytes)
		pl.tape.fillFile(pl.base[f], f)
	}
	n := cfg.scaled(ofOpsPerRig, 30)
	pages := int64(pl.fileBytes / mem.PageSize)
	for rig := range pl.ops {
		rng := rngFor(cfg.Seed, "orfs-ops", rig)
		// Four classes — read/write x direct/buffered, 35/35/15/15 % —
		// each with its own stratified size ladder, so every seed moves
		// the same bytes through each path; the seed decides the order,
		// the offsets, the buffers and the payload.
		ops := make([]ofOp, 0, n)
		for _, class := range []struct {
			write, direct bool
			share         int // of 20
		}{{false, true, 7}, {false, false, 7}, {true, true, 3}, {true, false, 3}} {
			for _, size := range logUniform(rng, n*class.share/20, ofMinReq, pl.maxReq) {
				ops = append(ops, ofOp{write: class.write, direct: class.direct, n: size})
			}
		}
		shuffle(rng, ops)
		var cursor [2]int64 // per file: where the sequential run continues
		for i := range ops {
			o := &ops[i]
			o.buf, o.tapeOff = rng.Intn(ofBufRing), rng.Intn(tapeSlack)
			f := 1
			if o.direct {
				f = 0
			}
			if rng.Intn(4) == 0 { // one op in four starts a new run
				cursor[f] = rng.Int63n(pages) * mem.PageSize
			}
			if cursor[f]+int64(o.n) > int64(pl.fileBytes) {
				cursor[f] = 0
			}
			o.off = cursor[f]
			cursor[f] += int64(o.n+mem.PageSize-1) &^ (mem.PageSize - 1)
		}
		pl.ops[rig] = ops
	}
	return pl
}

// ofRig is one client/server pair over one transport.
type ofRig struct {
	env            *sim.Engine
	hwc            *hw.Cluster
	client, server *hw.Node
	serverFS       *memfs.FS
	srv            *rfsrv.Server
	sess           *rfsrv.Session
	fs             *orfs.FS
	osys           *kernel.OS
	as             *vm.AddressSpace
	bufs           []vm.VirtAddr
	inos           [2]kernel.InodeID
	anchorIno      kernel.InodeID
	model          [2][]byte
	cache          *gmkrc.Cache // GM rig only
	gmPorts        []*gm.Port
	mxEPs          []*mx.Endpoint
}

var ofFileNames = [2]string{"direct", "buffered"}

func (pl *orfsFilePlan) build(useMX bool) (*ofRig, error) {
	rg := &ofRig{}
	rg.env, rg.hwc = newCluster()
	rg.client, rg.server = rg.hwc.AddNode("client"), rg.hwc.AddNode("server")
	rg.serverFS = memfs.New("backing", rg.server, 0)
	rg.srv = rfsrv.NewServer(rg.server, rg.serverFS)
	if useMX {
		ep, err := rg.srv.ServeMX(mx.Attach(rg.server), 1, 1)
		if err != nil {
			return nil, err
		}
		rg.mxEPs = append(rg.mxEPs, ep)
	} else {
		port, err := rg.srv.ServeGM(gm.Attach(rg.server), 1)
		if err != nil {
			return nil, err
		}
		rg.gmPorts = append(rg.gmPorts, port)
	}
	err := runProc(rg.env, "setup", func(p *sim.Proc) error {
		for f, name := range ofFileNames {
			attr, err := rg.serverFS.Create(p, rg.serverFS.Root(), name)
			if err != nil {
				return err
			}
			if err := rg.serverFS.WriteAt(attr.Ino, 0, pl.base[f]); err != nil {
				return err
			}
			rg.inos[f] = attr.Ino
			rg.model[f] = append([]byte(nil), pl.base[f]...)
		}
		attr, err := rg.serverFS.Create(p, rg.serverFS.Root(), "anchor")
		if err != nil {
			return err
		}
		if err := rg.serverFS.WriteAt(attr.Ino, 0, make([]byte, ofAnchorSize)); err != nil {
			return err
		}
		rg.anchorIno = attr.Ino
		var fc *rfsrv.FabricClient
		if useMX {
			fc, err = rfsrv.NewMXClient(mx.Attach(rg.client), 2, true, rg.client.Kernel, rg.server.ID, 1)
		} else {
			fc, err = rfsrv.NewGMClient(p, gm.Attach(rg.client), 2, true, rg.client.Kernel, rg.server.ID, 1, ofRegPages)
		}
		if err != nil {
			return err
		}
		switch t := fc.Transport().(type) {
		case *fabric.GMTransport:
			rg.cache = t.Cache()
			rg.gmPorts = append(rg.gmPorts, t.Port())
		case *fabric.MXTransport:
			rg.mxEPs = append(rg.mxEPs, t.Endpoint())
		}
		if rg.sess, err = rfsrv.NewSession(p, fc, 1); err != nil {
			return err
		}
		rg.fs = orfs.New("orfs", rg.sess)
		rg.osys = kernel.NewOS(rg.client, pl.fileBytes/mem.PageSize/4)
		rg.osys.Mount("/mnt", rg.fs)
		rg.as = rg.client.NewUserSpace("app")
		for i := 0; i < ofBufRing; i++ {
			va, err := rg.as.Mmap(pl.maxReq, "buf")
			if err != nil {
				return err
			}
			rg.bufs = append(rg.bufs, va)
		}
		return nil
	})
	return rg, err
}

// Run implements Plan.
func (pl *orfsFilePlan) Run(tr *trace.Recorder) (*Outcome, error) {
	r := newRun(pl.cfg, tr, len(pl.ops[0])+len(pl.ops[1]))
	var rigs [2]*ofRig
	planned := 0
	for i := range rigs {
		var rg *ofRig
		if err := r.setup(func() (err error) { rg, err = pl.build(i == 1); return }); err != nil {
			return nil, fmt.Errorf("orfs_file: setup: %w", err)
		}
		rigs[i] = rg
		idle := rg.env.Stranded()
		ops, _, err := r.probedWindow(rg.env, rg.hwc, []*hw.Node{rg.client}, []*hw.Node{rg.server},
			func() (sim.Time, error) { return pl.window(r, rg, pl.ops[i]) })
		if err != nil {
			return nil, fmt.Errorf("orfs_file: %w", err)
		}
		planned += len(pl.ops[i])
		rg.layerCounters(r.acc, ops)
		r.sessionCounters([]*rfsrv.Session{rg.sess}, ops)
		pl.endState(r, rg)
		r.hygiene(rg.env, rg.hwc, idle)
	}
	r.expectOps(planned)
	if err := pl.anchors(r, rigs); err != nil {
		return nil, fmt.Errorf("orfs_file: anchors: %w", err)
	}
	for _, rg := range rigs {
		inos := []kernel.InodeID{rg.inos[0], rg.inos[1], rg.anchorIno}
		for _, ino := range inos {
			rg.osys.PC.InvalidateInode(rg.fs, ino)
		}
		release(rg.env, rg.hwc, []*memfs.FS{rg.serverFS}, inos, rg.mxEPs, rg.as)
	}
	return r.finish(), nil
}

// window issues the generated syscalls, then closes both files (the
// close flushes the buffered file's dirty pages, so it belongs to the
// window).
func (pl *orfsFilePlan) window(r *run, rg *ofRig, ops []ofOp) (sim.Time, error) {
	scratch := make([]byte, pl.maxReq)
	return runProcs(rg.env, "app", 1, func(p *sim.Proc, _ int) error {
		var files [2]*kernel.File
		for f, name := range ofFileNames {
			flags := kernel.OpenFlag(0)
			if f == 0 {
				flags = kernel.ODirect
			}
			var err error
			if files[f], err = rg.osys.Open(p, "/mnt/"+name, flags); err != nil {
				return err
			}
		}
		for _, o := range ops {
			f := 1
			if o.direct {
				f = 0
			}
			va := rg.bufs[o.buf]
			model := rg.model[f][o.off : o.off+int64(o.n)]
			if o.write {
				data := pl.tape.window(o.tapeOff, o.n)
				if err := rg.as.WriteBytes(va, data); err != nil {
					return err
				}
				copy(model, data)
				if r.skipNext() {
					continue
				}
				op := r.begin(p, Write, 0)
				got, err := files[f].WriteAt(p, rg.as, va, o.n, o.off)
				if err == nil && got != o.n {
					err = fmt.Errorf("short write: %d of %d bytes at %d", got, o.n, o.off)
				}
				r.end(p, op, Write, o.n, err)
				continue
			}
			if r.skipNext() {
				continue
			}
			if o.direct && r.corruptNext() {
				if err := rg.serverFS.WriteAt(rg.inos[f], o.off, []byte{^model[0]}); err != nil {
					return err
				}
			}
			op := r.begin(p, Read, 0)
			got, err := files[f].ReadAt(p, rg.as, va, o.n, o.off)
			if err == nil && got != o.n {
				err = fmt.Errorf("short read: %d of %d bytes at %d", got, o.n, o.off)
			}
			if err == nil {
				if err = rg.as.ReadBytesInto(va, scratch[:o.n]); err == nil && !bytes.Equal(scratch[:o.n], model) {
					err = fmt.Errorf("read of %d bytes at %d (%s) differs from the model at byte %d",
						o.n, o.off, ofFileNames[f], firstDiff(scratch[:o.n], model))
				}
			}
			r.end(p, op, Read, o.n, err)
		}
		for _, f := range files {
			if err := f.Close(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// endState diffs both files' server-side bytes against the model.
func (pl *orfsFilePlan) endState(r *run, rg *ofRig) {
	for f, name := range ofFileNames {
		got, err := rg.serverFS.ContentOf(rg.inos[f])
		if err != nil {
			r.fail("end state of %s: %v", name, err)
			continue
		}
		if !bytes.Equal(got, rg.model[f]) {
			r.fail("end state of %s: server holds %d bytes, model %d, first difference at byte %d",
				name, len(got), len(rg.model[f]), firstDiff(got, rg.model[f]))
		}
	}
}

// layerCounters reads the window's counters off the rig's layers. The
// rig is fresh, so cumulative values are the window's.
func (rg *ofRig) layerCounters(acc fracs, ops int) {
	pc := rg.osys.PC
	acc.ratio("kernel.pagecache_hit_ratio", float64(pc.HitCount.N), float64(pc.HitCount.N+pc.MissCount.N))
	acc.count("kernel.pagecache_writebacks", float64(pc.WritebackCount.N))
	acc.ratio("kernel.dcache_hit_ratio", float64(rg.osys.DCacheHits.N), float64(rg.osys.DCacheHits.N+rg.osys.DCacheMisses.N))
	// Syscalls issued: one per op plus two opens and two closes.
	acc.ratio("orfs.wire_ops_per_syscall", float64(rg.fs.MetaOps.N+rg.fs.ReadOps.N+rg.fs.WriteOps.N), float64(ops+4))
	acc.ratio("orfs.readahead_hit_ratio", float64(rg.fs.ReadaheadHits.N), float64(rg.fs.Prefetched.N))
	if rg.cache != nil {
		acc.ratio("gmkrc.hit_ratio", float64(rg.cache.Hits.N), float64(rg.cache.Hits.N+rg.cache.Misses.N))
		acc.count("gmkrc.evictions", float64(rg.cache.Evictions.N))
	}
	serverCounters(acc, []*rfsrv.Server{rg.srv}, ops)
	var gmSends, mxSends, drops int64
	for _, pt := range rg.gmPorts {
		gmSends += pt.Sends.N
		drops += pt.DirectedDrops.N
	}
	for _, ep := range rg.mxEPs {
		mxSends += ep.Sends.N
	}
	acc.ratio("gm.sends_per_op", float64(gmSends), float64(ops))
	acc.ratio("mx.sends_per_op", float64(mxSends), float64(ops))
	acc.count("gm.directed_drops", float64(drops))
}

// sessionCounters folds the client sessions' window counters into the
// accumulators and checks that every window is idle again.
func (r *run) sessionCounters(sessions []*rfsrv.Session, ops int) {
	var issued, batched int64
	for i, s := range sessions {
		issued += s.Issued.N
		batched += s.Batched.N
		r.acc.max("rfsrv.session_max_inflight", float64(s.MaxInFlight()))
		if n := s.InFlight(); n != 0 {
			r.fail("session %d still has %d requests in its window after the run", i, n)
		}
	}
	r.acc.ratio("rfsrv.session_issued_per_op", float64(issued), float64(ops))
	r.acc.ratio("rfsrv.session_batched_ratio", float64(batched), float64(issued))
}

// serverCounters folds the servers' request counters into acc.
func serverCounters(acc fracs, servers []*rfsrv.Server, ops int) {
	var total, top int64
	for _, s := range servers {
		total += s.Requests.N
		if s.Requests.N > top {
			top = s.Requests.N
		}
	}
	acc.ratio("rfsrv.server_requests_per_op", float64(total), float64(ops))
	acc.ratio("rfsrv.server_requests_skew", float64(top), float64(total)/float64(len(servers)))
}

// seqRead is the file figures' measurement: sequential reads of req
// bytes from base through f, rotating over bufs, and the application-
// level MB/s.
func seqRead(p *sim.Proc, f *kernel.File, as *vm.AddressSpace, bufs []vm.VirtAddr, req int, base int64, reads int) (float64, error) {
	t0 := p.Now()
	total := 0
	for i := 0; i < reads; i++ {
		got, err := f.ReadAt(p, as, bufs[i%len(bufs)], req, base+int64(total))
		if err != nil {
			return 0, err
		}
		total += got
	}
	if total != req*reads {
		return 0, fmt.Errorf("anchor read %d of %d bytes", total, req*reads)
	}
	return mbps(int64(total), p.Now()-t0), nil
}

// figureWorkingSet is cmd/figures' bytes-per-point rule.
func figureWorkingSet(req int) int {
	t := req * 128
	if t < 16<<10 {
		t = 16 << 10
	}
	if t > 2<<20 {
		t = 2 << 20
	}
	return t
}

// Paper anchors of the file figures.
const (
	paperNoCacheDeficitPct = 20.0 // Fig 3(b): no-cache ~20 % below cached
	paperCrossoverBytes    = 4096 // Fig 4(b): buffered wins up to 4 KB requests
	paperBufferedGainPct   = 40.0 // Fig 7(b): ORFS/MX buffered ~+40 % over GM
)

// anchors measures the file figures' numeric anchors on the two rigs'
// idle "anchor" file: every buffered probe reads a region no probe
// touched before, so it sees a cold cache as the figures' fresh rigs do.
func (pl *orfsFilePlan) anchors(r *run, rigs [2]*ofRig) error {
	var direct1M, buffered1M [2]float64
	var deficit float64
	crossover := 0
	for i, rg := range rigs {
		err := runProc(rg.env, "anchors", func(p *sim.Proc) error {
			fd, err := rg.osys.Open(p, "/mnt/anchor", kernel.ODirect)
			if err != nil {
				return err
			}
			fb, err := rg.osys.Open(p, "/mnt/anchor", 0)
			if err != nil {
				return err
			}
			one := rg.bufs[:1]
			cold := int64(0) // next never-read region of the anchor file
			bufferedAt := func(req int) (float64, error) {
				ws := figureWorkingSet(req)
				v, err := seqRead(p, fb, rg.as, one, req, cold, ws/req)
				cold += int64(ws)
				return v, err
			}
			directAt := func(req int, bufs []vm.VirtAddr) (float64, error) {
				if rg.cache != nil {
					// A figure point starts with an empty registration
					// cache; so does each probe.
					if err := rg.cache.Flush(p); err != nil {
						return 0, err
					}
				}
				return seqRead(p, fd, rg.as, bufs, req, 0, figureWorkingSet(req)/req)
			}
			if direct1M[i], err = directAt(pl.maxReq, one); err != nil {
				return err
			}
			if buffered1M[i], err = bufferedAt(pl.maxReq); err != nil {
				return err
			}
			if i == 1 {
				return nil
			}
			// Fig 3(b): 64 KB direct reads from one reused buffer against
			// a buffer never seen before on every read.
			const req = 64 << 10
			fresh := make([]vm.VirtAddr, figureWorkingSet(req)/req)
			for k := range fresh {
				if fresh[k], err = rg.as.Mmap(req, "nocache"); err != nil {
					return err
				}
			}
			cached, err := directAt(req, one)
			if err != nil {
				return err
			}
			uncached, err := directAt(req, fresh)
			if err != nil {
				return err
			}
			deficit = (1 - uncached/cached) * 100
			// Fig 4(b): the largest request size at which buffered access
			// still beats direct.
			for req := 1024; req <= 16<<10; req *= 2 {
				d, err := directAt(req, one)
				if err != nil {
					return err
				}
				b, err := bufferedAt(req)
				if err != nil {
					return err
				}
				if b > d {
					crossover = req
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	gain := (buffered1M[1]/buffered1M[0] - 1) * 100
	if direct1M[1] <= direct1M[0] {
		r.fail("Fig 7(a): ORFS/MX direct %.1f MB/s is not above ORFS/GM %.1f MB/s", direct1M[1], direct1M[0])
	}
	r.out.E2E["paper_err_pct"] = (relErr(deficit, paperNoCacheDeficitPct) +
		relErr(float64(crossover), paperCrossoverBytes) +
		relErr(gain, paperBufferedGainPct)) / 3
	return nil
}
