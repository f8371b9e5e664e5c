package workload

// meta_storm: 4 clients storm 4 servers with seed-driven namespace
// operations over per-client directories — mkdir, create, a 1-16 KB
// write, read-back, lookup (single and MetaBatch), getattr, readdir,
// rename, unlink — first on a replicated fan-out rig, then on a
// sharded-namespace + batched-publish rig, the same generated streams
// on both. proto pack/unpack, MetaBatch, server dispatch, the memfs
// namespace and the metadata fan-out do the work; payload bytes are
// negligible — the opposite of cluster_stream on the same rfsrv code.
//
// The replicated namespace cannot mint inodes from two clients at once
// (different fan interleavings would diverge the servers' inode
// assignment, see figures/metadata.go), so on the fan-out rig creates
// and mkdirs take a rig-wide lock; everything else runs concurrently.
//
// Every reply is checked against a run-time model of the client's
// namespace; afterwards the streams are replayed into a reference
// memfs and the cluster's listings, file bytes and per-server sizes
// are diffed against it.

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"repro/bench/trace"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

const (
	msClients      = 4
	msServers      = 4
	msWindow       = 8
	msOpsPerClient = 3000
	msStartDirs    = 2  // directories each client owns before the window
	msMaxDirs      = 8  // mkdir stops here
	msMaxFiles     = 48 // per client: above this the dice favour unlink
	msMaxWrite     = 16 << 10
	msBatch        = 8 // lookups per MetaBatch operation
)

type msKind uint8

const (
	msMkdir msKind = iota
	msCreate
	msWrite
	msRead
	msLookup
	msLookupBatch
	msGetattr
	msReaddir
	msRename
	msUnlink
)

var msClassOf = [...]Class{msMkdir: Create, msCreate: Create, msWrite: Write, msRead: Read,
	msLookup: Lookup, msLookupBatch: Lookup, msGetattr: Lookup, msReaddir: Readdir,
	msRename: Rename, msUnlink: Unlink}

// msOp is one generated operation. Directories and files are named by
// per-client handles; inode numbers only exist at run time.
type msOp struct {
	kind       msKind
	dir, dir2  int    // directory handles
	file       int    // file handle
	name       string // entry name (create, lookup, unlink, rename source, mkdir)
	name2      string // rename destination
	size       int    // write size
	tapeOff    int
	batchFiles []int // lookup batch: file handles
}

// msGenFile is the generator's view of a live file.
type msGenFile struct {
	handle, dir int
	name        string
	size        int
}

type metaPlan struct {
	cfg  Config
	tape tape
	ops  [msClients][]msOp
	// startDirs[c][d] is the name of client c's d-th initial directory.
	startDirs [msClients][]string
	// nDirs and nFiles size the executors' handle tables.
	nDirs, nFiles [msClients]int
}

func newMetaStorm(cfg Config) Plan {
	pl := &metaPlan{cfg: cfg, tape: newTape(cfg.Seed, msMaxWrite)}
	n := cfg.scaled(msOpsPerClient, 60)
	for c := 0; c < msClients; c++ {
		pl.generate(c, n)
	}
	return pl
}

// msMix is the operation mix in percent of the stream; mkdir and
// unlink are derived (a handful of mkdirs, and unlinks trailing the
// creates so a working set of files stays alive), the rest are lookups.
var msMix = []struct {
	kind msKind
	pct  int
}{{msCreate, 13}, {msWrite, 14}, {msRead, 14}, {msLookup, 12}, {msLookupBatch, 4},
	{msGetattr, 12}, {msReaddir, 8}, {msRename, 8}}

// generate draws client c's stream. The mix is exact — every seed
// issues the same number of each operation, in a seed-drawn order —
// and a model of the client's namespace keeps every operation legal
// when it runs: an operation that is not (a read with nothing written
// yet, a create at the file cap) trades places with the next one
// that is.
func (pl *metaPlan) generate(c, n int) {
	rng := rngFor(pl.cfg.Seed, "meta", c)
	sizes := logUniform(rngFor(pl.cfg.Seed, "meta-sizes", c), n, 1<<10, msMaxWrite)
	shuffle(rng, sizes)
	kinds := make([]msKind, 0, n)
	for _, m := range msMix {
		for i := 0; i < n*m.pct/100; i++ {
			kinds = append(kinds, m.kind)
		}
	}
	creates := n * 13 / 100
	for i := 0; i < creates-min(24, creates/2); i++ {
		kinds = append(kinds, msUnlink)
	}
	for i := 0; i < min(msMaxDirs-msStartDirs, n/50); i++ {
		kinds = append(kinds, msMkdir)
	}
	for len(kinds) < n {
		kinds = append(kinds, msLookup)
	}
	shuffle(rng, kinds)

	var files []*msGenFile
	nDirs, nFiles, serial, withData := msStartDirs, 0, 0, 0
	for d := 0; d < msStartDirs; d++ {
		pl.startDirs[c] = append(pl.startDirs[c], fmt.Sprintf("c%d-d%d-%x", c, d, rng.Intn(1<<16)))
	}
	legal := func(k msKind) bool {
		switch k {
		case msMkdir:
			return nDirs < msMaxDirs
		case msCreate:
			return len(files) < msMaxFiles
		case msRead:
			return withData > 0
		case msUnlink:
			return len(files) > 4
		case msReaddir:
			return true
		}
		return len(files) > 0
	}
	pick := func() (int, *msGenFile) {
		i := rng.Intn(len(files))
		return i, files[i]
	}
	ops := make([]msOp, 0, n)
	for i := range kinds {
		j := i
		for j < n && !legal(kinds[j]) {
			j++
		}
		if j == n {
			kinds[i] = msReaddir // nothing legal is left: always possible
		} else {
			kinds[i], kinds[j] = kinds[j], kinds[i]
		}
		switch kinds[i] {
		case msMkdir:
			ops = append(ops, msOp{kind: msMkdir, dir: nDirs, name: fmt.Sprintf("c%d-d%d-%x", c, nDirs, rng.Intn(1<<16))})
			nDirs++
		case msCreate:
			f := &msGenFile{handle: nFiles, dir: rng.Intn(nDirs), name: fmt.Sprintf("f%d-%x", serial, rng.Intn(1<<16))}
			nFiles++
			serial++
			files = append(files, f)
			ops = append(ops, msOp{kind: msCreate, dir: f.dir, file: f.handle, name: f.name})
		case msWrite:
			_, f := pick()
			if f.size == 0 {
				withData++
			}
			f.size = max(f.size, sizes[i])
			ops = append(ops, msOp{kind: msWrite, file: f.handle, size: sizes[i], tapeOff: rng.Intn(tapeSlack)})
		case msRead:
			_, f := pick()
			for f.size == 0 {
				_, f = pick()
			}
			ops = append(ops, msOp{kind: msRead, file: f.handle})
		case msLookup:
			_, f := pick()
			ops = append(ops, msOp{kind: msLookup, dir: f.dir, file: f.handle, name: f.name})
		case msLookupBatch:
			op := msOp{kind: msLookupBatch}
			for k := 0; k < msBatch; k++ {
				_, f := pick()
				op.batchFiles = append(op.batchFiles, f.handle)
			}
			ops = append(ops, op)
		case msGetattr:
			_, f := pick()
			ops = append(ops, msOp{kind: msGetattr, file: f.handle})
		case msReaddir:
			ops = append(ops, msOp{kind: msReaddir, dir: rng.Intn(nDirs)})
		case msRename:
			_, f := pick()
			to := rng.Intn(nDirs)
			name2 := fmt.Sprintf("f%d-%x", serial, rng.Intn(1<<16))
			serial++
			ops = append(ops, msOp{kind: msRename, dir: f.dir, dir2: to, file: f.handle, name: f.name, name2: name2})
			f.dir, f.name = to, name2
		case msUnlink:
			i, f := pick()
			if f.size > 0 {
				withData--
			}
			ops = append(ops, msOp{kind: msUnlink, dir: f.dir, file: f.handle, name: f.name})
			files[i] = files[len(files)-1]
			files = files[:len(files)-1]
		}
	}
	pl.ops[c] = ops
	pl.nDirs[c], pl.nFiles[c] = nDirs, nFiles
}

// msFile is the executor's run-time model of one file.
type msFile struct {
	ino  kernel.InodeID
	dir  int
	name string
	data []byte
	live bool
}

// msClient executes one client's stream against its cluster.
type msClient struct {
	idx   int
	cl    *rfsrv.Cluster
	dirs  []kernel.InodeID // by directory handle
	files []msFile         // by file handle
	buf   core.Vector      // one msMaxWrite kernel staging buffer
	got   []byte           // read-back scratch
	// names[d] is the set of live entry names in directory d.
	names []map[string]int
}

// Run implements Plan.
func (pl *metaPlan) Run(tr *trace.Recorder) (*Outcome, error) {
	total := 0
	for c := range pl.ops {
		total += len(pl.ops[c])
	}
	r := newRun(pl.cfg, tr, 2*total)
	for rigNo, sharded := range []bool{false, true} {
		if err := pl.runRig(r, sharded); err != nil {
			return nil, fmt.Errorf("meta_storm (rig %d): %w", rigNo, err)
		}
	}
	r.expectOps(2 * total)
	return r.finish(), nil
}

func (pl *metaPlan) runRig(r *run, sharded bool) error {
	var rg *clusterRig
	var oracle *memfs.FS
	clients := make([]*msClient, msClients)
	err := r.setup(func() (err error) {
		var prep func(j int, fs *memfs.FS, srv *rfsrv.Server) error
		if sharded {
			prep = func(j int, fs *memfs.FS, srv *rfsrv.Server) error {
				fs.SetInodePartition(j, msServers)
				return srv.EnableSharding(j, msServers, 1)
			}
		}
		if rg, err = newClusterRig(msServers, prep); err != nil {
			return err
		}
		oracle = memfs.New("oracle", rg.hwc.AddNode("oracle"), 0)
		// Clusters and initial directories are set up serially, in both
		// modes, so the storms are the only difference between the rigs.
		return runProc(rg.env, "setup", func(p *sim.Proc) error {
			for c := range clients {
				cl, err := rg.addClient(p, msWindow, 1, 0)
				if err != nil {
					return err
				}
				if sharded {
					if err := cl.EnableShardedNamespace(); err != nil {
						return err
					}
				}
				mc := &msClient{idx: c, cl: cl, dirs: make([]kernel.InodeID, pl.nDirs[c]),
					files: make([]msFile, pl.nFiles[c]), names: make([]map[string]int, pl.nDirs[c]),
					got: make([]byte, msMaxWrite)}
				va, err := cl.Node().Kernel.Mmap(msMaxWrite, "meta-buf")
				if err != nil {
					return err
				}
				mc.buf = core.Of(core.KernelSeg(cl.Node().Kernel, va, msMaxWrite))
				for d, name := range pl.startDirs[c] {
					resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: name})
					if err != nil {
						return err
					}
					mc.dirs[d] = resp.Attr.Ino
					mc.names[d] = map[string]int{}
				}
				clients[c] = mc
			}
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	idle := rg.env.Stranded()
	var mint *sim.Resource
	if !sharded {
		mint = sim.NewResource(rg.env, "mint-lock", 1)
	}
	var reads, writes int
	ops, window, err := r.probedWindow(rg.env, rg.hwc, rg.clientNodes, rg.serverNodes, func() (sim.Time, error) {
		return runProcs(rg.env, "storm", msClients, func(p *sim.Proc, c int) error {
			for i := range pl.ops[c] {
				o := &pl.ops[c][i]
				switch o.kind {
				case msRead:
					reads++
				case msWrite:
					writes++
				}
				pl.exec(p, r, rg, clients[c], o, mint)
			}
			// The batched-publish rig may still hold size publishes.
			return clients[c].cl.FlushSizes(p)
		})
	})
	if err != nil {
		return err
	}
	r.clusterCounters(rg, ops, reads, writes)
	name := "rfsrv.meta_ops_per_s_fanout"
	if sharded {
		name = "rfsrv.meta_ops_per_s_sharded"
	}
	if window > 0 {
		r.acc.count(name, float64(ops)/window.Seconds())
	}
	if err := pl.endState(r, rg, oracle, clients); err != nil {
		return fmt.Errorf("end state: %w", err)
	}
	r.hygiene(rg.env, rg.hwc, idle)
	var inos []kernel.InodeID
	for _, mc := range clients {
		for h := range mc.files {
			inos = append(inos, mc.files[h].ino)
		}
	}
	release(rg.env, rg.hwc, append(rg.serverFS, oracle), inos, rg.endpoints())
	return nil
}

// exec runs one operation and checks its reply against the model.
func (pl *metaPlan) exec(p *sim.Proc, r *run, rg *clusterRig, mc *msClient, o *msOp, mint *sim.Resource) {
	class := msClassOf[o.kind]
	skip := r.skipNext()
	if !skip && o.kind == msRead && r.corruptNext() {
		f := &mc.files[o.file]
		fs := rg.serverFS[mc.cl.OwnerServer(0)]
		if err := fs.WriteAt(f.ino, 0, []byte{^f.data[0]}); err != nil {
			r.fail("fault injection: %v", err)
		}
	}
	var op op
	if !skip {
		op = r.begin(p, class, mc.idx)
	}
	var err error
	payload := 0
	cl := mc.cl
	switch o.kind {
	case msMkdir, msCreate:
		parent, kind, rop := kernel.InodeID(0), kernel.Directory, rfsrv.OpMkdir
		if o.kind == msCreate {
			parent, kind, rop = mc.dirs[o.dir], kernel.RegularFile, rfsrv.OpCreate
		}
		var ino kernel.InodeID
		if !skip {
			if mint != nil {
				mint.Acquire(p)
			}
			var resp *rfsrv.Resp
			resp, err = cl.Meta(p, &rfsrv.Req{Op: rop, Ino: parent, Name: o.name})
			if mint != nil {
				mint.Release()
			}
			if err == nil && (resp.Attr.Ino == 0 || resp.Attr.Kind != kind) {
				err = fmt.Errorf("%s %q returned inode %d kind %v", rop, o.name, resp.Attr.Ino, resp.Attr.Kind)
			}
			if err == nil {
				ino = resp.Attr.Ino
			}
		}
		if o.kind == msMkdir {
			mc.dirs[o.dir], mc.names[o.dir] = ino, map[string]int{}
		} else {
			mc.files[o.file] = msFile{ino: ino, dir: o.dir, name: o.name, live: true}
			mc.names[o.dir][o.name] = o.file
		}
	case msWrite:
		f := &mc.files[o.file]
		data := pl.tape.window(o.tapeOff, o.size)
		if len(f.data) < o.size {
			f.data = append(f.data, make([]byte, o.size-len(f.data))...)
		}
		copy(f.data, data)
		if skip {
			break
		}
		if err = setVecBytes(cl.Node(), mc.buf, data); err == nil {
			var resp *rfsrv.Resp
			if resp, err = cl.Write(p, f.ino, 0, mc.buf.Slice(0, o.size)); err == nil && int(resp.N) != o.size {
				err = fmt.Errorf("short write: %d of %d bytes", resp.N, o.size)
			}
		}
		payload = o.size
	case msRead:
		if skip {
			break
		}
		f := &mc.files[o.file]
		var resp *rfsrv.Resp
		if resp, err = cl.Read(p, f.ino, 0, mc.buf); err == nil {
			var got []byte
			if int(resp.N) != len(f.data) {
				err = fmt.Errorf("read-back of %q returned %d bytes, model has %d", f.name, resp.N, len(f.data))
			} else if got, err = vecBytes(cl.Node(), mc.buf, len(f.data), mc.got); err == nil && !bytes.Equal(got, f.data) {
				err = fmt.Errorf("read-back of %q differs from the model at byte %d", f.name, firstDiff(got, f.data))
			}
		}
		payload = len(f.data)
	case msLookup:
		if skip {
			break
		}
		var resp *rfsrv.Resp
		if resp, err = cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: mc.dirs[o.dir], Name: o.name}); err == nil {
			err = mc.checkAttr(resp, o.file)
		}
	case msLookupBatch:
		if skip {
			break
		}
		reqs := make([]*rfsrv.Req, len(o.batchFiles))
		for k, h := range o.batchFiles {
			f := &mc.files[h]
			reqs[k] = &rfsrv.Req{Op: rfsrv.OpLookup, Ino: mc.dirs[f.dir], Name: f.name}
		}
		var resps []*rfsrv.Resp
		if resps, err = cl.MetaBatch(p, reqs); err == nil {
			for k, h := range o.batchFiles {
				if err = mc.checkAttr(resps[k], h); err != nil {
					break
				}
			}
		}
	case msGetattr:
		if skip {
			break
		}
		var resp *rfsrv.Resp
		if resp, err = cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: mc.files[o.file].ino}); err == nil {
			err = mc.checkAttr(resp, o.file)
		}
	case msReaddir:
		if skip {
			break
		}
		var resp *rfsrv.Resp
		if resp, err = cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: mc.dirs[o.dir]}); err == nil {
			err = mc.checkListing(o.dir, resp.Entries)
		}
	case msRename:
		f := &mc.files[o.file]
		if !skip {
			_, err = cl.Rename(p, mc.dirs[o.dir], o.name, mc.dirs[o.dir2], o.name2)
		}
		delete(mc.names[o.dir], o.name)
		mc.names[o.dir2][o.name2] = o.file
		f.dir, f.name = o.dir2, o.name2
	case msUnlink:
		if !skip {
			_, err = cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: mc.dirs[o.dir], Name: o.name})
		}
		delete(mc.names[o.dir], o.name)
		mc.files[o.file].live = false
	}
	if !skip {
		r.end(p, op, class, payload, err)
	}
}

// checkAttr compares a reply's attributes with the model of file h.
func (mc *msClient) checkAttr(resp *rfsrv.Resp, h int) error {
	f := &mc.files[h]
	if resp.Attr.Ino != f.ino || resp.Attr.Kind != kernel.RegularFile {
		return fmt.Errorf("%q resolved to inode %d kind %v, model has inode %d", f.name, resp.Attr.Ino, resp.Attr.Kind, f.ino)
	}
	if resp.Attr.Size != int64(len(f.data)) {
		return fmt.Errorf("%q has size %d, model has %d", f.name, resp.Attr.Size, len(f.data))
	}
	return nil
}

// checkListing compares a readdir reply with the model of directory d.
func (mc *msClient) checkListing(d int, entries []kernel.DirEntry) error {
	want := mc.names[d]
	if len(entries) != len(want) {
		return fmt.Errorf("directory %d lists %d entries, model has %d", d, len(entries), len(want))
	}
	for _, e := range entries {
		h, ok := want[e.Name]
		if !ok || mc.files[h].ino != e.Ino {
			return fmt.Errorf("directory %d lists %q as inode %d, model disagrees", d, e.Name, e.Ino)
		}
	}
	return nil
}

// endState replays every client's stream into a reference memfs and
// diffs the cluster against it: each directory's listing, each live
// file's bytes (read back through the cluster), and every server's
// local size of each live file.
func (pl *metaPlan) endState(r *run, rg *clusterRig, oracle *memfs.FS, clients []*msClient) error {
	return runProc(rg.env, "end-state", func(p *sim.Proc) error {
		for c, mc := range clients {
			dirs := make([]kernel.InodeID, pl.nDirs[c])
			files := make([]kernel.InodeID, pl.nFiles[c])
			mkdir := func(d int, name string) error {
				attr, err := oracle.Mkdir(p, oracle.Root(), name)
				dirs[d] = attr.Ino
				return err
			}
			for d, name := range pl.startDirs[c] {
				if err := mkdir(d, name); err != nil {
					return err
				}
			}
			for i := range pl.ops[c] {
				o := &pl.ops[c][i]
				var err error
				switch o.kind {
				case msMkdir:
					err = mkdir(o.dir, o.name)
				case msCreate:
					var attr kernel.Attr
					attr, err = oracle.Create(p, dirs[o.dir], o.name)
					files[o.file] = attr.Ino
				case msWrite:
					err = oracle.WriteAt(files[o.file], 0, pl.tape.window(o.tapeOff, o.size))
				case msRename:
					_, err = oracle.Rename(p, dirs[o.dir], o.name, dirs[o.dir2], o.name2)
				case msUnlink:
					err = oracle.Unlink(p, dirs[o.dir], o.name)
				}
				if err != nil {
					return fmt.Errorf("reference replay of client %d op %d: %w", c, i, err)
				}
			}
			// Listings: the cluster's names must be the replay's names.
			live := map[string]kernel.InodeID{}
			for d := range dirs {
				want, err := oracle.Readdir(p, dirs[d])
				if err != nil {
					return err
				}
				resp, err := mc.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: mc.dirs[d]})
				if err != nil {
					r.fail("end state: readdir of client %d directory %d: %v", c, d, err)
					continue
				}
				got := make([]string, len(resp.Entries))
				for k, e := range resp.Entries {
					got[k] = e.Name
				}
				sort.Strings(got)
				wantNames := make([]string, len(want))
				for k, e := range want {
					wantNames[k] = e.Name
					live[e.Name] = e.Ino
				}
				if !slices.Equal(got, wantNames) {
					r.fail("end state: client %d directory %d lists %d entries, the reference replay %d (or other names)",
						c, d, len(got), len(wantNames))
				}
			}
			// Bytes and sizes of every file the replay still holds.
			for h := range mc.files {
				f := &mc.files[h]
				if !f.live {
					continue
				}
				want, err := oracle.ContentOf(live[f.name])
				if err != nil {
					r.fail("end state: %q is live in the model but not in the reference replay: %v", f.name, err)
					continue
				}
				var got []byte
				resp, err := mc.cl.Read(p, f.ino, 0, mc.buf)
				if err == nil {
					got, err = vecBytes(mc.cl.Node(), mc.buf, int(resp.N), nil)
				}
				if err != nil || !bytes.Equal(got, want) {
					r.fail("end state: %q reads back %d bytes (err %v), the reference replay holds %d (first difference at %d)",
						f.name, len(got), err, len(want), firstDiff(got, want))
				}
				pl.auditFile(r, rg, mc.cl, f, int64(len(want)))
			}
		}
		return nil
	})
}

// auditFile is the cross-server size audit of one small file: the
// server holding its data (stripe 0) and its metadata home agree with
// the reference size, and no server believes the file is longer.
func (pl *metaPlan) auditFile(r *run, rg *clusterRig, cl *rfsrv.Cluster, f *msFile, want int64) {
	for j, fs := range rg.serverFS {
		got := fs.LocalSize(f.ino)
		must := j == cl.OwnerServer(0) || j == cl.HomeServer(f.ino)
		if got > want || (must && got != want) {
			r.fail("size audit: %q is %d bytes on server %d, reference %d", f.name, got, j, want)
		}
	}
}
