// Package orfs implements ORFS, the paper's in-kernel remote
// file-system client (§3.1): a kernel.FileSystem that forwards
// operations to a distant server over a rfsrv transport (GM or MX).
//
// Mounted through kernel.OS, ORFS gets everything the paper values
// about being in the kernel — the dentry/attribute caches for metadata
// and the page cache for buffered access — and exercises exactly the
// network-interface interactions the paper studies:
//
//   - Buffered access: kernel.PageCache calls ReadPage/WritePage; the
//     destination is a page-cache frame addressed physically, so on MX
//     (and on GM with the §3.3 physical extension) the NIC DMAs file
//     data straight into the page cache.
//   - Direct access (O_DIRECT): kernel.File passes the application's
//     user-virtual vector down; on MX it is pinned per transfer (or
//     rides the rendezvous), on GM it must go through the GMKRC
//     registration cache.
package orfs

import (
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// FS is an ORFS mount's client state.
//
// Over a windowed rfsrv.Session the mount becomes asynchronous on both
// buffered paths:
//
//   - Readahead: sequential ReadPage misses prefetch the following
//     pages through the session window (up to window-1 outstanding),
//     so the per-page round trip the paper identifies as the buffered
//     ceiling (§3.3) overlaps with the application's consumption.
//   - Write-behind: WritePage snapshots the page into a shadow frame
//     and issues the write through the window without waiting; the
//     pipeline drains at the next read/metadata operation or at
//     Sync (wired to Fsync/Close through kernel.Syncer).
//
// At window 1 every path is identical to the paper's prototype.
type FS struct {
	name  string
	cl    rfsrv.Async
	piped bool     // cl.Window() > 1: readahead and write-behind are on
	node  *hw.Node // the client node (shadow frames, copy charges)

	// readahead state: prefetches for the inode being streamed cover
	// page indices [raNext, raHigh).
	raIno  kernel.InodeID
	raNext int64 // next sequential page index expected
	raHigh int64 // next page index to prefetch
	ra     map[int64]*prefetch

	// write-behind state: in-flight page writes, their shadow frames,
	// and the first deferred error (surfaced at the next barrier).
	wb    *fabric.Pipeline[wbWrite]
	wbErr error
	// wbEnd tracks, per inode, the end-of-file the write-behind
	// pipeline has established: striped clusters extend only the
	// servers a page's stripes land on, so the mount publishes this
	// high-water mark through the cluster's size reconciliation
	// (SetFileSize) at every sync barrier — the write-behind half of
	// the size-coherence protocol. wbFailed marks inodes whose drain
	// errored: their tracked EOF is discarded, never published — a
	// failed page write must not grow servers over data that never
	// landed.
	wbEnd    map[kernel.InodeID]int64
	wbFailed map[kernel.InodeID]bool

	// page is the one-segment vector of the synchronous page requests,
	// lent to one request at a time (pageRead, pageWrite).
	page core.Vector

	// Ops counts RPCs issued per operation class.
	MetaOps, ReadOps, WriteOps sim.Counter
	// ReadaheadHits counts pages served from a completed prefetch;
	// Prefetched counts prefetch RPCs issued.
	ReadaheadHits, Prefetched sim.Counter
}

type prefetch struct {
	pd    rfsrv.PendingOp
	frame *mem.Frame
}

type wbWrite struct {
	pd     rfsrv.PendingOp
	shadow *mem.Frame
	ino    kernel.InodeID
}

// New creates an ORFS client over a protocol client (a *rfsrv.Session
// or a striped *rfsrv.Cluster). With a window above 1 the mount
// pipelines buffered reads (readahead) and writes (write-behind)
// through it.
func New(name string, cl rfsrv.Async) *FS {
	f := &FS{name: name, cl: cl, piped: cl.Window() > 1, node: cl.Node()}
	f.wb = fabric.NewPipeline(f.retireWrite)
	if f.piped {
		f.ra = make(map[int64]*prefetch)
		f.wbEnd = make(map[kernel.InodeID]int64)
		f.wbFailed = make(map[kernel.InodeID]bool)
	}
	return f
}

// Sync implements kernel.Syncer: drain the write-behind pipeline,
// surfacing the first deferred write error, then publish the drained
// pages' end-of-file through the client's size reconciliation, so homed
// getattr and striped-read EOF clipping agree with the write-behind
// data on every server (a single server's size is already current).
func (f *FS) Sync(p *sim.Proc) error {
	f.wb.Drain(p) // never fails: retireWrite defers the errors to wbErr
	first := f.wbErr
	f.wbErr = nil
	if len(f.wbEnd) > 0 {
		// Deterministic publication order (map iteration is not). An
		// inode whose drain errored is discarded unpublished (its data
		// never fully landed); one whose publication fails keeps its
		// tracked EOF, so the next barrier retries it — a deferred
		// write error on one file must not lose another file's
		// publication.
		inos := make([]kernel.InodeID, 0, len(f.wbEnd))
		for ino := range f.wbEnd {
			inos = append(inos, ino)
		}
		slices.Sort(inos)
		for _, ino := range inos {
			if f.wbFailed[ino] {
				delete(f.wbEnd, ino)
				continue
			}
			if err := f.cl.SetFileSize(p, ino, f.wbEnd[ino]); err != nil {
				if first == nil {
					first = err
				}
				continue
			}
			delete(f.wbEnd, ino)
		}
	}
	if len(f.wbFailed) > 0 {
		f.wbFailed = make(map[kernel.InodeID]bool)
	}
	return first
}

// retireWrite completes one write-behind page write and frees its
// shadow frame. Write-behind defers its errors instead of failing the
// pipeline — the first goes to wbErr for the next barrier, and every
// failed write marks its inode — so it always returns nil.
func (f *FS) retireWrite(p *sim.Proc, w wbWrite, _ bool) error {
	if _, err := w.pd.Wait(p); err != nil {
		if f.wbErr == nil {
			f.wbErr = err
		}
		f.wbFailed[w.ino] = true
	}
	f.node.Mem.Put(w.shadow)
	return nil
}

// dropReadahead retires (and discards) every outstanding prefetch —
// required before anything that could make the prefetched bytes stale
// or free their frames while a receive is still scattering into them.
// Prefetches retire in page order, the order they were issued in: the
// waits are simulated work, and map order would vary them run to run.
func (f *FS) dropReadahead(p *sim.Proc) {
	idxs := make([]int64, 0, len(f.ra))
	for idx := range f.ra {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		f.ra[idx].pd.Wait(p)
		f.node.Mem.Put(f.ra[idx].frame)
	}
	clear(f.ra)
	f.raIno, f.raNext, f.raHigh = 0, 0, 0
}

// barrier orders an operation behind the asynchronous pipeline: writes
// drain (so reads and metadata see them) and, when the operation can
// invalidate file contents, prefetches are discarded too.
func (f *FS) barrier(p *sim.Proc, invalidate bool) error {
	if !f.piped {
		return nil
	}
	err := f.Sync(p)
	if invalidate {
		f.dropReadahead(p)
	}
	return err
}

// FSName implements kernel.FileSystem.
func (f *FS) FSName() string { return f.name }

// Root implements kernel.FileSystem. Inode 0 is the protocol's "root"
// alias; the server resolves it.
func (f *FS) Root() kernel.InodeID { return 0 }

func (f *FS) meta(p *sim.Proc, req *rfsrv.Req) (*rfsrv.Resp, error) {
	// Metadata is ordered behind in-flight writes; operations that
	// change file contents also discard prefetched pages.
	invalidate := req.Op == rfsrv.OpTruncate || req.Op == rfsrv.OpUnlink
	if err := f.barrier(p, invalidate); err != nil {
		return nil, err
	}
	f.MetaOps.Add(1)
	return f.cl.Meta(p, req)
}

// Lookup implements kernel.FileSystem.
func (f *FS) Lookup(p *sim.Proc, dir kernel.InodeID, name string) (kernel.Attr, error) {
	resp, err := f.meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dir, Name: name})
	if err != nil {
		return kernel.Attr{}, err
	}
	return resp.Attr, nil
}

// Getattr implements kernel.FileSystem.
func (f *FS) Getattr(p *sim.Proc, ino kernel.InodeID) (kernel.Attr, error) {
	resp, err := f.meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
	if err != nil {
		return kernel.Attr{}, err
	}
	return resp.Attr, nil
}

// Readdir implements kernel.FileSystem.
func (f *FS) Readdir(p *sim.Proc, dir kernel.InodeID) ([]kernel.DirEntry, error) {
	resp, err := f.meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: dir})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Create implements kernel.FileSystem.
func (f *FS) Create(p *sim.Proc, dir kernel.InodeID, name string) (kernel.Attr, error) {
	resp, err := f.meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: name})
	if err != nil {
		return kernel.Attr{}, err
	}
	return resp.Attr, nil
}

// Mkdir implements kernel.FileSystem.
func (f *FS) Mkdir(p *sim.Proc, dir kernel.InodeID, name string) (kernel.Attr, error) {
	resp, err := f.meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: dir, Name: name})
	if err != nil {
		return kernel.Attr{}, err
	}
	return resp.Attr, nil
}

// Unlink implements kernel.FileSystem.
func (f *FS) Unlink(p *sim.Proc, dir kernel.InodeID, name string) error {
	_, err := f.meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: dir, Name: name})
	return err
}

// Rmdir implements kernel.FileSystem.
func (f *FS) Rmdir(p *sim.Proc, dir kernel.InodeID, name string) error {
	_, err := f.meta(p, &rfsrv.Req{Op: rfsrv.OpRmdir, Ino: dir, Name: name})
	return err
}

// Rename moves (srcName in srcDir) to (dstName in dstDir). The
// protocol client carries it natively (rfsrv.Client.Rename: a single
// server applies one local rename; a sharded cluster runs the
// cross-owner multi-phase protocol, whose interrupted runs surface as
// rfsrv.ErrRenameInDoubt — re-drive the same rename to resolve).
// Ordered behind the write-behind pipeline like any metadata
// operation.
func (f *FS) Rename(p *sim.Proc, srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) error {
	if err := f.barrier(p, false); err != nil {
		return err
	}
	f.MetaOps.Add(1)
	_, err := f.cl.Rename(p, srcDir, srcName, dstDir, dstName)
	return err
}

// Truncate implements kernel.FileSystem.
func (f *FS) Truncate(p *sim.Proc, ino kernel.InodeID, size int64) error {
	_, err := f.meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: size})
	return err
}

// ReadPage implements kernel.FileSystem: the buffered path. The frame's
// physical address goes straight to the network layer — the paper's
// page-cache case (§2.3.1). Over a windowed session, sequential misses
// prefetch the following pages through the window (readahead), so the
// next ReadPage usually finds its data already in flight or landed.
func (f *FS) ReadPage(p *sim.Proc, ino kernel.InodeID, idx int64, frame *mem.Frame) (int, error) {
	if !f.piped {
		f.ReadOps.Add(mem.PageSize)
		resp, err := f.pageRead(p, ino, idx, frame)
		if err != nil {
			return 0, err
		}
		return int(resp.N), nil
	}
	if err := f.barrier(p, false); err != nil {
		return 0, err
	}
	// Serve from an outstanding prefetch when the stream has one.
	if ino == f.raIno {
		if pf := f.ra[idx]; pf != nil {
			delete(f.ra, idx)
			resp, err := pf.pd.Wait(p)
			if err != nil {
				f.node.Mem.Put(pf.frame)
				return 0, err
			}
			n := int(resp.N)
			if n > 0 {
				f.node.CPU.Copy(p, n)
				copy(frame.Data()[:n], pf.frame.Data()[:n])
			}
			f.node.Mem.Put(pf.frame)
			f.ReadaheadHits.Add(n)
			f.raNext = idx + 1
			if n < mem.PageSize {
				f.dropReadahead(p) // EOF region: stop the stream
			} else {
				f.topUp(p, ino)
			}
			return n, nil
		}
	}
	// Miss. A non-sequential jump (or a new file) resets the stream.
	if ino != f.raIno || idx != f.raNext {
		f.dropReadahead(p)
		f.raIno, f.raNext, f.raHigh = ino, idx, idx+1
	}
	// Never block the miss read behind our own prefetches: if the
	// page's server has no free slot (possible over a striped cluster,
	// whose aggregate window the readahead cap is measured against),
	// retire the readahead we hold instead of deadlocking on it.
	if !f.cl.CanStart(ino, idx*mem.PageSize, mem.PageSize) {
		f.dropReadahead(p)
		f.raIno, f.raNext, f.raHigh = ino, idx, idx+1
	}
	f.ReadOps.Add(mem.PageSize)
	pd, err := f.cl.StartRead(p, ino, idx*mem.PageSize, core.Of(core.PhysSeg(frame.Addr(), mem.PageSize)))
	if err != nil {
		return 0, err
	}
	f.raNext = idx + 1
	if f.raHigh < f.raNext {
		f.raHigh = f.raNext
	}
	// Launch the readahead before waiting, so the prefetches overlap
	// this page's round trip.
	f.topUp(p, ino)
	resp, err := pd.Wait(p)
	if err != nil {
		return 0, err
	}
	if int(resp.N) < mem.PageSize {
		f.dropReadahead(p)
	}
	return int(resp.N), nil
}

// topUp issues prefetches for the pages after raHigh until window-1
// are outstanding, never blocking on the window (CanStart consults
// exactly the server that would receive the next prefetch, so striped
// clusters fill per-server windows without stalling the caller).
func (f *FS) topUp(p *sim.Proc, ino kernel.InodeID) {
	for len(f.ra) < f.cl.Window()-1 && f.cl.CanStart(ino, f.raHigh*mem.PageSize, mem.PageSize) {
		fr, err := f.node.Mem.AllocFrame()
		if err != nil {
			return
		}
		pd, err := f.cl.StartRead(p, ino, f.raHigh*mem.PageSize, core.Of(core.PhysSeg(fr.Addr(), mem.PageSize)))
		if err != nil {
			f.node.Mem.Put(fr)
			return
		}
		f.Prefetched.Add(mem.PageSize)
		f.ra[f.raHigh] = &prefetch{pd: pd, frame: fr}
		f.raHigh++
	}
}

// ReadPages implements kernel.PageRangeReader: several consecutive
// pages in one vectorial request — the request combining the paper
// predicts for Linux 2.6 (§3.3), possible precisely because the
// transport supports vectors of physical segments (§4.1). The single
// combined request already streams all pages in one data transfer, so
// it is not split across the window; it just orders behind the
// pipeline.
func (f *FS) ReadPages(p *sim.Proc, ino kernel.InodeID, idx int64, frames []*mem.Frame) (int, error) {
	if f.piped {
		if err := f.barrier(p, false); err != nil {
			return 0, err
		}
		if ino == f.raIno {
			f.dropReadahead(p) // combined ranges may overlap prefetches
		}
	}
	v := make(core.Vector, 0, len(frames))
	for _, fr := range frames {
		v = append(v, core.PhysSeg(fr.Addr(), mem.PageSize))
	}
	f.ReadOps.Add(v.TotalLen())
	resp, err := f.cl.Read(p, ino, idx*mem.PageSize, v)
	if err != nil {
		return 0, err
	}
	return int(resp.N), nil
}

// WritePage implements kernel.FileSystem. Over a windowed session the
// page is snapshotted into a shadow frame and the write issues through
// the window without waiting (write-behind): page-cache writeback and
// fsync pipelines its pages instead of paying a round trip per page.
// Deferred errors surface at the next barrier or Sync.
func (f *FS) WritePage(p *sim.Proc, ino kernel.InodeID, idx int64, frame *mem.Frame, n int) error {
	f.WriteOps.Add(n)
	if !f.piped {
		return f.pageWrite(p, ino, idx, frame, n)
	}
	if ino == f.raIno {
		f.dropReadahead(p) // the write supersedes prefetched contents
	}
	// Retire the oldest writes first when the target's window is full,
	// so the StartWrite below cannot block with nobody left to drain it.
	f.wb.Room(p, func() bool { return f.cl.CanStart(ino, idx*mem.PageSize, n) })
	// Over a striped cluster the blocking slots may be prefetches
	// rather than writes (another inode's stream can fill one server's
	// window); they are ours too — retire them rather than deadlock.
	if !f.cl.CanStart(ino, idx*mem.PageSize, n) {
		f.dropReadahead(p)
	}
	shadow, err := f.node.Mem.AllocFrame()
	if err != nil {
		// No shadow memory: fall back to the synchronous write.
		return f.pageWrite(p, ino, idx, frame, n)
	}
	f.node.CPU.Copy(p, n)
	copy(shadow.Data()[:n], frame.Data()[:n])
	pd, err := f.cl.StartWrite(p, ino, idx*mem.PageSize, core.Of(core.PhysSeg(shadow.Addr(), n)))
	if err != nil {
		f.node.Mem.Put(shadow)
		return err
	}
	f.wb.Push(wbWrite{pd: pd, shadow: shadow, ino: ino})
	if end := idx*mem.PageSize + int64(n); end > f.wbEnd[ino] {
		f.wbEnd[ino] = end
	}
	return nil
}

// pageVec lends f.page set to the n bytes of frame; a request that
// finds it lent out (another process's page request is blocked) makes
// its own. The client resolves the vector when it issues the request
// and keeps none of it once the request returns, so the caller hands
// it back then.
func (f *FS) pageVec(frame *mem.Frame, n int) core.Vector {
	v := f.page
	f.page = nil
	if v == nil {
		v = make(core.Vector, 1)
	}
	v[0] = core.PhysSeg(frame.Addr(), n)
	return v
}

// pageRead reads page idx of ino into frame with one synchronous
// request.
func (f *FS) pageRead(p *sim.Proc, ino kernel.InodeID, idx int64, frame *mem.Frame) (*rfsrv.Resp, error) {
	v := f.pageVec(frame, mem.PageSize)
	resp, err := f.cl.Read(p, ino, idx*mem.PageSize, v)
	f.page = v
	return resp, err
}

// pageWrite writes the first n bytes of frame as page idx of ino with
// one synchronous request.
func (f *FS) pageWrite(p *sim.Proc, ino kernel.InodeID, idx int64, frame *mem.Frame, n int) error {
	v := f.pageVec(frame, n)
	_, err := f.cl.Write(p, ino, idx*mem.PageSize, v)
	f.page = v
	return err
}

// ReadDirect implements kernel.FileSystem: the O_DIRECT path, handing
// the application's own vector to the transport (§2.3.2).
func (f *FS) ReadDirect(p *sim.Proc, ino kernel.InodeID, off int64, v core.Vector) (int, error) {
	if err := f.barrier(p, false); err != nil {
		return 0, err
	}
	f.ReadOps.Add(v.TotalLen())
	resp, err := f.cl.Read(p, ino, off, v)
	if err != nil {
		return 0, err
	}
	return int(resp.N), nil
}

// WriteDirect implements kernel.FileSystem. Over a windowed session a
// transfer larger than one request is chunked and pipelined by
// Session.Write itself.
func (f *FS) WriteDirect(p *sim.Proc, ino kernel.InodeID, off int64, v core.Vector) (int, error) {
	if err := f.barrier(p, ino == f.raIno); err != nil {
		return 0, err
	}
	f.WriteOps.Add(v.TotalLen())
	resp, err := f.cl.Write(p, ino, off, v)
	if err != nil {
		return 0, err
	}
	return int(resp.N), nil
}

var _ kernel.FileSystem = (*FS)(nil)
