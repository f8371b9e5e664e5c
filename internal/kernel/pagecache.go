package kernel

// This file is the page cache: per-(filesystem, inode, page) frames
// with LRU eviction, holds, dirty tracking and writeback, plus the
// chunked fill path that models Linux 2.6-style read combining.
import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// PageCache is the node's unified page cache (§2.3.1): copies of file
// pages kept in physical frames. Pages are the natural currency of
// buffered remote file access — "Pages of the page-cache are already
// locked in physical memory… their physical address is easy to obtain"
// — which is exactly what the physical-address network primitives
// consume.
type PageCache struct {
	node     *hw.Node
	maxPages int
	inodes   map[inodeKey]*inodePages // resident pages, by file then page
	resident int
	// lru is the sentinel of the resident pages' recency ring: lru.next
	// is the most recently used page, lru.prev the least.
	lru CachedPage
	// frames is FillChunk's frame list, lent to one fill at a time: a
	// fill that finds it lent out (another process's fill is blocked in
	// its read) makes its own.
	frames []*mem.Frame

	// Stats
	HitCount, MissCount, WritebackCount sim.Counter
}

type pcKey struct {
	inodeKey
	idx int64
}

// inodePages is one file's resident pages and how many of them are
// dirty, so flushing or invalidating a file touches only its own pages
// and a clean or absent file costs one lookup.
type inodePages struct {
	pages map[int64]*CachedPage
	dirty int
}

// CachedPage is one resident page. Its record and frame are recycled
// once it is removed and no holder remains (the page-hold rule): a holder —
// an operation that got it from Fill, FillChunk or Add, until its
// Unbusy — may read and write the page across parks, for a held page is
// never evicted and one InvalidateInode drops keeps its frame until the
// last Unbusy.
type CachedPage struct {
	key   pcKey
	Frame *mem.Frame
	N     int // valid bytes (short only for the EOF page)
	Dirty bool
	holds int         // in-progress operations holding the page (not evictable while > 0)
	ip    *inodePages // the file's index while resident, nil once removed

	prev, next *CachedPage // recency-ring neighbours while resident
}

// freePages holds removed pages' records for the next fills, process-wide
// for the reason mem's frame list is (mem.FreeList).
var freePages mem.FreeList[CachedPage]

// newPage returns a page record for frame f, as page key with n valid
// bytes, reusing a removed page's record when there is one.
//
// allocfree
func newPage(key pcKey, f *mem.Frame, n int) *CachedPage {
	pg := freePages.Get()
	if pg == nil {
		//analyze:allow allocfree free-list miss: the record recycles from here on
		pg = new(CachedPage)
	}
	*pg = CachedPage{key: key, Frame: f, N: n}
	return pg
}

// NewPageCache creates a cache bounded to maxPages resident pages
// (0 = unbounded).
func NewPageCache(node *hw.Node, maxPages int) *PageCache {
	pc := &PageCache{
		node:     node,
		maxPages: maxPages,
		inodes:   make(map[inodeKey]*inodePages),
	}
	pc.lru.prev, pc.lru.next = &pc.lru, &pc.lru
	return pc
}

// pushFront links pg into the recency ring as the most recently used.
func (pc *PageCache) pushFront(pg *CachedPage) {
	pg.prev, pg.next = &pc.lru, pc.lru.next
	pg.prev.next, pg.next.prev = pg, pg
}

// unlink takes pg out of the recency ring.
func (pc *PageCache) unlink(pg *CachedPage) {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
}

// Resident returns the number of cached pages.
func (pc *PageCache) Resident() int { return pc.resident }

// DirtyCount returns the number of dirty pages.
func (pc *PageCache) DirtyCount() int {
	n := 0
	for _, ip := range pc.inodes {
		n += ip.dirty
	}
	return n
}

// page returns the resident page, or nil, without touching LRU or
// statistics.
func (pc *PageCache) page(fs FileSystem, ino InodeID, idx int64) *CachedPage {
	if ip := pc.inodes[inodeKey{fs, ino}]; ip != nil {
		return ip.pages[idx]
	}
	return nil
}

// insert makes pg resident and most recently used.
func (pc *PageCache) insert(pg *CachedPage) {
	ip := pc.inodes[pg.key.inodeKey]
	if ip == nil {
		ip = &inodePages{pages: make(map[int64]*CachedPage)}
		pc.inodes[pg.key.inodeKey] = ip
	}
	ip.pages[pg.key.idx] = pg
	pg.ip = ip
	pc.resident++
	pc.pushFront(pg)
}

// setDirty records whether pg differs from the backing store, keeping
// its file's dirty count (a page already dropped has none to keep).
func (pc *PageCache) setDirty(pg *CachedPage, dirty bool) {
	if pg.Dirty == dirty {
		return
	}
	pg.Dirty = dirty
	if pg.ip == nil {
		return
	}
	if dirty {
		pg.ip.dirty++
	} else {
		pg.ip.dirty--
	}
}

// Lookup returns the cached page, or nil on miss, updating LRU and
// statistics.
func (pc *PageCache) Lookup(fs FileSystem, ino InodeID, idx int64) *CachedPage {
	pg := pc.page(fs, ino, idx)
	if pg == nil {
		pc.MissCount.Add(mem.PageSize)
		return nil
	}
	pc.unlink(pg)
	pc.pushFront(pg)
	pc.HitCount.Add(mem.PageSize)
	return pg
}

// Fill reads page idx of (fs, ino) into the cache and returns it,
// allocating a frame (charged to the CPU) and calling fs.ReadPage —
// which for a remote filesystem is a network transfer straight into the
// frame. The returned page, hit or fill, is held until Unbusy.
func (pc *PageCache) Fill(p *sim.Proc, fs FileSystem, ino InodeID, idx int64) (*CachedPage, error) {
	return pc.FillChunk(p, fs, ino, idx, 1)
}

// FillChunk is Fill with request combining: on a miss, up to chunk
// consecutive uncached pages are fetched in one vectorial request if
// the filesystem supports PageRangeReader (the Linux 2.6 behaviour the
// paper's §3.3 anticipates). The page at idx is returned held, a hit as
// much as a fill: its caller parks copying it, and another process's
// miss must not evict it and reuse its frame meanwhile.
func (pc *PageCache) FillChunk(p *sim.Proc, fs FileSystem, ino InodeID, idx int64, chunk int) (*CachedPage, error) {
	if pg := pc.Lookup(fs, ino, idx); pg != nil {
		pg.holds++
		return pg, nil
	}
	rr, vectorial := fs.(PageRangeReader)
	if chunk < 1 || !vectorial {
		chunk = 1
	}
	// Extend the run over consecutive uncached pages only.
	run := 1
	for run < chunk {
		if pc.page(fs, ino, idx+int64(run)) != nil {
			break
		}
		run++
	}
	if err := pc.makeRoom(p); err != nil {
		return nil, err
	}
	// Neither ReadPage nor ReadPages keeps the list past its return, so
	// it goes back to the cache when this fill is done with it.
	frames := pc.frames[:0]
	pc.frames = nil
	defer func() { clear(frames); pc.frames = frames[:0] }()
	for range run {
		pc.node.CPU.PageAlloc(p)
		f, err := pc.node.Mem.AllocFrame()
		if err != nil {
			for _, g := range frames {
				pc.node.Mem.Put(g)
			}
			return nil, err
		}
		frames = append(frames, f)
	}
	var total int
	var err error
	if run == 1 {
		total, err = fs.ReadPage(p, ino, idx, frames[0])
	} else {
		total, err = rr.ReadPages(p, ino, idx, frames)
	}
	if err != nil {
		for _, f := range frames {
			pc.node.Mem.Put(f)
		}
		return nil, err
	}
	var first *CachedPage
	for i, f := range frames {
		n := total - i*mem.PageSize
		if n < 0 {
			n = 0
		}
		if n > mem.PageSize {
			n = mem.PageSize
		}
		pg := newPage(pcKey{inodeKey{fs, ino}, idx + int64(i)}, f, n)
		pc.insert(pg)
		if i == 0 {
			pg.holds++
			first = pg
		}
	}
	return first, nil
}

// Add inserts a fresh writable page without reading from the backing
// store (whole-page overwrite), held until Unbusy.
func (pc *PageCache) Add(p *sim.Proc, fs FileSystem, ino InodeID, idx int64) (*CachedPage, error) {
	if err := pc.makeRoom(p); err != nil {
		return nil, err
	}
	pc.node.CPU.PageAlloc(p)
	frame, err := pc.node.Mem.AllocFrame()
	if err != nil {
		return nil, err
	}
	pg := newPage(pcKey{inodeKey{fs, ino}, idx}, frame, 0)
	pg.holds++
	pc.insert(pg)
	return pg, nil
}

// hold takes one more hold on a resident page for an in-progress
// operation; Unbusy gives it back.
func (pc *PageCache) hold(pg *CachedPage) { pg.holds++ }

// Unbusy gives back one hold taken by Fill, FillChunk, Add or hold. The
// last hold on a page removed while held frees its frame and recycles
// its record (free); the caller gives up its pointer.
//
// allocfree
func (pc *PageCache) Unbusy(pg *CachedPage) {
	if pg.holds--; pg.holds == 0 && pg.ip == nil {
		pc.free(pg)
	}
}

// free gives a removed, unheld page's frame back to the allocator and
// its record to freePages.
//
// allocfree
func (pc *PageCache) free(pg *CachedPage) {
	pc.node.Mem.Put(pg.Frame)
	*pg = CachedPage{}
	freePages.Put(pg)
}

func (pc *PageCache) makeRoom(p *sim.Proc) error {
	if pc.maxPages <= 0 {
		return nil
	}
	for pc.resident >= pc.maxPages {
		evicted := false
		for pg := pc.lru.prev; pg != &pc.lru; pg = pg.prev {
			if pg.holds > 0 {
				continue
			}
			if pg.Dirty {
				pc.hold(pg) // the writeback parks: keep the record meanwhile
				err := pc.writeback(p, pg)
				stale := pg.holds > 1 || pg.ip == nil // held or dropped while parked
				pc.Unbusy(pg)
				if err != nil {
					return err
				}
				if stale {
					evicted = true // look again
					break
				}
			}
			pc.remove(pg)
			evicted = true
			break
		}
		if !evicted {
			return fmt.Errorf("kernel: page cache wedged (all %d pages busy)", pc.resident)
		}
	}
	return nil
}

// remove takes pg out of the cache. Its frame and record are freed now,
// or at the last Unbusy of a held page (the hold rule).
func (pc *PageCache) remove(pg *CachedPage) {
	pc.setDirty(pg, false)
	delete(pg.ip.pages, pg.key.idx)
	if len(pg.ip.pages) == 0 {
		delete(pc.inodes, pg.key.inodeKey)
	}
	pg.ip = nil
	pc.resident--
	pc.unlink(pg)
	if pg.holds == 0 {
		pc.free(pg)
	}
}

// writeback writes pg back to its file, holding it while the write
// parks.
func (pc *PageCache) writeback(p *sim.Proc, pg *CachedPage) error {
	pc.WritebackCount.Add(pg.N)
	pc.hold(pg)
	defer pc.Unbusy(pg)
	if err := pg.key.fs.WritePage(p, pg.key.ino, pg.key.idx, pg.Frame, pg.N); err != nil {
		return err
	}
	pc.setDirty(pg, false)
	return nil
}

// sorted returns the file's resident pages (only the dirty ones if
// dirtyOnly) in ascending page order: map order must reach neither the
// wire (writeback) nor the frame allocator (the PFN recycle list decides
// the physical contiguity of every later allocation).
func (ip *inodePages) sorted(dirtyOnly bool) []*CachedPage {
	var pages []*CachedPage
	for _, pg := range ip.pages {
		if pg.Dirty || !dirtyOnly {
			pages = append(pages, pg)
		}
	}
	slices.SortFunc(pages, func(a, b *CachedPage) int { return cmp.Compare(a.key.idx, b.key.idx) })
	return pages
}

// FlushInode writes back all dirty pages of (fs, ino) in page order
// (fsync / close semantics). Each writeback parks, and another process
// may evict or drop a page meanwhile, and its record be recycled: the
// flush walks the dirty pages' indices and writes back what is still
// resident and dirty under each.
func (pc *PageCache) FlushInode(p *sim.Proc, fs FileSystem, ino InodeID) error {
	ip := pc.inodes[inodeKey{fs, ino}]
	if ip == nil || ip.dirty == 0 {
		return nil
	}
	pages := ip.sorted(true)
	idxs := make([]int64, len(pages))
	for i, pg := range pages {
		idxs[i] = pg.key.idx
	}
	for _, idx := range idxs {
		if pg := pc.page(fs, ino, idx); pg != nil && pg.Dirty {
			if err := pc.writeback(p, pg); err != nil {
				return err
			}
		}
	}
	return nil
}

// InvalidateInode drops all pages of (fs, ino), discarding dirty data
// (used by truncate/unlink and O_DIRECT coherence). Frames are freed in
// page order — a held page's at its last Unbusy.
func (pc *PageCache) InvalidateInode(fs FileSystem, ino InodeID) {
	ip := pc.inodes[inodeKey{fs, ino}]
	if ip == nil {
		return
	}
	for _, pg := range ip.sorted(false) {
		pc.remove(pg)
	}
}
