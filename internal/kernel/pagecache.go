package kernel

// This file is the page cache: per-(filesystem, inode, page) frames
// with LRU eviction, busy pinning, dirty tracking and writeback, plus
// the chunked fill path that models Linux 2.6-style read combining.
import (
	"cmp"
	"container/list"
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
	lru      *list.List

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

// CachedPage is one resident page.
type CachedPage struct {
	key   pcKey
	Frame *mem.Frame
	N     int // valid bytes (short only for the EOF page)
	Dirty bool
	busy  bool // pinned by an in-progress operation (not evictable)
	lruEl *list.Element
	ip    *inodePages // the file's index while resident, nil once removed
}

// NewPageCache creates a cache bounded to maxPages resident pages
// (0 = unbounded).
func NewPageCache(node *hw.Node, maxPages int) *PageCache {
	return &PageCache{
		node:     node,
		maxPages: maxPages,
		inodes:   make(map[inodeKey]*inodePages),
		lru:      list.New(),
	}
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
	pg.lruEl = pc.lru.PushFront(pg)
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
	pc.lru.MoveToFront(pg.lruEl)
	pc.HitCount.Add(mem.PageSize)
	return pg
}

// Fill reads page idx of (fs, ino) into the cache and returns it,
// allocating a frame (charged to the CPU) and calling fs.ReadPage —
// which for a remote filesystem is a network transfer straight into the
// frame. On miss+fill the returned page is marked busy until Unbusy.
func (pc *PageCache) Fill(p *sim.Proc, fs FileSystem, ino InodeID, idx int64) (*CachedPage, error) {
	return pc.FillChunk(p, fs, ino, idx, 1)
}

// FillChunk is Fill with request combining: on a miss, up to chunk
// consecutive uncached pages are fetched in one vectorial request if
// the filesystem supports PageRangeReader (the Linux 2.6 behaviour the
// paper's §3.3 anticipates). The page at idx is returned busy.
func (pc *PageCache) FillChunk(p *sim.Proc, fs FileSystem, ino InodeID, idx int64, chunk int) (*CachedPage, error) {
	if pg := pc.Lookup(fs, ino, idx); pg != nil {
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
	frames := make([]*mem.Frame, run)
	for i := range frames {
		pc.node.CPU.PageAlloc(p)
		f, err := pc.node.Mem.AllocFrame()
		if err != nil {
			for _, g := range frames[:i] {
				pc.node.Mem.Put(g)
			}
			return nil, err
		}
		frames[i] = f
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
		pg := &CachedPage{key: pcKey{inodeKey{fs, ino}, idx + int64(i)}, Frame: f, N: n}
		pc.insert(pg)
		if i == 0 {
			pg.busy = true
			first = pg
		}
	}
	return first, nil
}

// Add inserts a fresh writable page without reading from the backing
// store (whole-page overwrite).
func (pc *PageCache) Add(p *sim.Proc, fs FileSystem, ino InodeID, idx int64) (*CachedPage, error) {
	if err := pc.makeRoom(p); err != nil {
		return nil, err
	}
	pc.node.CPU.PageAlloc(p)
	frame, err := pc.node.Mem.AllocFrame()
	if err != nil {
		return nil, err
	}
	pg := &CachedPage{key: pcKey{inodeKey{fs, ino}, idx}, Frame: frame, busy: true}
	pc.insert(pg)
	return pg, nil
}

// Unbusy clears the busy mark set by Fill/Add.
func (pc *PageCache) Unbusy(pg *CachedPage) { pg.busy = false }

func (pc *PageCache) makeRoom(p *sim.Proc) error {
	if pc.maxPages <= 0 {
		return nil
	}
	for pc.resident >= pc.maxPages {
		evicted := false
		for el := pc.lru.Back(); el != nil; el = el.Prev() {
			pg := el.Value.(*CachedPage)
			if pg.busy {
				continue
			}
			if pg.Dirty {
				if err := pc.writeback(p, pg); err != nil {
					return err
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

func (pc *PageCache) remove(pg *CachedPage) {
	pc.setDirty(pg, false)
	delete(pg.ip.pages, pg.key.idx)
	if len(pg.ip.pages) == 0 {
		delete(pc.inodes, pg.key.inodeKey)
	}
	pg.ip = nil
	pc.resident--
	pc.lru.Remove(pg.lruEl)
	pc.node.Mem.Put(pg.Frame)
}

func (pc *PageCache) writeback(p *sim.Proc, pg *CachedPage) error {
	pc.WritebackCount.Add(pg.N)
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
// (fsync / close semantics).
func (pc *PageCache) FlushInode(p *sim.Proc, fs FileSystem, ino InodeID) error {
	ip := pc.inodes[inodeKey{fs, ino}]
	if ip == nil || ip.dirty == 0 {
		return nil
	}
	for _, pg := range ip.sorted(true) {
		if err := pc.writeback(p, pg); err != nil {
			return err
		}
	}
	return nil
}

// InvalidateInode drops all pages of (fs, ino), discarding dirty data
// (used by truncate/unlink and O_DIRECT coherence). Frames are freed in
// page order.
func (pc *PageCache) InvalidateInode(fs FileSystem, ino InodeID) {
	ip := pc.inodes[inodeKey{fs, ino}]
	if ip == nil {
		return
	}
	for _, pg := range ip.sorted(false) {
		pc.remove(pg)
	}
}
