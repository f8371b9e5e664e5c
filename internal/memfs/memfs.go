// Package memfs is the local filesystem backing the file servers: an
// in-memory, ext2-shaped store (inodes, directories, per-page data
// blocks) whose data blocks are physical frames of the node's memory.
//
// Storing blocks in frames matters: the server side of the paper's
// experiments serves files from memory, and sending a block over the
// network with the physical-address primitives requires the block to
// *have* a physical address. An optional per-page disk latency models
// slower backing stores for experiments that want one.
package memfs

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// FS is one memfs instance.
type FS struct {
	name     string
	node     *hw.Node
	inodes   map[kernel.InodeID]*inode
	next     kernel.InodeID
	pageCost sim.Time // simulated disk latency per page (0 = RAM)

	// Inode partitioning (see SetInodePartition): when partN > 1 this
	// instance mints from its own collision-free slice of the inode
	// space instead of the sequential counter, so partN servers can
	// create files independently without ever assigning the same
	// number twice.
	partIdx int
	partN   int
	seq     uint64 // per-partition mint sequence
}

type inode struct {
	attr   kernel.Attr
	blocks map[int64]*mem.Frame      // page index → frame
	dir    map[string]kernel.InodeID // directories only
}

// New creates an empty filesystem on node. pageCost is charged per
// page-sized block access (0 models the paper's RAM-served files).
func New(name string, node *hw.Node, pageCost sim.Time) *FS {
	fs := &FS{
		name:   name,
		node:   node,
		inodes: make(map[kernel.InodeID]*inode),
		next:   1,
	}
	fs.pageCost = pageCost
	root := fs.newInode(kernel.Directory)
	_ = root
	return fs
}

func (fs *FS) newInode(kind kernel.FileKind) *inode {
	return fs.newInodeR(kind, -1)
}

// newInodeR mints an inode. Under partitioning (partN > 1) the number
// encodes both the minter and a routing residue — see mintIno;
// residue < 0 defaults the residue to the minter's own index. Without
// partitioning the legacy sequential counter is used and residue is
// ignored.
func (fs *FS) newInodeR(kind kernel.FileKind, residue int) *inode {
	id := fs.next
	if fs.partN > 1 {
		if residue < 0 {
			residue = fs.partIdx
		}
		id = fs.mintIno(residue)
	}
	ino := &inode{
		attr:   kernel.Attr{Ino: id, Kind: kind, Version: 1},
		blocks: make(map[int64]*mem.Frame),
	}
	if kind == kernel.Directory {
		ino.dir = make(map[string]kernel.InodeID)
	}
	fs.inodes[id] = ino
	if fs.partN <= 1 {
		fs.next++
	}
	return ino
}

// mintIno returns the next unused inode number of this partition that
// carries the given routing residue: ino = 2 + (seq·partN + partIdx)·partN
// + residue. Different minters differ in the middle term, so two
// partitions can never mint the same number; (ino−2) mod partN
// recovers the residue, which is what clients route ownership by.
// Root stays at inode 1 outside the partitioned space.
func (fs *FS) mintIno(residue int) kernel.InodeID {
	n := uint64(fs.partN)
	id := kernel.InodeID(2 + (fs.seq*n+uint64(fs.partIdx))*n + uint64(residue)%n)
	fs.seq++
	return id
}

// SetInodePartition declares this instance to be minter index of
// count cooperating namespace shards: newly created inodes come from a
// collision-free per-minter slice of the inode space (see mintIno)
// instead of the sequential counter. Must be called before any
// partitioned create; the root inode (1) is shared by convention.
func (fs *FS) SetInodePartition(index, count int) {
	fs.partIdx, fs.partN = index, count
}

func (fs *FS) get(id kernel.InodeID) (*inode, error) {
	ino := fs.inodes[id]
	if ino == nil {
		return nil, kernel.ErrNotFound
	}
	return ino, nil
}

func (fs *FS) getDir(id kernel.InodeID) (*inode, error) {
	ino, err := fs.get(id)
	if err != nil {
		return nil, err
	}
	if ino.attr.Kind != kernel.Directory {
		return nil, kernel.ErrNotDir
	}
	return ino, nil
}

// FSName implements kernel.FileSystem.
func (fs *FS) FSName() string { return fs.name }

// Root implements kernel.FileSystem.
func (fs *FS) Root() kernel.InodeID { return 1 }

// Lookup implements kernel.FileSystem.
func (fs *FS) Lookup(p *sim.Proc, dir kernel.InodeID, name string) (kernel.Attr, error) {
	d, err := fs.getDir(dir)
	if err != nil {
		return kernel.Attr{}, err
	}
	id, ok := d.dir[name]
	if !ok {
		return kernel.Attr{}, kernel.ErrNotFound
	}
	child := fs.inodes[id]
	if child == nil {
		// Dangling entry left by a sharded peer's Scrub: report the
		// number so callers can still route by it.
		return kernel.Attr{Ino: id, Kind: kernel.RegularFile}, nil
	}
	return child.attr, nil
}

// Getattr implements kernel.FileSystem.
func (fs *FS) Getattr(p *sim.Proc, id kernel.InodeID) (kernel.Attr, error) {
	ino, err := fs.get(id)
	if err != nil {
		return kernel.Attr{}, err
	}
	return ino.attr, nil
}

// Readdir implements kernel.FileSystem.
func (fs *FS) Readdir(p *sim.Proc, dir kernel.InodeID) ([]kernel.DirEntry, error) {
	d, err := fs.getDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(d.dir))
	for n := range d.dir {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]kernel.DirEntry, 0, len(names))
	for _, n := range names {
		id := d.dir[n]
		kind := kernel.RegularFile
		if child := fs.inodes[id]; child != nil {
			kind = child.attr.Kind
		}
		out = append(out, kernel.DirEntry{Name: n, Ino: id, Kind: kind})
	}
	return out, nil
}

// Create implements kernel.FileSystem.
func (fs *FS) Create(p *sim.Proc, dir kernel.InodeID, name string) (kernel.Attr, error) {
	return fs.makeNode(dir, name, kernel.RegularFile)
}

// Mkdir implements kernel.FileSystem.
func (fs *FS) Mkdir(p *sim.Proc, dir kernel.InodeID, name string) (kernel.Attr, error) {
	return fs.makeNode(dir, name, kernel.Directory)
}

func (fs *FS) makeNode(dir kernel.InodeID, name string, kind kernel.FileKind) (kernel.Attr, error) {
	return fs.makeNodeR(dir, name, kind, -1)
}

func (fs *FS) makeNodeR(dir kernel.InodeID, name string, kind kernel.FileKind, residue int) (kernel.Attr, error) {
	d, err := fs.getDir(dir)
	if err != nil {
		return kernel.Attr{}, err
	}
	if name == "" {
		return kernel.Attr{}, kernel.ErrNotFound
	}
	if _, exists := d.dir[name]; exists {
		return kernel.Attr{}, kernel.ErrExists
	}
	ino := fs.newInodeR(kind, residue)
	d.dir[name] = ino.attr.Ino
	d.attr.Version++
	return ino.attr, nil
}

// Unlink implements kernel.FileSystem.
func (fs *FS) Unlink(p *sim.Proc, dir kernel.InodeID, name string) error {
	return fs.removeNode(dir, name, kernel.RegularFile)
}

// Rmdir implements kernel.FileSystem.
func (fs *FS) Rmdir(p *sim.Proc, dir kernel.InodeID, name string) error {
	return fs.removeNode(dir, name, kernel.Directory)
}

func (fs *FS) removeNode(dir kernel.InodeID, name string, kind kernel.FileKind) error {
	d, err := fs.getDir(dir)
	if err != nil {
		return err
	}
	id, ok := d.dir[name]
	if !ok {
		return kernel.ErrNotFound
	}
	victim := fs.inodes[id]
	if victim == nil {
		// Dangling entry: a sharded peer already scrubbed the object
		// (see Scrub) and only the name survives here. Dropping the
		// name is all that is left to do.
		delete(d.dir, name)
		d.attr.Version++
		return nil
	}
	if kind == kernel.Directory {
		if victim.attr.Kind != kernel.Directory {
			return kernel.ErrNotDir
		}
		if len(victim.dir) > 0 {
			return kernel.ErrNotEmpty
		}
	} else if victim.attr.Kind == kernel.Directory {
		return kernel.ErrIsDir
	}
	fs.freeBlocks(victim, 0)
	delete(fs.inodes, id)
	delete(d.dir, name)
	d.attr.Version++
	return nil
}

// Truncate implements kernel.FileSystem.
func (fs *FS) Truncate(p *sim.Proc, id kernel.InodeID, size int64) error {
	ino, err := fs.get(id)
	if err != nil {
		return err
	}
	if ino.attr.Kind == kernel.Directory {
		return kernel.ErrIsDir
	}
	fs.shrinkTo(ino, size)
	ino.attr.Size = size
	ino.attr.Version++
	return nil
}

// shrinkTo releases whole pages past the new end and zeroes the tail
// of the boundary page (no-op when growing — new pages are holes).
func (fs *FS) shrinkTo(ino *inode, size int64) {
	fs.freeBlocks(ino, (size+mem.PageSize-1)/mem.PageSize)
	if tail := size % mem.PageSize; tail > 0 {
		if f := ino.blocks[size/mem.PageSize]; f != nil {
			zero(f.Data()[tail:])
		}
	}
}

// freeBlocks releases ino's blocks from page index from on, in
// ascending page order: the order frames are freed in is the order
// their PFNs are recycled in, so Go's map order would make the physical
// layout of every later allocation differ from run to run.
func (fs *FS) freeBlocks(ino *inode, from int64) {
	var idxs []int64
	for idx := range ino.blocks {
		if idx >= from {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		fs.node.Mem.Put(ino.blocks[idx])
		delete(ino.blocks, idx)
	}
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// FrameAt returns the frame backing page idx of a file (nil for holes
// or beyond EOF). File servers use it to send blocks by physical
// address, zero-copy.
func (fs *FS) FrameAt(id kernel.InodeID, idx int64) *mem.Frame {
	if ino := fs.inodes[id]; ino != nil {
		return ino.blocks[idx]
	}
	return nil
}

// ensureBlock allocates (zero-filled) the block for page idx.
func (fs *FS) ensureBlock(ino *inode, idx int64) (*mem.Frame, error) {
	if f := ino.blocks[idx]; f != nil {
		return f, nil
	}
	f, err := fs.node.Mem.AllocFrame()
	if err != nil {
		return nil, err
	}
	ino.blocks[idx] = f
	return f, nil
}

// validInPage returns how many bytes of page idx are below EOF.
func validInPage(size int64, idx int64) int {
	start := idx * mem.PageSize
	if size <= start {
		return 0
	}
	n := size - start
	if n > mem.PageSize {
		n = mem.PageSize
	}
	return int(n)
}

// ReadPage implements kernel.FileSystem: local block fetch (a memory
// copy plus the optional disk latency).
func (fs *FS) ReadPage(p *sim.Proc, id kernel.InodeID, idx int64, frame *mem.Frame) (int, error) {
	ino, err := fs.get(id)
	if err != nil {
		return 0, err
	}
	n := validInPage(ino.attr.Size, idx)
	if n == 0 {
		return 0, nil
	}
	if fs.pageCost > 0 {
		p.Sleep(fs.pageCost)
	}
	fs.node.CPU.Copy(p, n)
	if blk := ino.blocks[idx]; blk != nil {
		copy(frame.Data(), blk.Data()[:n])
	} else {
		zero(frame.Data()[:n]) // hole
	}
	return n, nil
}

// ReadPages implements kernel.PageRangeReader for the local store.
func (fs *FS) ReadPages(p *sim.Proc, id kernel.InodeID, idx int64, frames []*mem.Frame) (int, error) {
	total := 0
	for i, f := range frames {
		n, err := fs.ReadPage(p, id, idx+int64(i), f)
		if err != nil {
			return total, err
		}
		total += n
		if n < mem.PageSize {
			break
		}
	}
	return total, nil
}

// WritePage implements kernel.FileSystem.
func (fs *FS) WritePage(p *sim.Proc, id kernel.InodeID, idx int64, frame *mem.Frame, n int) error {
	ino, err := fs.get(id)
	if err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if fs.pageCost > 0 {
		p.Sleep(fs.pageCost)
	}
	blk, err := fs.ensureBlock(ino, idx)
	if err != nil {
		return err
	}
	fs.node.CPU.Copy(p, n)
	copy(blk.Data()[:n], frame.Data()[:n])
	if end := idx*mem.PageSize + int64(n); end > ino.attr.Size {
		ino.attr.Size = end
	}
	ino.attr.Version++
	return nil
}

// ReadDirect implements kernel.FileSystem: local O_DIRECT. The blocks
// go straight into the destination extents — sampled at the call
// instant, before the transfer is charged, so a write racing the charge
// is not seen; the destination is the caller's for the whole call.
func (fs *FS) ReadDirect(p *sim.Proc, id kernel.InodeID, off int64, v core.Vector) (int, error) {
	ino, err := fs.get(id)
	if err != nil {
		return 0, err
	}
	n := v.TotalLen()
	if off >= ino.attr.Size {
		return 0, nil
	}
	if int64(n) > ino.attr.Size-off {
		n = int(ino.attr.Size - off)
	}
	xs, err := v.Extents()
	if err == nil {
		dst := fs.node.Mem.Cursor(xs)
		fs.load(ino, off, n, dst.Write)
	}
	if fs.pageCost > 0 {
		p.Sleep(fs.pageCost * sim.Time((n+mem.PageSize-1)/mem.PageSize))
	}
	fs.node.CPU.Copy(p, n)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// WriteDirect implements kernel.FileSystem. The source extents are the
// caller's for the whole call; their bytes go straight into the blocks
// once the transfer has been charged.
func (fs *FS) WriteDirect(p *sim.Proc, id kernel.InodeID, off int64, v core.Vector) (int, error) {
	ino, err := fs.get(id)
	if err != nil {
		return 0, err
	}
	xs, err := v.Extents()
	if err != nil {
		return 0, err
	}
	n := mem.TotalLen(xs)
	if fs.pageCost > 0 {
		p.Sleep(fs.pageCost * sim.Time((n+mem.PageSize-1)/mem.PageSize))
	}
	fs.node.CPU.Copy(p, n)
	src := fs.node.Mem.Cursor(xs)
	fs.store(ino, off, n, src.Read)
	return n, nil
}

// zeroPage is what a hole reads as.
var zeroPage [mem.PageSize]byte

// load walks [off, off+n) of the block store front to back and hands
// each page's share to emit (a hole as zeros). The slices alias the
// blocks: emit copies what it keeps.
func (fs *FS) load(ino *inode, off int64, n int, emit func(src []byte)) {
	for end := off + int64(n); off < end; {
		pgOff := int(off % mem.PageSize)
		chunk := int(min(int64(mem.PageSize-pgOff), end-off))
		if blk := ino.blocks[off/mem.PageSize]; blk != nil {
			emit(blk.Data()[pgOff : pgOff+chunk])
		} else {
			emit(zeroPage[:chunk])
		}
		off += int64(chunk)
	}
}

// store walks [off, off+n) of the block store front to back, allocating
// blocks as needed, and has fill supply each page's share; then it
// extends the file to cover the range.
func (fs *FS) store(ino *inode, off int64, n int, fill func(dst []byte)) {
	end := off + int64(n)
	for off < end {
		pgOff := int(off % mem.PageSize)
		chunk := int(min(int64(mem.PageSize-pgOff), end-off))
		blk, err := fs.ensureBlock(ino, off/mem.PageSize)
		if err != nil {
			panic(err) // test memories are unbounded
		}
		fill(blk.Data()[pgOff : pgOff+chunk])
		off += int64(chunk)
	}
	if end > ino.attr.Size {
		ino.attr.Size = end
	}
	ino.attr.Version++
}

// readBytes copies [off, off+n) out of the block store into a fresh
// slice. The data path (ReadDirect) does not use it; it stays for the
// host-level readers that return an owned copy — ContentOf and
// ReadRange, the replay and migration bulk channel.
func (fs *FS) readBytes(ino *inode, off int64, n int) []byte {
	out := make([]byte, 0, n)
	fs.load(ino, off, n, func(src []byte) { out = append(out, src...) })
	return out
}

// writeBytes stores data at off, extending the file as needed.
func (fs *FS) writeBytes(ino *inode, off int64, data []byte) {
	fs.store(ino, off, len(data), func(dst []byte) { data = data[copy(dst, data):] })
}

var _ kernel.FileSystem = (*FS)(nil)
