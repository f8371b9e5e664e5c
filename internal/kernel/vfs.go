package kernel

// This file is the VFS: the mount table, dentry/attribute caches,
// open-file API (buffered and O_DIRECT paths) and the shared
// inode-size table that keeps every open description agreeing on EOF.
import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// OS is the per-node operating-system instance: mount table, VFS
// caches, page cache and the file API offered to simulated applications.
type OS struct {
	Node *hw.Node
	PC   *PageCache

	mounts []mount
	dcache map[string]Attr    // full path → attributes (dentry+attr cache)
	isize  map[inodeKey]int64 // shared inode sizes (one per inode, like i_size)

	// readChunk is the buffered-read combining factor in pages (1 =
	// the Linux 2.4 page-at-a-time behaviour the paper measures;
	// larger values model the 2.6 combining it predicts, used by the
	// combining ablation in the benchmarks).
	readChunk int

	// DCacheHits/DCacheMisses count metadata cache effectiveness (the
	// ORFS-vs-ORFA metadata argument, §3.1).
	DCacheHits, DCacheMisses sim.Counter
}

type mount struct {
	prefix string
	fs     FileSystem
}

// NewOS creates the OS for a node with a page-cache bound (0 =
// unbounded).
func NewOS(node *hw.Node, pageCachePages int) *OS {
	return &OS{
		Node:   node,
		PC:     NewPageCache(node, pageCachePages),
		dcache: make(map[string]Attr),
		isize:  make(map[inodeKey]int64),
	}
}

type inodeKey struct {
	fs  FileSystem
	ino InodeID
}

// SetReadChunkPages sets the buffered-read combining factor: on a page
// cache miss, up to n consecutive pages are fetched in one request if
// the filesystem supports it (kernel.PageRangeReader). n <= 1 restores
// the strict page-at-a-time behaviour of the paper's Linux 2.4 testbed.
func (o *OS) SetReadChunkPages(n int) {
	if n < 1 {
		n = 1
	}
	o.readChunk = n
}

// Mount attaches fs at prefix (e.g. "/mnt/orfs"). Longest prefix wins
// at resolution.
func (o *OS) Mount(prefix string, fs FileSystem) {
	prefix = strings.TrimSuffix(prefix, "/")
	o.mounts = append(o.mounts, mount{prefix, fs})
}

// resolveMount finds the filesystem serving path.
func (o *OS) resolveMount(path string) (FileSystem, string, error) {
	var best *mount
	for i := range o.mounts {
		m := &o.mounts[i]
		if path == m.prefix || strings.HasPrefix(path, m.prefix+"/") || m.prefix == "" {
			if best == nil || len(m.prefix) > len(best.prefix) {
				best = m
			}
		}
	}
	if best == nil {
		return nil, "", fmt.Errorf("kernel: no filesystem mounted for %q", path)
	}
	rel := strings.TrimPrefix(path, best.prefix)
	rel = strings.Trim(rel, "/")
	return best.fs, rel, nil
}

// walk resolves path to attributes, consulting the dentry cache and
// charging one VFS traversal per component looked up remotely.
func (o *OS) walk(p *sim.Proc, path string) (FileSystem, Attr, error) {
	fs, rel, err := o.resolveMount(path)
	if err != nil {
		return nil, Attr{}, err
	}
	if a, ok := o.dcache[path]; ok {
		o.DCacheHits.Add(1)
		o.Node.CPU.VFS(p)
		return fs, a, nil
	}
	o.DCacheMisses.Add(1)
	attr, err := o.walkUncached(p, fs, rel)
	if err != nil {
		return nil, Attr{}, err
	}
	o.dcache[path] = attr
	return fs, attr, nil
}

func (o *OS) walkUncached(p *sim.Proc, fs FileSystem, rel string) (Attr, error) {
	cur, err := fs.Getattr(p, fs.Root())
	if err != nil {
		return Attr{}, err
	}
	if rel == "" {
		return cur, nil
	}
	for _, comp := range strings.Split(rel, "/") {
		o.Node.CPU.VFS(p)
		if cur.Kind != Directory {
			return Attr{}, ErrNotDir
		}
		cur, err = fs.Lookup(p, cur.Ino, comp)
		if err != nil {
			return Attr{}, err
		}
	}
	return cur, nil
}

// invalidateDentry drops the cache entry for path and its descendants.
func (o *OS) invalidateDentry(path string) {
	delete(o.dcache, path)
	for k := range o.dcache {
		if strings.HasPrefix(k, path+"/") {
			delete(o.dcache, k)
		}
	}
}

// splitDir returns the parent path and base name.
func splitDir(path string) (string, string) {
	path = strings.TrimSuffix(path, "/")
	i := strings.LastIndex(path, "/")
	if i < 0 {
		return "", path
	}
	return path[:i], path[i+1:]
}

// OpenFlag is a set of open(2)-like flags.
type OpenFlag int

const (
	// ORDWR is the default read/write mode.
	ORDWR OpenFlag = 0
	// OCreate creates the file if absent.
	OCreate OpenFlag = 1 << iota
	// OTrunc truncates to zero length.
	OTrunc
	// ODirect bypasses the page cache (§2.3.2): transfers go directly
	// between the application buffer and the (possibly remote) store.
	ODirect
)

// File is an open file description. The file size lives in the OS's
// shared inode-size table (like i_size), so multiple open descriptions
// of the same file — e.g. one buffered and one O_DIRECT — agree on EOF.
type File struct {
	os     *OS
	fs     FileSystem
	attr   Attr
	path   string
	off    int64
	direct bool
	closed bool
}

func (f *File) key() inodeKey { return inodeKey{f.fs, f.attr.Ino} }

// Size returns the file size as known locally.
func (f *File) Size() int64 { return f.os.isize[f.key()] }

func (f *File) growTo(end int64) {
	if end > f.os.isize[f.key()] {
		f.os.isize[f.key()] = end
		f.os.invalidateDentry(f.path)
	}
}

// Stat returns the attributes of path (metadata path, dcache-assisted).
func (o *OS) Stat(p *sim.Proc, path string) (Attr, error) {
	o.Node.CPU.Syscall(p)
	_, a, err := o.walk(p, path)
	return a, err
}

// Readdir lists a directory.
func (o *OS) Readdir(p *sim.Proc, path string) ([]DirEntry, error) {
	o.Node.CPU.Syscall(p)
	fs, a, err := o.walk(p, path)
	if err != nil {
		return nil, err
	}
	if a.Kind != Directory {
		return nil, ErrNotDir
	}
	return fs.Readdir(p, a.Ino)
}

// Mkdir creates a directory.
func (o *OS) Mkdir(p *sim.Proc, path string) error {
	o.Node.CPU.Syscall(p)
	dirPath, name := splitDir(path)
	fs, dir, err := o.walk(p, dirPath)
	if err != nil {
		return err
	}
	if _, err := fs.Mkdir(p, dir.Ino, name); err != nil {
		return err
	}
	o.invalidateDentry(dirPath)
	return nil
}

// Unlink removes a file.
func (o *OS) Unlink(p *sim.Proc, path string) error {
	o.Node.CPU.Syscall(p)
	dirPath, name := splitDir(path)
	fs, dir, err := o.walk(p, dirPath)
	if err != nil {
		return err
	}
	if _, a, err2 := o.walk(p, path); err2 == nil {
		o.PC.InvalidateInode(fs, a.Ino)
	}
	if err := fs.Unlink(p, dir.Ino, name); err != nil {
		return err
	}
	o.invalidateDentry(path)
	return nil
}

// Rmdir removes an empty directory.
func (o *OS) Rmdir(p *sim.Proc, path string) error {
	o.Node.CPU.Syscall(p)
	dirPath, name := splitDir(path)
	fs, dir, err := o.walk(p, dirPath)
	if err != nil {
		return err
	}
	if err := fs.Rmdir(p, dir.Ino, name); err != nil {
		return err
	}
	o.invalidateDentry(path)
	return nil
}

// Open opens (optionally creating/truncating) path.
func (o *OS) Open(p *sim.Proc, path string, flags OpenFlag) (*File, error) {
	o.Node.CPU.Syscall(p)
	fs, attr, err := o.walk(p, path)
	if err != nil {
		if flags&OCreate == 0 {
			return nil, err
		}
		dirPath, name := splitDir(path)
		var dir Attr
		fs, dir, err = o.walk(p, dirPath)
		if err != nil {
			return nil, err
		}
		attr, err = fs.Create(p, dir.Ino, name)
		if err != nil {
			return nil, err
		}
		o.dcache[path] = attr
		o.invalidateDentry(dirPath)
	}
	if attr.Kind == Directory {
		return nil, ErrIsDir
	}
	f := &File{
		os: o, fs: fs, attr: attr, path: path,
		direct: flags&ODirect != 0,
	}
	if _, ok := o.isize[f.key()]; !ok {
		o.isize[f.key()] = attr.Size
	}
	if flags&OTrunc != 0 && o.isize[f.key()] > 0 {
		if err := fs.Truncate(p, attr.Ino, 0); err != nil {
			return nil, err
		}
		o.PC.InvalidateInode(fs, attr.Ino)
		o.isize[f.key()] = 0
		o.invalidateDentry(path)
	}
	return f, nil
}

// Path returns the path the file was opened by.
func (f *File) Path() string { return f.path }

// Direct reports whether the file is in O_DIRECT mode.
func (f *File) Direct() bool { return f.direct }

// Seek sets the file offset (whence: 0 set, 1 cur, 2 end) and returns
// the new offset. It never fails; negative results clamp to zero.
func (f *File) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case 1:
		f.off += off
	case 2:
		f.off = f.Size() + off
	default:
		f.off = off
	}
	if f.off < 0 {
		f.off = 0
	}
	return f.off, nil
}

// Read reads up to n bytes at the current offset into [va, va+n) of the
// calling process's address space, returning the byte count (0 at EOF).
func (f *File) Read(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error) {
	got, err := f.ReadAt(p, as, va, n, f.off)
	f.off += int64(got)
	return got, err
}

// ReadAt is Read at an explicit offset (does not move the file offset).
func (f *File) ReadAt(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int, off int64) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("kernel: read of closed file")
	}
	o := f.os
	o.Node.CPU.Syscall(p)
	o.Node.CPU.VFS(p)
	if n <= 0 {
		return 0, nil
	}
	if f.direct {
		// O_DIRECT: hand the user buffer itself to the filesystem.
		// Dirty cached pages are flushed first for coherence.
		if err := o.PC.FlushInode(p, f.fs, f.attr.Ino); err != nil {
			return 0, err
		}
		got, err := f.fs.ReadDirect(p, f.attr.Ino, off, core.Of(core.UserSeg(as, va, n)))
		return got, err
	}
	// Buffered: per page through the page cache, with a copy to the
	// application (§2.3.1). EOF comes from the shared inode size;
	// sparse pages read as zeros (frames are zero-filled).
	if size := f.Size(); off+int64(n) > size {
		if off >= size {
			return 0, nil
		}
		n = int(size - off)
	}
	read := 0
	for read < n {
		cur := off + int64(read)
		pg, err := o.PC.FillChunk(p, f.fs, f.attr.Ino, pageIndex(cur), o.readChunk)
		if err != nil {
			return read, err
		}
		pgOff := int(cur % mem.PageSize)
		chunk := n - read
		if chunk > mem.PageSize-pgOff {
			chunk = mem.PageSize - pgOff
		}
		o.Node.CPU.Copy(p, chunk) // page cache → application copy
		err = as.WriteBytes(va+vm.VirtAddr(read), pg.Frame.Data()[pgOff:pgOff+chunk])
		o.PC.Unbusy(pg)
		if err != nil {
			return read, err
		}
		read += chunk
	}
	return read, nil
}

// Write writes n bytes from [va, va+n) at the current offset.
func (f *File) Write(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error) {
	got, err := f.WriteAt(p, as, va, n, f.off)
	f.off += int64(got)
	return got, err
}

// WriteAt is Write at an explicit offset.
func (f *File) WriteAt(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int, off int64) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("kernel: write of closed file")
	}
	o := f.os
	o.Node.CPU.Syscall(p)
	o.Node.CPU.VFS(p)
	if n <= 0 {
		return 0, nil
	}
	defer f.growTo(off + int64(n))
	if f.direct {
		// Coherence: push out dirty buffered data, then drop the cached
		// pages so later buffered reads refetch.
		if err := o.PC.FlushInode(p, f.fs, f.attr.Ino); err != nil {
			return 0, err
		}
		o.PC.InvalidateInode(f.fs, f.attr.Ino)
		return f.fs.WriteDirect(p, f.attr.Ino, off, core.Of(core.UserSeg(as, va, n)))
	}
	written := 0
	for written < n {
		cur := off + int64(written)
		idx := pageIndex(cur)
		pgOff := int(cur % mem.PageSize)
		chunk := n - written
		if chunk > mem.PageSize-pgOff {
			chunk = mem.PageSize - pgOff
		}
		var pg *CachedPage
		var err error
		if pgOff == 0 && chunk == mem.PageSize {
			// Whole-page overwrite: no read-modify-write needed.
			if pg = o.PC.Lookup(f.fs, f.attr.Ino, idx); pg == nil {
				pg, err = o.PC.Add(p, f.fs, f.attr.Ino, idx)
			} else {
				o.PC.hold(pg)
			}
		} else {
			pg, err = o.PC.Fill(p, f.fs, f.attr.Ino, idx) // RMW
		}
		if err != nil {
			return written, err
		}
		o.Node.CPU.Copy(p, chunk) // application → page cache copy
		// A fault in the user range leaves the cached page untouched.
		if err := as.ReadBytesInto(va+vm.VirtAddr(written), pg.Frame.Data()[pgOff:pgOff+chunk]); err != nil {
			o.PC.Unbusy(pg)
			return written, err
		}
		if end := pgOff + chunk; end > pg.N {
			pg.N = end
		}
		o.PC.setDirty(pg, true)
		o.PC.Unbusy(pg)
		written += chunk
	}
	return written, nil
}

// Fsync writes back all dirty pages of the file (in page order), then
// drains any write-behind pipeline the filesystem keeps.
func (f *File) Fsync(p *sim.Proc) error {
	f.os.Node.CPU.Syscall(p)
	if err := f.os.PC.FlushInode(p, f.fs, f.attr.Ino); err != nil {
		return err
	}
	if sy, ok := f.fs.(Syncer); ok {
		return sy.Sync(p)
	}
	return nil
}

// Close flushes and closes the file.
func (f *File) Close(p *sim.Proc) error {
	if f.closed {
		return nil
	}
	if err := f.Fsync(p); err != nil {
		return err
	}
	f.closed = true
	return nil
}
