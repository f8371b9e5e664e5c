// Package orfa implements ORFA, the paper's user-space remote
// file-access client (§3.1): a library that intercepts file calls in
// user space and forwards them to the server, with no system calls, no
// VFS, no page cache — and therefore also no metadata caching, the
// weakness that motivated moving into the kernel (ORFS).
//
// Data transfers go directly between the application's user buffers
// and the network (the library is inherently "O_DIRECT"), which is why
// ORFA's large-transfer throughput slightly exceeds ORFS's (no
// syscall/VFS overhead, Fig 3(b)) while its metadata operations pay a
// full round-trip every time.
package orfa

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Lib is one process's ORFA library instance.
//
// Over a windowed rfsrv.Session the library pipelines what it can
// without acquiring state the design forbids (no caches): large reads
// split into chunks issued concurrently through the window, large
// writes chunk through the window inside Session.Write, and
// ReaddirAttrs packs one getattr per entry into a single combined
// request message (the "ls -l" pattern, a full round trip per entry
// on the synchronous protocol).
type Lib struct {
	cl    rfsrv.Async
	piped bool // cl.Window() > 1: large reads and ReaddirAttrs pipeline
	as    *vm.AddressSpace
	fds   map[int]*file
	next  int

	// MetaRPCs counts metadata round-trips (every walk component —
	// ORFA has no dentry cache).
	MetaRPCs sim.Counter
}

// readChunk is the split granularity of pipelined large reads.
const readChunk = rfsrv.MaxWriteChunk

type file struct {
	ino  kernel.InodeID
	off  int64
	size int64
}

// New creates the library for a process with address space as.
func New(cl rfsrv.Async, as *vm.AddressSpace) *Lib {
	return &Lib{cl: cl, piped: cl.Window() > 1, as: as, fds: make(map[int]*file), next: 3}
}

// walk resolves path (always from the root — no caching) to attributes.
func (l *Lib) walk(p *sim.Proc, path string) (kernel.Attr, error) {
	cur := kernel.Attr{Ino: 0, Kind: kernel.Directory}
	resp, err := l.meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: 0})
	if err != nil {
		return kernel.Attr{}, err
	}
	cur = resp.Attr
	for _, comp := range splitPath(path) {
		if cur.Kind != kernel.Directory {
			return kernel.Attr{}, kernel.ErrNotDir
		}
		resp, err := l.meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: cur.Ino, Name: comp})
		if err != nil {
			return kernel.Attr{}, err
		}
		cur = resp.Attr
	}
	return cur, nil
}

func (l *Lib) meta(p *sim.Proc, req *rfsrv.Req) (*rfsrv.Resp, error) {
	l.MetaRPCs.Add(1)
	return l.cl.Meta(p, req)
}

func splitPath(path string) []string {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil
	}
	return strings.Split(path, "/")
}

func splitDir(path string) (string, string) {
	path = strings.TrimSuffix(path, "/")
	i := strings.LastIndex(path, "/")
	if i < 0 {
		return "/", path
	}
	return path[:i], path[i+1:]
}

// Open opens an existing file and returns a descriptor.
func (l *Lib) Open(p *sim.Proc, path string) (int, error) {
	a, err := l.walk(p, path)
	if err != nil {
		return -1, err
	}
	if a.Kind == kernel.Directory {
		return -1, kernel.ErrIsDir
	}
	fd := l.next
	l.next++
	l.fds[fd] = &file{ino: a.Ino, size: a.Size}
	return fd, nil
}

// Create creates (or opens, if present) a file.
func (l *Lib) Create(p *sim.Proc, path string) (int, error) {
	dirPath, name := splitDir(path)
	dir, err := l.walk(p, dirPath)
	if err != nil {
		return -1, err
	}
	resp, err := l.meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir.Ino, Name: name})
	if err == kernel.ErrExists {
		return l.Open(p, path)
	}
	if err != nil {
		return -1, err
	}
	fd := l.next
	l.next++
	l.fds[fd] = &file{ino: resp.Attr.Ino, size: resp.Attr.Size}
	return fd, nil
}

func (l *Lib) file(fd int) (*file, error) {
	f := l.fds[fd]
	if f == nil {
		return nil, fmt.Errorf("orfa: bad file descriptor %d", fd)
	}
	return f, nil
}

// Read reads up to n bytes into the process buffer at va, directly from
// the network (zero OS involvement). Over a windowed session, reads
// larger than one chunk split into per-chunk requests issued
// concurrently — each lands in its own slice of the user buffer, so
// the transfers pipeline with zero extra copies.
func (l *Lib) Read(p *sim.Proc, fd int, va vm.VirtAddr, n int) (int, error) {
	f, err := l.file(fd)
	if err != nil {
		return 0, err
	}
	if l.piped && n > readChunk {
		got, err := l.readPipelined(p, f, va, n)
		if err != nil {
			return 0, err
		}
		f.off += int64(got)
		return got, nil
	}
	resp, err := l.cl.Read(p, f.ino, f.off, core.Of(core.UserSeg(l.as, va, n)))
	if err != nil {
		return 0, err
	}
	f.off += int64(resp.N)
	return int(resp.N), nil
}

// readPipelined issues the chunks of one large read through the
// session window and retires them in order, stopping at a short chunk
// (EOF).
func (l *Lib) readPipelined(p *sim.Proc, f *file, va vm.VirtAddr, n int) (int, error) {
	type chunk struct {
		pd   rfsrv.PendingOp
		want int
	}
	total := 0
	short := false
	pl := fabric.NewPipeline(func(p *sim.Proc, c chunk, failed bool) error {
		resp, err := c.pd.Wait(p)
		if err != nil || failed || short {
			return err
		}
		total += int(resp.N)
		short = int(resp.N) < c.want // EOF inside this chunk; later chunks are empty
		return nil
	})
	for issued := 0; issued < n; {
		off, want := f.off+int64(issued), min(n-issued, readChunk)
		// Retire oldest-first until the chunk's target window(s) have
		// room — over a striped cluster one chunk may span several
		// servers, and blocking inside StartRead with retired slots in
		// our own hands would deadlock the pipeline.
		if pl.Room(p, func() bool { return pl.Len() < l.cl.Window() && l.cl.CanStart(f.ino, off, want) }) != nil {
			break
		}
		pd, err := l.cl.StartRead(p, f.ino, off, core.Of(core.UserSeg(l.as, va+vm.VirtAddr(issued), want)))
		if err != nil {
			pl.Fail(err)
			break
		}
		pl.Push(chunk{pd, want})
		issued += want
	}
	err := pl.Drain(p) // before total is read: the retires still add to it
	return total, err
}

// Write writes n bytes from the process buffer at va.
func (l *Lib) Write(p *sim.Proc, fd int, va vm.VirtAddr, n int) (int, error) {
	f, err := l.file(fd)
	if err != nil {
		return 0, err
	}
	resp, err := l.cl.Write(p, f.ino, f.off, core.Of(core.UserSeg(l.as, va, n)))
	if err != nil {
		return 0, err
	}
	f.off += int64(resp.N)
	if f.off > f.size {
		f.size = f.off
	}
	// The reply's attributes are the write-time authoritative size —
	// over a striped cluster it is the reconciled merge, which a
	// coherent multi-writer file can have pushed past this
	// descriptor's own high-water mark. Adopting it keeps Seek(END)
	// honest without a single extra round trip (ORFA still caches no
	// metadata: this is the size the server just told us).
	if resp.Attr.Ino == f.ino && resp.Attr.Size > f.size {
		f.size = resp.Attr.Size
	}
	return int(resp.N), nil
}

// Seek adjusts the file offset (whence: 0 set, 1 cur, 2 end).
func (l *Lib) Seek(p *sim.Proc, fd int, off int64, whence int) (int64, error) {
	f, err := l.file(fd)
	if err != nil {
		return 0, err
	}
	switch whence {
	case 1:
		f.off += off
	case 2:
		f.off = f.size + off
	default:
		f.off = off
	}
	if f.off < 0 {
		f.off = 0
	}
	return f.off, nil
}

// Stat resolves a path's attributes (full remote walk every time).
func (l *Lib) Stat(p *sim.Proc, path string) (kernel.Attr, error) {
	return l.walk(p, path)
}

// Readdir lists a directory.
func (l *Lib) Readdir(p *sim.Proc, path string) ([]kernel.DirEntry, error) {
	a, err := l.walk(p, path)
	if err != nil {
		return nil, err
	}
	resp, err := l.meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: a.Ino})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// ReaddirAttrs lists a directory and returns each entry's attributes —
// the "ls -l" pattern. On the synchronous protocol this is one
// round trip per entry (ORFA's §3.1 weakness); over a windowed session
// the per-entry getattrs pack into combined request messages
// (Session.MetaBatch), the client-side analogue of §3.3 combining.
func (l *Lib) ReaddirAttrs(p *sim.Proc, path string) ([]kernel.DirEntry, []kernel.Attr, error) {
	ents, err := l.Readdir(p, path)
	if err != nil {
		return nil, nil, err
	}
	attrs := make([]kernel.Attr, len(ents))
	if l.piped {
		reqs := make([]*rfsrv.Req, len(ents))
		for i, e := range ents {
			reqs[i] = &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: e.Ino}
		}
		l.MetaRPCs.Add(len(reqs))
		resps, err := l.cl.MetaBatch(p, reqs)
		if err != nil {
			return nil, nil, err
		}
		for i, r := range resps {
			attrs[i] = r.Attr
		}
		return ents, attrs, nil
	}
	for i, e := range ents {
		resp, err := l.meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: e.Ino})
		if err != nil {
			return nil, nil, err
		}
		attrs[i] = resp.Attr
	}
	return ents, attrs, nil
}

// Mkdir creates a directory.
func (l *Lib) Mkdir(p *sim.Proc, path string) error {
	dirPath, name := splitDir(path)
	dir, err := l.walk(p, dirPath)
	if err != nil {
		return err
	}
	_, err = l.meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: dir.Ino, Name: name})
	return err
}

// Unlink removes a file.
func (l *Lib) Unlink(p *sim.Proc, path string) error {
	dirPath, name := splitDir(path)
	dir, err := l.walk(p, dirPath)
	if err != nil {
		return err
	}
	_, err = l.meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: dir.Ino, Name: name})
	return err
}

// Rename moves srcPath to dstPath. Both parents are walked (ORFA has
// no caches), then the protocol client's native rename runs
// (rfsrv.Client.Rename: one local rename on a single server, the
// cross-owner multi-phase protocol on a sharded cluster). An
// interrupted cross-owner run surfaces as rfsrv.ErrRenameInDoubt;
// re-driving the same rename resolves it.
func (l *Lib) Rename(p *sim.Proc, srcPath, dstPath string) error {
	srcDirPath, srcName := splitDir(srcPath)
	srcDir, err := l.walk(p, srcDirPath)
	if err != nil {
		return err
	}
	dstDirPath, dstName := splitDir(dstPath)
	dstDir, err := l.walk(p, dstDirPath)
	if err != nil {
		return err
	}
	l.MetaRPCs.Add(1)
	_, err = l.cl.Rename(p, srcDir.Ino, srcName, dstDir.Ino, dstName)
	return err
}

// Truncate sets a file's size via its descriptor.
func (l *Lib) Truncate(p *sim.Proc, fd int, size int64) error {
	f, err := l.file(fd)
	if err != nil {
		return err
	}
	if _, err := l.meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: f.ino, Off: size}); err != nil {
		return err
	}
	f.size = size
	return nil
}

// Close releases a descriptor.
func (l *Lib) Close(p *sim.Proc, fd int) error {
	if _, err := l.file(fd); err != nil {
		return err
	}
	delete(l.fds, fd)
	return nil
}
