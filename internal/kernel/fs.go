// Package kernel models the operating-system pieces the paper's
// in-kernel applications live in: a VFS with dentry/attribute caches, a
// page cache with per-page transfers and writeback, and a file API with
// both buffered and direct (O_DIRECT) access paths (§2.3).
//
// The behaviours that matter to the paper are modelled precisely:
//
//   - Buffered I/O moves data per page (4 kB) between the page cache
//     and the backing filesystem, and copies between page cache and the
//     application ("Data transfers are processed per page… This leads to
//     an under-utilization of the network bandwidth", §3.3). Pages are
//     physical frames whose addresses a kernel client obtains trivially
//     — the input to the physical-address primitives.
//   - Direct I/O bypasses the page cache and hands the application's
//     own (user-virtual) buffer to the filesystem — the zero-copy path
//     with the same requirements as zero-copy sockets (§2.3.2).
//   - Metadata goes through dentry and attribute caches, which is why
//     the in-kernel ORFS client beats the user-level ORFA library on
//     metadata ("benefits from VFS caches improving meta-data access",
//     §3.1).
package kernel

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// InodeID identifies a file within one filesystem.
type InodeID uint64

// FileKind distinguishes regular files from directories.
type FileKind int

const (
	// RegularFile is an ordinary data file.
	RegularFile FileKind = iota
	// Directory is a directory.
	Directory
)

// Attr is the subset of inode attributes the protocols carry.
type Attr struct {
	Ino     InodeID
	Kind    FileKind
	Size    int64
	Version uint64 // bumped on every modification (cache validation)
}

// DirEntry is one directory entry.
type DirEntry struct {
	Name string
	Ino  InodeID
	Kind FileKind
}

// Standard filesystem errors.
var (
	ErrNotFound  = errors.New("no such file or directory")
	ErrExists    = errors.New("file exists")
	ErrNotDir    = errors.New("not a directory")
	ErrIsDir     = errors.New("is a directory")
	ErrNotEmpty  = errors.New("directory not empty")
	ErrBadOffset = errors.New("bad offset")
)

// FileSystem is what a filesystem implementation (the local memfs, or
// the remote ORFS client) provides to the VFS.
//
// The two data paths mirror the paper's two access types:
// ReadPage/WritePage serve the page cache (buffered, per-page, the
// frame's physical address is available to the implementation), while
// ReadDirect/WriteDirect serve O_DIRECT with an address-typed vector
// (normally user-virtual) of arbitrary size.
type FileSystem interface {
	FSName() string
	Root() InodeID

	Lookup(p *sim.Proc, dir InodeID, name string) (Attr, error)
	Getattr(p *sim.Proc, ino InodeID) (Attr, error)
	Readdir(p *sim.Proc, dir InodeID) ([]DirEntry, error)
	Create(p *sim.Proc, dir InodeID, name string) (Attr, error)
	Mkdir(p *sim.Proc, dir InodeID, name string) (Attr, error)
	Unlink(p *sim.Proc, dir InodeID, name string) error
	Rmdir(p *sim.Proc, dir InodeID, name string) error
	Truncate(p *sim.Proc, ino InodeID, size int64) error

	// ReadPage fills frame with page index idx of ino, returning the
	// number of valid bytes (0 at and past EOF).
	ReadPage(p *sim.Proc, ino InodeID, idx int64, frame *mem.Frame) (int, error)
	// WritePage writes n bytes of frame as page idx of ino.
	WritePage(p *sim.Proc, ino InodeID, idx int64, frame *mem.Frame, n int) error

	// ReadDirect reads up to v.TotalLen() bytes at off into v.
	ReadDirect(p *sim.Proc, ino InodeID, off int64, v core.Vector) (int, error)
	// WriteDirect writes v.TotalLen() bytes at off from v.
	WriteDirect(p *sim.Proc, ino InodeID, off int64, v core.Vector) (int, error)
}

// Syncer is the optional write-behind barrier: a filesystem that
// pipelines its writes (ORFS over a windowed session) implements it so
// Fsync/Close can drain the in-flight writes after the page cache has
// issued them all.
type Syncer interface {
	// Sync blocks until every write the filesystem has accepted is
	// durable at its backing store, returning the first write error.
	Sync(p *sim.Proc) error
}

// PageRangeReader is the optional combining extension the paper
// predicts for Linux 2.6 ("able to combine multiple page-sized
// accesses in a single request", §3.3) — it requires exactly the
// vectorial communication primitives §4.1 argues for. A filesystem
// implementing it can fill several consecutive pages in one request;
// the page cache uses it when OS.SetReadChunkPages enables combining.
type PageRangeReader interface {
	// ReadPages fills frames with consecutive pages starting at idx,
	// returning the total valid bytes (short at EOF).
	ReadPages(p *sim.Proc, ino InodeID, idx int64, frames []*mem.Frame) (int, error)
}

// pageIndex returns the page index containing byte offset off.
func pageIndex(off int64) int64 { return off / mem.PageSize }

// String renders the attributes for logs and test failures: kind,
// inode, size and version.
func (a Attr) String() string {
	k := "file"
	if a.Kind == Directory {
		k = "dir"
	}
	return fmt.Sprintf("%s ino=%d size=%d v=%d", k, a.Ino, a.Size, a.Version)
}
