package memfs

// Sharded-namespace backing operations. A namespace-sharded cluster
// (rfsrv DESIGN.md §11) stores each directory — and the inodes minted
// under it — on one owning server instead of replicating everything
// to all N. The owner's memfs is the only complete copy of its slice;
// every other server sees at most stubs materialized on demand. These
// methods are the extra verbs that model needs beyond
// kernel.FileSystem: residue-directed creation, stub materialization,
// cross-directory link/detach (the halves of a two-home rename), and
// scrubbing an object whose name lives elsewhere.

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// MakeNode creates name under dir like Create/Mkdir, but mints the
// child's inode with an explicit routing residue (see mintIno), so
// the server that owns the parent can place the child in any owner
// group the client asks for. residue < 0 keeps the minter's default.
func (fs *FS) MakeNode(p *sim.Proc, dir kernel.InodeID, name string, kind kernel.FileKind, residue int) (kernel.Attr, error) {
	return fs.makeNodeR(dir, name, kind, residue)
}

// Materialize ensures an object for id exists locally, creating an
// empty one of the given kind if needed (idempotent; an existing
// object's attributes win). Sharded servers call it when a mutation
// or write arrives for an inode whose authoritative copy was minted
// on another server — the local copy starts as an empty stub and the
// operation proceeds against it.
func (fs *FS) Materialize(p *sim.Proc, id kernel.InodeID, kind kernel.FileKind) (kernel.Attr, error) {
	if id == 0 {
		return kernel.Attr{}, kernel.ErrNotFound
	}
	if ino := fs.inodes[id]; ino != nil {
		return ino.attr, nil
	}
	ino := &inode{
		attr:   kernel.Attr{Ino: id, Kind: kind, Version: 1},
		blocks: make(map[int64]*mem.Frame),
	}
	if kind == kernel.Directory {
		ino.dir = make(map[string]kernel.InodeID)
	}
	fs.inodes[id] = ino
	return ino.attr, nil
}

// Link enters (name → child) into dir without minting anything: the
// commit half of a cross-directory rename, and the replication verb
// that copies a fresh dentry to the owner group's replicas. A
// pre-existing entry for the same child makes the call an idempotent
// no-op; a different child is ErrExists. The child object is
// materialized as a stub if it is not local.
func (fs *FS) Link(p *sim.Proc, dir kernel.InodeID, name string, child kernel.InodeID, kind kernel.FileKind) (kernel.Attr, error) {
	d, err := fs.getDir(dir)
	if err != nil {
		return kernel.Attr{}, err
	}
	if name == "" || child == 0 {
		return kernel.Attr{}, kernel.ErrNotFound
	}
	if id, exists := d.dir[name]; exists {
		if id == child {
			return fs.Materialize(p, child, kind)
		}
		return kernel.Attr{}, kernel.ErrExists
	}
	attr, err := fs.Materialize(p, child, kind)
	if err != nil {
		return kernel.Attr{}, err
	}
	d.dir[name] = child
	d.attr.Version++
	return attr, nil
}

// Detach removes the (name → child) entry from dir without touching
// the object: the finalize half of a cross-directory rename. It only
// removes the entry if it still maps to child (idempotent when the
// entry is already gone or was re-created to point elsewhere), and
// reports whether it removed anything.
func (fs *FS) Detach(p *sim.Proc, dir kernel.InodeID, name string, child kernel.InodeID) (bool, error) {
	d, err := fs.getDir(dir)
	if err != nil {
		return false, err
	}
	if id, ok := d.dir[name]; ok && id == child {
		delete(d.dir, name)
		d.attr.Version++
		return true, nil
	}
	return false, nil
}

// Scrub frees the object for id if present, regardless of whether any
// local directory still names it (dangling names are tolerated by
// Lookup/Readdir/removeNode). Sharded clusters fan it lazily after an
// unlink so every server — not just the name's owner group — drops
// the bytes and bookkeeping of a dead inode. Idempotent; the root is
// never scrubbed.
func (fs *FS) Scrub(p *sim.Proc, id kernel.InodeID) error {
	if id <= fs.Root() {
		return kernel.ErrIsDir
	}
	ino := fs.inodes[id]
	if ino == nil {
		return nil
	}
	fs.freeBlocks(ino, 0)
	delete(fs.inodes, id)
	return nil
}

// Rename moves (srcName in srcDir) to (dstName in dstDir) locally:
// the same-owner fast path of the cluster's rename, also usable by a
// single-server session. Replaying a rename that already happened
// (dst entry maps to the same child, src entry gone) is an idempotent
// success; a dst entry naming a different inode is ErrExists.
func (fs *FS) Rename(p *sim.Proc, srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) (kernel.Attr, error) {
	sd, err := fs.getDir(srcDir)
	if err != nil {
		return kernel.Attr{}, err
	}
	dd, err := fs.getDir(dstDir)
	if err != nil {
		return kernel.Attr{}, err
	}
	if srcName == "" || dstName == "" {
		return kernel.Attr{}, kernel.ErrNotFound
	}
	childAttr := func(id kernel.InodeID) kernel.Attr {
		if ino := fs.inodes[id]; ino != nil {
			return ino.attr
		}
		return kernel.Attr{Ino: id, Kind: kernel.RegularFile}
	}
	id, ok := sd.dir[srcName]
	if !ok {
		// Possibly a replay: accept if the destination already holds
		// an entry (we cannot tell whose, but a fresh rename of a
		// missing source is ErrNotFound either way).
		if did, exists := dd.dir[dstName]; exists {
			return childAttr(did), nil
		}
		return kernel.Attr{}, kernel.ErrNotFound
	}
	if did, exists := dd.dir[dstName]; exists {
		if did != id {
			return kernel.Attr{}, kernel.ErrExists
		}
		delete(sd.dir, srcName)
		sd.attr.Version++
		return childAttr(id), nil
	}
	delete(sd.dir, srcName)
	dd.dir[dstName] = id
	sd.attr.Version++
	dd.attr.Version++
	return childAttr(id), nil
}
