package rfsrv

// Server half of the sharded namespace (DESIGN.md §11). A sharded
// server is the authority for the directories whose routing residue
// falls inside its owner slice: it is the only place their dentries
// mutate, it mints the inodes created under them, and it refuses
// mutations outside the slice with StNotOwner so a client routing bug
// can never silently diverge the namespace. Everything else the
// server holds — foreign files' bytes, sizes, stubs of foreign
// directories — is materialized lazily when the data path or a
// replication verb first touches it.

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// ShardBackingFS is the backing store a sharded server needs: the
// plain serving surface plus residue-directed minting, stub
// materialization, dentry link/detach (the halves of a two-home
// rename) and object scrubbing. memfs.FS implements it.
type ShardBackingFS interface {
	BackingFS
	// MakeNode creates like Create/Mkdir but mints the child's inode
	// with the given routing residue (< 0: the minter's default).
	MakeNode(p *sim.Proc, dir kernel.InodeID, name string, kind kernel.FileKind, residue int) (kernel.Attr, error)
	// Materialize ensures an object for id exists (idempotent stub
	// creation of the given kind).
	Materialize(p *sim.Proc, id kernel.InodeID, kind kernel.FileKind) (kernel.Attr, error)
	// Link enters (name → child) into dir without minting; linking the
	// same child twice is an idempotent success.
	Link(p *sim.Proc, dir kernel.InodeID, name string, child kernel.InodeID, kind kernel.FileKind) (kernel.Attr, error)
	// Detach removes (name → child) from dir if it still maps to
	// child, reporting whether it did.
	Detach(p *sim.Proc, dir kernel.InodeID, name string, child kernel.InodeID) (bool, error)
	// Scrub frees the object for id (dangling names tolerated).
	Scrub(p *sim.Proc, id kernel.InodeID) error
	// Rename moves an entry between two local directories.
	Rename(p *sim.Proc, srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) (kernel.Attr, error)
}

// renameKey identifies a source directory entry marked by an
// in-flight two-phase rename.
type renameKey struct {
	dir  kernel.InodeID
	name string
}

// renameMark is what OpRenamePrepare records: where the entry is
// headed and which child it carries, so a replayed prepare toward the
// same destination is answered idempotently and anything else is
// refused with StBusy until finalize or abort clears the mark.
type renameMark struct {
	dst   kernel.InodeID
	child kernel.InodeID
	kind  kernel.FileKind
}

// EnableSharding declares this server to be owner index of count
// namespace shards with the given replication factor: namespace
// mutations are accepted only for directories whose routing residue
// falls in [index, index+replicas) mod count. The backing store must
// support the sharded verbs (memfs does). Call before serving.
func (s *Server) EnableSharding(index, count, replicas int) error {
	sfs, ok := s.fs.(ShardBackingFS)
	if !ok {
		return fmt.Errorf("rfsrv: backing store %T cannot shard", s.fs)
	}
	if count < 1 || index < 0 || index >= count || replicas < 1 || replicas > count {
		return fmt.Errorf("rfsrv: bad shard geometry %d/%d r=%d", index, count, replicas)
	}
	s.shard, s.shardIdx, s.geo = true, index, ringPlacement(count, replicas)
	s.sfs = sfs
	s.renames = make(map[renameKey]renameMark)
	return nil
}

// ownsDir reports whether this server's owner slice covers the
// directory: it is one of the R servers of the directory's residue —
// the same placement question, asked of the same value, as the client's
// owner-group routing. Asked of any inode, it says whether this server
// is in the inode's home group.
func (s *Server) ownsDir(dir kernel.InodeID) bool {
	return s.geo.holds(s.shardIdx, s.geo.residue(dir))
}

// renameMarked reports whether (dir, name) is held by an in-flight
// rename prepare.
func (s *Server) renameMarked(dir kernel.InodeID, name string) bool {
	if s.renames == nil {
		return false
	}
	_, ok := s.renames[renameKey{dir, name}]
	return ok
}

// materializeOnDemand creates a stub for an inode the data path
// touched before any namespace verb introduced it here — the lazy
// half of sharded placement. No-op outside shard mode or when the
// object exists.
func (s *Server) materializeOnDemand(p *sim.Proc, ino kernel.InodeID, kind kernel.FileKind) {
	if !s.shard || ino == 0 {
		return
	}
	if _, err := s.fs.Getattr(p, ino); err == kernel.ErrNotFound {
		s.sfs.Materialize(p, ino, kind)
	}
}

// shardMakeNode is the sharded create/mkdir: authority check, lazy
// parent materialization, then a mint whose residue the client chose
// (< 0: the minter's default). Files inherit the parent's residue so
// their owner group serves both; the cluster spreads directories by
// hashing, which is what makes metadata throughput scale with N.
func (s *Server) shardMakeNode(p *sim.Proc, dir kernel.InodeID, name string, kind kernel.FileKind, residue int) (kernel.Attr, error) {
	if !s.ownsDir(dir) {
		return kernel.Attr{}, ErrNotOwner
	}
	if _, err := s.fs.Getattr(p, dir); err == kernel.ErrNotFound {
		if _, err := s.sfs.Materialize(p, dir, kernel.Directory); err != nil {
			return kernel.Attr{}, err
		}
	}
	if residue >= len(s.geo.members) {
		return kernel.Attr{}, ErrInval
	}
	return s.sfs.MakeNode(p, dir, name, kind, residue)
}

// shardUnlink is the sharded unlink: authority check, rename-mark
// check, then the removal — returning the victim's attributes so the
// client can prune its caches and queue the lazy cluster-wide scrub.
func (s *Server) shardUnlink(p *sim.Proc, dir kernel.InodeID, req *Req) (kernel.Attr, error) {
	if !s.ownsDir(dir) {
		return kernel.Attr{}, ErrNotOwner
	}
	if s.renameMarked(dir, req.Name) {
		return kernel.Attr{}, ErrBusy
	}
	victim, lerr := s.fs.Lookup(p, dir, req.Name)
	if err := s.fs.Unlink(p, dir, req.Name); err != nil {
		return kernel.Attr{}, err
	}
	if lerr != nil {
		return kernel.Attr{}, nil
	}
	delete(s.epochs, victim.Ino)
	delete(s.layouts, victim.Ino)
	return victim, nil
}

// handleLink is OpLink: enter child (Off) of the kind and layout class
// Len packs (PackNode) into dir under req.Name, recording a class other
// than standard (never clearing one). Requires shard mode and dentry
// authority — it is the replication verb for fresh dentries and the
// commit half of the two-phase rename, both of which only ever target
// the owner group of the directory.
func (s *Server) handleLink(p *sim.Proc, dir kernel.InodeID, req *Req) (kernel.Attr, error) {
	if !s.shard {
		return kernel.Attr{}, ErrInval
	}
	if !s.ownsDir(dir) {
		return kernel.Attr{}, ErrNotOwner
	}
	if _, err := s.fs.Getattr(p, dir); err == kernel.ErrNotFound {
		if _, err := s.sfs.Materialize(p, dir, kernel.Directory); err != nil {
			return kernel.Attr{}, err
		}
	}
	kind, lc := UnpackNode(req.Len)
	if !ValidLayout(lc) {
		return kernel.Attr{}, ErrInval
	}
	a, err := s.sfs.Link(p, dir, req.Name, kernel.InodeID(req.Off), kernel.FileKind(kind))
	if err == nil && lc != LayoutStandard {
		s.layouts[a.Ino] = lc
	}
	return a, err
}

// handleMaterialize is OpMaterialize: idempotent stub creation, no
// authority check — it targets the inode's own routing group, which
// need not own any dentry naming it.
func (s *Server) handleMaterialize(p *sim.Proc, ino kernel.InodeID, req *Req) (kernel.Attr, error) {
	if !s.shard {
		return kernel.Attr{}, ErrInval
	}
	return s.sfs.Materialize(p, ino, kernel.FileKind(req.Len))
}

// handleScrub is OpScrub: free the local object for a dead inode
// (idempotent; dangling names are tolerated everywhere). With
// ScrubRequireEmptyDir set it is the sharded rmdir's check-and-remove
// at the victim directory's own routing group — the only group whose
// copy of the directory sees its children's dentries.
func (s *Server) handleScrub(p *sim.Proc, ino kernel.InodeID, req *Req) error {
	if !s.shard {
		return ErrInval
	}
	if ino <= s.fs.Root() {
		return ErrInval
	}
	if req.Len&ScrubRequireEmptyDir != 0 {
		a, err := s.fs.Getattr(p, ino)
		if err == kernel.ErrNotFound {
			return nil // nothing here: vacuously empty and gone
		}
		if err != nil {
			return err
		}
		if a.Kind != kernel.Directory {
			return kernel.ErrNotDir
		}
		entries, err := s.fs.Readdir(p, ino)
		if err != nil {
			return err
		}
		if len(entries) > 0 {
			return kernel.ErrNotEmpty
		}
	}
	if err := s.sfs.Scrub(p, ino); err != nil {
		return err
	}
	delete(s.epochs, ino)
	delete(s.layouts, ino)
	return nil
}

// handleRenamePrepare is phase one of the cross-owner rename, at the
// source owner group: resolve the child, mark the entry as renaming
// toward the destination directory (Off), and return the child's
// attributes so the client can commit the link at the destination
// group. A replayed prepare toward the same destination answers
// idempotently; a different destination is refused with StBusy, as is
// any unlink/rmdir/rename of a marked entry until finalize or abort.
func (s *Server) handleRenamePrepare(p *sim.Proc, dir kernel.InodeID, req *Req) (kernel.Attr, error) {
	if !s.shard {
		return kernel.Attr{}, ErrInval
	}
	if !s.ownsDir(dir) {
		return kernel.Attr{}, ErrNotOwner
	}
	key := renameKey{dir, req.Name}
	dst := kernel.InodeID(req.Off)
	if m, ok := s.renames[key]; ok {
		if m.dst == dst {
			return kernel.Attr{Ino: m.child, Kind: m.kind}, nil
		}
		return kernel.Attr{}, ErrBusy
	}
	child, err := s.fs.Lookup(p, dir, req.Name)
	if err != nil {
		return kernel.Attr{}, err
	}
	s.renames[key] = renameMark{dst: dst, child: child.Ino, kind: child.Kind}
	return child, nil
}

// handleRenameFinalize is phase three: the destination group holds
// the committed link, so detach the source entry (if it still maps to
// the renamed child — Off) and clear the mark. Idempotent.
func (s *Server) handleRenameFinalize(p *sim.Proc, dir kernel.InodeID, req *Req) error {
	if !s.shard {
		return ErrInval
	}
	if !s.ownsDir(dir) {
		return ErrNotOwner
	}
	if _, err := s.sfs.Detach(p, dir, req.Name, kernel.InodeID(req.Off)); err != nil {
		return err
	}
	delete(s.renames, renameKey{dir, req.Name})
	return nil
}

// handleRenameAbort clears a prepare mark without touching the entry:
// the commit never happened (or could not be confirmed and the
// destination refused it). Idempotent.
func (s *Server) handleRenameAbort(p *sim.Proc, dir kernel.InodeID, req *Req) error {
	if !s.shard {
		return ErrInval
	}
	if !s.ownsDir(dir) {
		return ErrNotOwner
	}
	delete(s.renames, renameKey{dir, req.Name})
	return nil
}

// handleRenameLocal is the one-home rename: both directories live
// under this server's authority (or the server is unsharded — a
// replicated cluster fans the op to every member, a single-server
// session just applies it). Name carries both components
// (PackRenameNames); Off is the destination directory.
func (s *Server) handleRenameLocal(p *sim.Proc, srcDir kernel.InodeID, req *Req) (kernel.Attr, error) {
	sfs, ok := s.fs.(ShardBackingFS)
	if !ok {
		return kernel.Attr{}, ErrInval
	}
	srcName, dstName, ok := SplitRenameNames(req.Name)
	if !ok || srcName == "" || dstName == "" {
		return kernel.Attr{}, ErrInval
	}
	dstDir := kernel.InodeID(req.Off)
	if dstDir == 0 {
		dstDir = s.fs.Root()
	}
	if s.shard {
		if !s.ownsDir(srcDir) || !s.ownsDir(dstDir) {
			return kernel.Attr{}, ErrNotOwner
		}
		if s.renameMarked(srcDir, srcName) || s.renameMarked(dstDir, dstName) {
			return kernel.Attr{}, ErrBusy
		}
		if _, err := s.fs.Getattr(p, dstDir); err == kernel.ErrNotFound {
			if _, err := s.sfs.Materialize(p, dstDir, kernel.Directory); err != nil {
				return kernel.Attr{}, err
			}
		}
	}
	return sfs.Rename(p, srcDir, srcName, dstDir, dstName)
}
