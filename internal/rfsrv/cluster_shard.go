package rfsrv

// Client half of the sharded namespace (DESIGN.md §11).
//
// Ownership. Every directory — and every inode minted under it — has
// a routing residue (placement.residue), which names the directory's
// OWNER GROUP: the residue's replica group, the same R slots the data
// path replicates a stripe on (placement.slot). Namespace mutations go
// only to the owner group; lookups, getattrs and readdirs go to the
// group's first alive member (Cluster.firstUp). Files inherit their parent directory's residue, so the
// group that owns a dentry also owns the child's attributes; fresh
// directories are spread by hashing (dir, name), which is what makes
// create/unlink throughput scale with N instead of paying an N-way
// fan per mutation.
//
// What still fans to everyone: exact size sets (truncate), the
// grow-only size publishes and the scrub of an unlinked file's data.
// File DATA is striped across all servers regardless of namespace
// ownership, so every server's local size matters to EOF clipping — a
// per-inode size authority would buy nothing here, and keeping the fan
// preserves PR 5's size-coherence machinery unchanged. Sharding
// therefore trades the O(N) namespace fan away while leaving size
// coherence global.
//
// Rename. A rename within one owner group is a single fanned
// OpRenameLocal. Across groups it is a three-phase protocol — prepare
// at the source group (marks the entry, returns the child), commit at
// the destination group (OpLink, the one durable switch point),
// finalize at the source group (detach + unmark). A fault after the
// commit's fate is unknown, or during finalize, surfaces as
// *RenameInDoubtError: the namespace is in one of exactly two legal
// states (never both, never neither), and re-driving the same rename
// resolves it because every phase is idempotent.

import (
	"errors"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// EnableShardedNamespace switches the cluster from replicating every
// namespace mutation to all N servers to directing each at its
// directory's owner group. Call it once, right after construction and
// before any traffic, on every client of the namespace, with servers
// running EnableSharding under matching geometry (index i, count N,
// replicas R) and backing stores partitioned with
// memfs.SetInodePartition — residue routing only works when server i
// mints inodes of residue i. A file's home moves with it: a
// whole-on-home file's bytes live on its residue's owner group.
func (cl *Cluster) EnableShardedNamespace() error {
	cl.pl.sharded = true
	return nil
}

// FlushSizes does nothing: every extending write publishes its end
// before it returns, so there is never a size publish to drain. It
// remains only because the meta_storm workload in bench/ still calls
// it.
func (cl *Cluster) FlushSizes(p *sim.Proc) error { return nil }

// ---- sharded routing ----

// groupFanFrom fans a request to every alive member of an owner group
// EXCEPT one (the primary that already applied the original) — the
// dentry-replication round of sharded creates. Faulting members are
// excluded; application errors win.
func (cl *Cluster) groupFanFrom(p *sim.Proc, owner, except int, req *Req) error {
	f := cl.fan(p, cl.aliveTargets(owner, cl.pl.replicas, []int{except}), req)
	addN(&cl.MetaFanout, f.tried)
	return f.err
}

// groupMint runs a minting mutation (create, mkdir) at the owner
// group's primary — failing over within the group when the primary's
// transport faults — then replicates the fresh dentry to the rest of
// the group with OpLink. A member passed over may have been stalled,
// not dead, and apply the mint late under an inode of its own: its
// journal removes whatever the name holds there before the link is
// journaled (linkMinted).
func (cl *Cluster) groupMint(p *sim.Proc, owner int, req *Req) (*Resp, error) {
	tried := cl.mintTried[:0] // every member asked, in order; all but the last faulted
	resp, idx, err := cl.metaFirstAlive(p, req, func() int {
		tried = append(tried, cl.firstUp(owner, 0, cl.pl.replicas))
		return tried[len(tried)-1]
	}, func() error { return cl.groupDead(req.Op, owner) })
	cl.mintTried = tried
	if err != nil {
		return resp, err
	}
	undo := Req{Op: OpUnlink, Ino: req.Ino, Name: req.Name}
	if req.Op == OpMkdir {
		undo.Op = OpRmdir
	}
	for _, slot := range tried[:len(tried)-1] {
		cl.journalMut(slot, undo, 0)
	}
	if lerr := cl.linkMinted(p, owner, idx, req, resp); lerr != nil {
		return &Resp{Status: StatusOf(lerr)}, lerr
	}
	return resp, nil
}

// linkMinted replicates a dentry that member minter of an owner group
// minted for req to the rest of the group (OpLink, when R > 1),
// carrying the child's kind and layout class, and journals the link
// for the group's excluded members: they missed the dentry, so replay
// owes them the idempotent replication verb, not the minting request.
func (cl *Cluster) linkMinted(p *sim.Proc, owner, minter int, req *Req, resp *Resp) error {
	_, lc := UnpackNode(req.Len)
	link := Req{Op: OpLink, Ino: req.Ino, Name: req.Name, Off: int64(resp.Attr.Ino), Len: PackNode(int(resp.Attr.Kind), lc)}
	if cl.pl.replicas > 1 {
		if err := cl.groupFanFrom(p, owner, minter, &link); err != nil {
			return err
		}
	}
	cl.journalGroup(owner, link, resp.Attr.Ino)
	return nil
}

// shardMeta is the sharded Meta dispatch of namespace mutations: each
// goes to its owner group alone (Meta itself routes reads and the size
// operations, which still fan globally — see the package comment).
func (cl *Cluster) shardMeta(p *sim.Proc, req *Req) (*Resp, error) {
	switch req.Op {
	case OpCreate:
		return cl.shardCreate(p, req.Ino, req.Name, req.Len)
	case OpMkdir:
		return cl.shardMkdir(p, req.Ino, req.Name)
	case OpUnlink:
		return cl.shardUnlink(p, req.Ino, req.Name)
	case OpRmdir:
		return cl.shardRmdir(p, req.Ino, req.Name)
	}
	// OpRenameLocal, the one operation left (Meta admits no other).
	src, dst, ok := SplitRenameNames(req.Name)
	if !ok {
		return &Resp{Status: StInval}, ErrInval
	}
	return cl.Rename(p, req.Ino, src, kernel.InodeID(req.Off), dst)
}

// shardCreate creates a file under its parent directory's owner
// group: files inherit the parent's residue, so the group that owns
// the dentry also owns the child's attributes — and, whole-on-home, its
// bytes — and ONE group, not the whole cluster, serves the create.
// hint is the creator's layout class, packed with the residue.
func (cl *Cluster) shardCreate(p *sim.Proc, dir kernel.InodeID, name string, hint uint32) (*Resp, error) {
	if hint > uint32(layoutMax) {
		return &Resp{Status: StInval}, ErrInval
	}
	owner := cl.pl.residue(dir)
	resp, err := cl.groupMint(p, owner, &Req{Op: OpCreate, Ino: dir, Name: name, Len: PackNode(owner+1, LayoutClass(hint))})
	if err != nil {
		return resp, err
	}
	cl.sz.establish(resp.Attr.Ino, resp.Attr.Size, resp.Epoch)
	return resp, nil
}

// shardMkdir creates a directory: the dentry is minted at the
// PARENT's owner group (round one), then the fresh directory's object
// is materialized at ITS owner group (round two) — the group its
// residue routes its children's operations to, generally a different
// one (placement.pathHome is what scatters the namespace over N servers).
// A crash between the rounds leaves a dentry whose object the child's
// group materializes on demand at first touch.
func (cl *Cluster) shardMkdir(p *sim.Proc, dir kernel.InodeID, name string) (*Resp, error) {
	owner := cl.pl.residue(dir)
	res := cl.pl.pathHome(dir, name)
	resp, err := cl.groupMint(p, owner, &Req{Op: OpMkdir, Ino: dir, Name: name, Len: PackNode(res+1, LayoutStandard)})
	if err != nil {
		return resp, err
	}
	if _, err := cl.fanout(p, res, &Req{Op: OpMaterialize, Ino: resp.Attr.Ino, Len: uint32(kernel.Directory)}); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	cl.journalGroup(res, Req{Op: OpMaterialize, Ino: resp.Attr.Ino, Len: uint32(kernel.Directory)}, resp.Attr.Ino)
	return resp, nil
}

// shardUnlink removes a dentry at its owner group. The group's answer
// carries the victim's attributes; its object — and its data stripes,
// which live on EVERY server — are reclaimed by an OpScrub fan
// (scrubVictim).
func (cl *Cluster) shardUnlink(p *sim.Proc, dir kernel.InodeID, name string) (*Resp, error) {
	owner := cl.pl.residue(dir)
	resp, err := cl.fanout(p, owner, &Req{Op: OpUnlink, Ino: dir, Name: name})
	if err != nil {
		return resp, err
	}
	cl.journalGroup(owner, Req{Op: OpUnlink, Ino: dir, Name: name}, resp.Attr.Ino)
	if err := cl.scrubVictim(p, resp.Attr.Ino, resp.Attr.Size); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return resp, nil
}

// scrubVictim reclaims a dead inode cluster-wide: one OpScrub fanned
// to every alive member, and journaled for every excluded one so
// Reinstate reclaims it there too. ownerSize is the victim's size as
// the owner group reported it with the unlink.
func (cl *Cluster) scrubVictim(p *sim.Proc, victim kernel.InodeID, ownerSize int64) error {
	if victim == 0 {
		return nil
	}
	if known := cl.sz.drop(victim); !known && ownerSize == 0 && cl.layouts[victim] != LayoutWhole {
		// The owner group never heard a size for the victim and this
		// client has nothing cached for it: non-owner servers only
		// acquire foreign-owned state through data writes and size sets
		// (see materializeOnDemand), and every publish or exact truncate
		// grows the owner too — so nothing remote exists and the
		// owner-side unlink already reclaimed everything. Skipping the
		// fan here is what keeps empty-file churn O(R), not O(N). A
		// whole-on-home file publishes no size, and a rename may have
		// left its home away from the group that answered the unlink.
		return nil
	}
	scrub := Req{Op: OpScrub, Ino: victim}
	f := cl.fan(p, cl.aliveTargets(0, len(cl.pl.members), nil), &scrub)
	// After the fan, so a member it excluded journals the scrub too.
	cl.journalMutationAll(scrub, victim)
	return f.err
}

// shardRmdir removes a directory: resolve the victim at the parent's
// owner group, check-and-remove its object at the VICTIM's owner
// group (the only group whose copy of the directory sees its
// children's dentries — OpScrub with ScrubRequireEmptyDir is the
// emptiness authority), then drop the dentry at the parent's group.
func (cl *Cluster) shardRmdir(p *sim.Proc, dir kernel.InodeID, name string) (*Resp, error) {
	owner := cl.pl.residue(dir)
	lresp, err := cl.homedRead(p, &Req{Op: OpLookup, Ino: dir, Name: name})
	if err != nil {
		return lresp, err
	}
	if lresp.Attr.Kind != kernel.Directory {
		return &Resp{Status: StNotDir}, kernel.ErrNotDir
	}
	child := lresp.Attr.Ino
	cres := cl.pl.residue(child)
	if sresp, err := cl.fanout(p, cres, &Req{Op: OpScrub, Ino: child, Len: ScrubRequireEmptyDir}); err != nil {
		return sresp, err
	}
	cl.journalGroup(cres, Req{Op: OpScrub, Ino: child, Len: ScrubRequireEmptyDir}, child)
	resp, err := cl.fanout(p, owner, &Req{Op: OpRmdir, Ino: dir, Name: name})
	if err != nil {
		return resp, err
	}
	cl.journalGroup(owner, Req{Op: OpRmdir, Ino: dir, Name: name}, child)
	cl.sz.drop(child)
	return resp, nil
}

// Rename implements Client. Unsharded, it fans one OpRenameLocal to
// every alive server (each applies it locally — the namespace is
// replicated). Sharded, a rename within one owner group is the same
// OpRenameLocal fanned to that group; across groups it is the
// three-phase protocol (see the package comment): prepare at the
// source group, commit (OpLink) at the destination group, finalize at
// the source group. The commit is the switch point — before it the
// rename can still abort cleanly to its source state; after it the
// rename HAS happened and only the source-side cleanup can lag. A
// fault that hides the commit's fate, or interrupts the finalize,
// returns *RenameInDoubtError (errors.Is ErrRenameInDoubt): the
// namespace is in one of exactly two legal states, and re-driving the
// same rename resolves it.
func (cl *Cluster) Rename(p *sim.Proc, srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) (*Resp, error) {
	if err := cl.enterOp(p, true); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	local := &Req{Op: OpRenameLocal, Ino: srcDir, Off: int64(dstDir), Name: PackRenameNames(srcName, dstName)}
	if err := ValidateReq(local); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	if !cl.pl.sharded {
		return cl.fanout(p, ring, local) // noteMutation bumps every server
	}
	so, do := cl.pl.residue(srcDir), cl.pl.residue(dstDir)
	if so == do {
		resp, err := cl.fanout(p, so, local)
		if err == nil {
			cl.journalGroup(so, *local, resp.Attr.Ino)
		}
		return resp, err
	}
	// Phase 1 — prepare at the source group: marks (srcDir, srcName)
	// as renaming toward dstDir and returns the child. Nothing durable
	// changed; any failure here simply leaves the rename undone.
	presp, err := cl.fanout(p, so, &Req{Op: OpRenamePrepare, Ino: srcDir, Off: int64(dstDir), Name: srcName})
	if err != nil {
		return presp, err
	}
	child := presp.Attr
	// Phase 2 — commit at the destination group: link the child under
	// its new name. This is the switch point.
	// The link carries no class: unless the destination group is the
	// child's home, which already records it, it answers layoutUnknown.
	link := Req{Op: OpLink, Ino: dstDir, Off: int64(child.Ino), Len: PackNode(int(child.Kind), LayoutStandard), Name: dstName}
	cresp, err := cl.fanout(p, do, &link)
	if err != nil {
		// The destination never (observably) switched: abort the
		// source marks so the namespace settles in its original state.
		// Neither group's slice mutated, so neither bumps — a
		// destination server killed before the commit reinstates
		// cleanly into that state. If the abort ALSO fails, the source
		// entry stays marked and the outcome is in doubt.
		if _, aerr := cl.fanout(p, so, &Req{Op: OpRenameAbort, Ino: srcDir, Name: srcName}); aerr != nil {
			cl.RenameInDoubts.Add(1)
			cl.noteRenameDoubt(srcDir, srcName, dstDir, dstName)
			return cresp, &RenameInDoubtError{SrcDir: srcDir, SrcName: srcName, DstDir: dstDir, DstName: dstName, Err: err}
		}
		// The abort only reached alive members; one excluded mid-rename
		// may hold the prepare mark with nobody left to clear it. Journal
		// the abort so replay lifts the mark (idempotently a no-op on
		// members that never saw the prepare).
		cl.journalGroup(so, Req{Op: OpRenameAbort, Ino: srcDir, Name: srcName}, 0)
		cl.clearRenameDoubt(srcDir, srcName, dstDir, dstName)
		return cresp, err
	}
	// The rename is committed: journal the link for the destination
	// group's excluded members.
	cl.journalGroup(do, link, child.Ino)
	// Phase 3 — finalize at the source group: detach the old entry and
	// clear the mark.
	if _, ferr := cl.fanout(p, so, &Req{Op: OpRenameFinalize, Ino: srcDir, Off: int64(child.Ino), Name: srcName}); ferr != nil {
		// A member that missed the finalize still holds the orphaned
		// marked entry: journal the finalize it missed (after the fan,
		// precisely so members it newly excluded are seen).
		cl.journalGroup(so, Req{Op: OpRenameFinalize, Ino: srcDir, Off: int64(child.Ino), Name: srcName}, child.Ino)
		cl.RenameInDoubts.Add(1)
		cl.noteRenameDoubt(srcDir, srcName, dstDir, dstName)
		return cresp, &RenameInDoubtError{SrcDir: srcDir, SrcName: srcName, DstDir: dstDir, DstName: dstName, Err: ferr}
	}
	cl.journalGroup(so, Req{Op: OpRenameFinalize, Ino: srcDir, Off: int64(child.Ino), Name: srcName}, child.Ino)
	cl.clearRenameDoubt(srcDir, srcName, dstDir, dstName)
	return cresp, nil
}

// ---- in-doubt rename auto-resolution ----

// inDoubtRename is one parked in-doubt rename: the exact arguments of
// the Rename whose fate a fault hid, enough to re-drive it verbatim.
type inDoubtRename struct {
	srcDir  kernel.InodeID
	srcName string
	dstDir  kernel.InodeID
	dstName string
}

// noteRenameDoubt parks an in-doubt rename on both directories it
// involves, so the next walk touching either re-drives it (see
// resolveRenameDoubt). One record per directory: renames serialize per
// entry through the prepare marks, and a second in-doubt rename on the
// same directory simply overwrites — the first is re-discovered by its
// OTHER directory's key, or by the caller's own re-drive.
func (cl *Cluster) noteRenameDoubt(srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) {
	if cl.renameDoubt == nil {
		cl.renameDoubt = make(map[kernel.InodeID]inDoubtRename)
	}
	r := inDoubtRename{srcDir: srcDir, srcName: srcName, dstDir: dstDir, dstName: dstName}
	cl.renameDoubt[srcDir] = r
	cl.renameDoubt[dstDir] = r
}

// clearRenameDoubt drops the parked records matching a rename that
// reached a definitive outcome (committed and finalized, or cleanly
// aborted).
func (cl *Cluster) clearRenameDoubt(srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) {
	if len(cl.renameDoubt) == 0 {
		return
	}
	r := inDoubtRename{srcDir: srcDir, srcName: srcName, dstDir: dstDir, dstName: dstName}
	if cl.renameDoubt[srcDir] == r {
		delete(cl.renameDoubt, srcDir)
	}
	if cl.renameDoubt[dstDir] == r {
		delete(cl.renameDoubt, dstDir)
	}
}

// resolveRenameDoubt re-drives the in-doubt rename parked on dir, if
// any. Every rename phase is idempotent, so the re-drive lands the
// namespace in one of its two legal settled states: success means the
// rename went (or finally goes) forward; ErrNotFound at the re-prepare
// means it already settled (forward, with the source entry detached —
// or undone by a racing abort). Either way the doubt is resolved and
// the walk proceeds against a quiet namespace. A re-drive that fails
// any other way (the faults have not healed) keeps the record for the
// next walk and the walk proceeds — resolution is an optimization of
// WHEN the namespace settles, never a correctness gate for reads.
func (cl *Cluster) resolveRenameDoubt(p *sim.Proc, dir kernel.InodeID) {
	r, ok := cl.renameDoubt[dir]
	if !ok {
		return
	}
	_, err := cl.Rename(p, r.srcDir, r.srcName, r.dstDir, r.dstName)
	if err == nil || errors.Is(err, kernel.ErrNotFound) {
		cl.clearRenameDoubt(r.srcDir, r.srcName, r.dstDir, r.dstName)
		cl.RenameAutoResolves.Add(0)
	}
}
