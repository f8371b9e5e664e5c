package rfsrv

// Client half of the sharded namespace (DESIGN.md §11), plus the
// flush of the batched size publishes both it and the replicated
// cluster can use (the queue itself is the size book's, sizebook.go;
// the per-server batches run through Cluster.runShares, cluster.go).
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
// What still fans to everyone: exact size sets (truncate) and the
// grow-only size publishes. File DATA is striped across all servers
// regardless of namespace ownership, so every server's local size
// matters to EOF clipping — a per-inode size authority would buy
// nothing here, and keeping the fan preserves PR 5's size-coherence
// machinery unchanged. Sharding therefore trades the O(N) namespace
// fan away while leaving size coherence global; the batched publish
// path amortizes the latter.
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
	"fmt"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// DefaultSizePublishBatch is the publish window EnableShardedNamespace
// installs when none was configured: flush coalesced size publishes
// every 16 enqueues.
const DefaultSizePublishBatch = 16

// EnableShardedNamespace switches the cluster from replicating every
// namespace mutation to all N servers to directing each at its
// directory's owner group. Call it once, right after construction and
// before any traffic, on every client of the namespace, with servers
// running EnableSharding under matching geometry (index i, count N,
// replicas R) and backing stores partitioned with
// memfs.SetInodePartition — residue routing only works when server i
// mints inodes of residue i. Mutually exclusive with SetLayoutPolicy:
// sharding reuses the create request's Len field for the routing
// residue, which is the field layout hints travel in.
func (cl *Cluster) EnableShardedNamespace() error {
	if cl.policyOn {
		return fmt.Errorf("%w: SetLayoutPolicy is already on", ErrShardLayoutConflict)
	}
	cl.sharded = true
	if !cl.sz.batching() {
		return cl.SetSizePublishBatch(DefaultSizePublishBatch)
	}
	return nil
}

// SetSizePublishBatch defers the write path's grow-only size
// reconciliation: instead of fanning an OpSetSize to every server
// after each extending write, the cluster records the highest pending
// end-of-file per inode and flushes the coalesced set — one combined
// request batch per server — every k enqueues, or at the next
// metadata operation, SetFileSize or Rename, whichever comes first.
// Between flushes other servers' local sizes lag (reads clip a little
// early; getattr via this client is safe because metadata operations
// flush first) — the trade every write-behind scheme makes, here
// bounded by k. k must be positive; call before traffic. Mutually
// exclusive with SetLayoutPolicy (whole-on-home files have no
// reconciliation to batch, and the policy machinery predates the
// publish queue).
func (cl *Cluster) SetSizePublishBatch(k int) error {
	if k < 1 {
		return fmt.Errorf("rfsrv: size publish batch %d is not positive", k)
	}
	if cl.policyOn {
		return fmt.Errorf("%w: batched size publishes require a policy-free cluster", ErrShardLayoutConflict)
	}
	cl.sz.setBatch(k)
	return nil
}

// FlushSizes drains the publish queue: every pending grow-only
// OpSetSize (in enqueue order, highest pending end per inode) and
// every pending OpScrub — publishes first, so a scrubbed inode is
// never re-grown by a publish queued before its unlink — packed into
// one combined request batch per alive server, the per-server batches
// in flight in parallel (runShares). A server that faults is excluded
// (the grow mode is replayable; the alive servers are consistent,
// which is all the cache records). StStale refusals — a foreign exact
// size set raced the queue — refresh the cached epoch and the flush
// retries under it; a publish for an inode someone else unlinked since
// is moot, not an error (sizeBook.settle). Every metadata operation
// starts with a flush, so a getattr after a batched write observes the
// written size and a namespace mutation never reorders ahead of the
// publishes that preceded it (data reads don't flush: an unpublished
// size only makes reads short, never wrong). Exported for callers with
// their own barriers (the figures harness audits sizes after a storm);
// a no-op when nothing is pending.
func (cl *Cluster) FlushSizes(p *sim.Proc) error {
	if cl.sz.pending() {
		if err := publish("batched size publish", func() (bool, error) { return cl.publishRound(p) }); err != nil {
			return err
		}
	}
	cl.sz.settle()
	return nil
}

// publishRound runs one round of the flush: each alive member receives
// the book's request list as combined batches through its window (a
// list larger than the window or the 4 KB request buffer spans several
// flights). stale reports whether any publish was refused under a
// stale epoch.
func (cl *Cluster) publishRound(p *sim.Proc) (stale bool, err error) {
	reqs, npub := cl.sz.requests()
	shares := cl.newShares()
	for _, i := range cl.pl.members {
		if cl.down[i] {
			// The excluded member misses the scrubs in this flush (the
			// grow publishes are replayable and are not journaled); record
			// them so Reinstate reclaims the dead inodes there too.
			for _, r := range reqs[npub:] {
				cl.journalMut(i, *r, r.Ino, 0)
			}
			continue
		}
		shares[i].reqs = append(shares[i].reqs, reqs...)
	}
	return cl.runShares(p, shares, nil, npub)
}

// ---- sharded routing ----

// groupDead is the error for an owner group whose every member is
// excluded; it satisfies fabric.IsFault.
func (cl *Cluster) groupDead(op Op, owner int) error {
	return fmt.Errorf("rfsrv: %v: every server of owner group %d excluded: %w", op, owner, fabric.ErrPeerDead)
}

// groupFirst runs req against an owner group's first alive member,
// failing over within the group (metaFirstAlive).
func (cl *Cluster) groupFirst(p *sim.Proc, owner int, req *Req) (*Resp, int, error) {
	return cl.metaFirstAlive(p, req,
		func() int { return cl.firstUp(owner, cl.pl.replicas) },
		func() error { return cl.groupDead(req.Op, owner) })
}

// groupRead runs a read-only metadata request against its owner
// group's first alive member — the sharded analogue of homedMeta.
func (cl *Cluster) groupRead(p *sim.Proc, owner int, req *Req) (*Resp, error) {
	for {
		resp, idx, err := cl.groupFirst(p, owner, req)
		if idx < 0 || !cl.sz.behind(resp.Attr.Ino, resp.Epoch) {
			return resp, err
		}
		// The member answered under an epoch behind the cache: it
		// missed an exact set and its sizes are pre-truncate stale
		// (see sizeBook.behind). Serving this reply would hand the
		// caller a resurrected size — exclude and fail over.
		cl.markDown(idx)
		cl.Failovers.Add(0)
	}
}

// groupFan replicates a mutation to every alive member of an owner
// group (fan) and verifies the answers agree. A faulting member is
// excluded, never counted as divergent; an entirely excluded group is
// an error.
func (cl *Cluster) groupFan(p *sim.Proc, owner int, req *Req) (*Resp, error) {
	f := cl.fan(p, cl.aliveTargets(owner, cl.pl.replicas, nil), req)
	addN(&cl.MetaFanout, f.extra)
	if len(f.resps) == 0 {
		if f.err == nil {
			f.err = cl.groupDead(req.Op, owner)
		}
		return &Resp{Status: StatusOf(f.err)}, f.err
	}
	base := f.resps[0]
	if r := disagree(f.resps); r != nil {
		if r.Status == StBusy || base.Status == StBusy {
			// A rename-tainted entry mid-resolution: members still
			// holding the prepare mark refuse with StBusy while
			// members that already saw the abort or finalize answer
			// from the settled state. That is the in-doubt window
			// showing through — report busy (the caller re-drives
			// the rename), never divergence.
			return &Resp{Status: StBusy}, ErrBusy
		}
		derr := fmt.Errorf("rfsrv: owner group %d diverged on %v %q (status %d/ino %d vs %d/%d)",
			owner, req.Op, req.Name, base.Status, base.Attr.Ino, r.Status, r.Attr.Ino)
		return &Resp{Status: StIO}, derr
	}
	return base, f.err
}

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
// the group with OpLink.
func (cl *Cluster) groupMint(p *sim.Proc, owner int, req *Req) (*Resp, error) {
	resp, idx, err := cl.groupFirst(p, owner, req)
	if err != nil {
		return resp, err
	}
	if cl.pl.replicas > 1 {
		link := Req{Op: OpLink, Ino: req.Ino, Name: req.Name,
			Off: int64(resp.Attr.Ino), Len: uint32(resp.Attr.Kind)}
		if lerr := cl.groupFanFrom(p, owner, idx, &link); lerr != nil {
			return &Resp{Status: StatusOf(lerr)}, lerr
		}
	}
	return resp, nil
}

// shardMeta is the sharded Meta dispatch: reads to the owner group's
// primary, mutations to the owner group alone, size operations still
// global (see the package comment on what fans).
func (cl *Cluster) shardMeta(p *sim.Proc, req *Req) (*Resp, error) {
	switch req.Op {
	case OpLookup, OpGetattr, OpReaddir:
		// A lookup's Ino is the directory and a getattr/readdir's the
		// object itself; both route by the inode's own residue (files
		// inherit the parent's, so the dentry's owner group answers all
		// three). A directory with an in-doubt rename parked on it gets
		// the rename re-driven first, so walks observe a settled
		// namespace instead of StBusy marks.
		if len(cl.renameDoubt) > 0 {
			cl.resolveRenameDoubt(p, req.Ino)
		}
		return cl.groupRead(p, cl.pl.residue(req.Ino), req)
	case OpCreate:
		return cl.shardCreate(p, req.Ino, req.Name)
	case OpMkdir:
		return cl.shardMkdir(p, req.Ino, req.Name)
	case OpUnlink:
		return cl.shardUnlink(p, req.Ino, req.Name)
	case OpRmdir:
		return cl.shardRmdir(p, req.Ino, req.Name)
	case OpTruncate:
		return cl.setSizeMeta(p, req.Ino, req.Off, true)
	case OpSetSize:
		exact, _ := UnpackSetSize(req.Len)
		return cl.setSizeMeta(p, req.Ino, req.Off, exact)
	case OpRenameLocal:
		src, dst, ok := SplitRenameNames(req.Name)
		if !ok {
			return &Resp{Status: StInval}, ErrInval
		}
		return cl.Rename(p, req.Ino, src, kernel.InodeID(req.Off), dst)
	default:
		// OpSetLayout (the layout policy is off under sharding — see
		// EnableShardedNamespace) and the internal sharding verbs are
		// not client-facing operations here.
		return &Resp{Status: StInval}, ErrInval
	}
}

// shardCreate creates a file under its parent directory's owner
// group: files inherit the parent's residue, so the group that owns
// the dentry also owns the child's attributes and ONE group — not the
// whole cluster — serves the create.
func (cl *Cluster) shardCreate(p *sim.Proc, dir kernel.InodeID, name string) (*Resp, error) {
	owner := cl.pl.residue(dir)
	resp, err := cl.groupMint(p, owner, &Req{Op: OpCreate, Ino: dir, Name: name, Len: uint32(owner + 1)})
	if err != nil {
		return resp, err
	}
	cl.bumpGroupNs(owner)
	cl.sz.establish(resp.Attr.Ino, resp.Attr.Size, resp.Epoch)
	// Excluded group members missed the dentry: journal the
	// idempotent replication verb (OpLink), not the minting create.
	cl.journalGroup(owner, Req{Op: OpLink, Ino: dir, Name: name,
		Off: int64(resp.Attr.Ino), Len: uint32(resp.Attr.Kind)}, resp.Attr.Ino, resp.Epoch)
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
	resp, err := cl.groupMint(p, owner, &Req{Op: OpMkdir, Ino: dir, Name: name, Len: uint32(res + 1)})
	if err != nil {
		return resp, err
	}
	cl.bumpGroupNs(owner)
	cl.journalGroup(owner, Req{Op: OpLink, Ino: dir, Name: name,
		Off: int64(resp.Attr.Ino), Len: uint32(kernel.Directory)}, resp.Attr.Ino, resp.Epoch)
	if _, err := cl.groupFan(p, res, &Req{Op: OpMaterialize, Ino: resp.Attr.Ino, Len: uint32(kernel.Directory)}); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	cl.bumpGroupNs(res)
	cl.journalGroup(res, Req{Op: OpMaterialize, Ino: resp.Attr.Ino, Len: uint32(kernel.Directory)}, resp.Attr.Ino, 0)
	return resp, nil
}

// shardUnlink removes a dentry at its owner group. The group's answer
// carries the victim's attributes; its object — and its data stripes,
// which live on EVERY server — are reclaimed by a lazy OpScrub fan
// that rides the next size-publish flush instead of costing this
// unlink an N-way round.
func (cl *Cluster) shardUnlink(p *sim.Proc, dir kernel.InodeID, name string) (*Resp, error) {
	owner := cl.pl.residue(dir)
	resp, err := cl.groupFan(p, owner, &Req{Op: OpUnlink, Ino: dir, Name: name})
	if err != nil {
		return resp, err
	}
	cl.bumpGroupNs(owner)
	cl.journalGroup(owner, Req{Op: OpUnlink, Ino: dir, Name: name}, resp.Attr.Ino, 0)
	if err := cl.noteUnlinkVictim(p, resp.Attr.Ino, resp.Attr.Size); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return resp, nil
}

// noteUnlinkVictim queues the lazy cluster-wide scrub of a dead inode
// and drops everything the book held for it — a queued size publish
// must never resurrect an unlinked file's object on servers that
// already scrubbed it, so the victim leaves the queue before the scrub
// is queued (the flush also orders publishes before scrubs for the
// same reason). ownerSize is the victim's size as the owner group
// reported it with the unlink.
func (cl *Cluster) noteUnlinkVictim(p *sim.Proc, victim kernel.InodeID, ownerSize int64) error {
	if victim == 0 {
		return nil
	}
	if known := cl.sz.drop(victim); !known && ownerSize == 0 {
		// The owner group never heard a size for the victim and this
		// client has nothing cached or queued for it: non-owner servers
		// only acquire foreign-owned state through data writes and size
		// sets (see materializeOnDemand), and every flushed publish or
		// exact truncate grows the owner too — so nothing remote exists
		// and the owner-side unlink already reclaimed everything.
		// Skipping the fan here is what keeps empty-file churn O(R), not
		// O(N). (A foreign client's not-yet-flushed writes are invisible;
		// the frames such a race strands are reclaimed only by that
		// client's own churn — the lazy-reconciliation trade.)
		return nil
	}
	if cl.sz.scrub(victim) {
		return cl.FlushSizes(p)
	}
	return nil
}

// shardRmdir removes a directory: resolve the victim at the parent's
// owner group, check-and-remove its object at the VICTIM's owner
// group (the only group whose copy of the directory sees its
// children's dentries — OpScrub with ScrubRequireEmptyDir is the
// emptiness authority), then drop the dentry at the parent's group.
func (cl *Cluster) shardRmdir(p *sim.Proc, dir kernel.InodeID, name string) (*Resp, error) {
	owner := cl.pl.residue(dir)
	lresp, err := cl.groupRead(p, owner, &Req{Op: OpLookup, Ino: dir, Name: name})
	if err != nil {
		return lresp, err
	}
	if lresp.Attr.Kind != kernel.Directory {
		return &Resp{Status: StNotDir}, kernel.ErrNotDir
	}
	child := lresp.Attr.Ino
	cres := cl.pl.residue(child)
	if sresp, err := cl.groupFan(p, cres, &Req{Op: OpScrub, Ino: child, Len: ScrubRequireEmptyDir}); err != nil {
		return sresp, err
	}
	cl.bumpGroupNs(cres)
	cl.journalGroup(cres, Req{Op: OpScrub, Ino: child, Len: ScrubRequireEmptyDir}, child, 0)
	resp, err := cl.groupFan(p, owner, &Req{Op: OpRmdir, Ino: dir, Name: name})
	if err != nil {
		return resp, err
	}
	cl.bumpGroupNs(owner)
	cl.journalGroup(owner, Req{Op: OpRmdir, Ino: dir, Name: name}, child, 0)
	cl.sz.forget(child)
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
	if err := cl.FlushSizes(p); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	local := &Req{Op: OpRenameLocal, Ino: srcDir, Off: int64(dstDir), Name: PackRenameNames(srcName, dstName)}
	if err := ValidateReq(local); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	if !cl.sharded {
		return cl.fanout(p, local) // noteMutation bumps every server
	}
	so, do := cl.pl.residue(srcDir), cl.pl.residue(dstDir)
	if so == do {
		resp, err := cl.groupFan(p, so, local)
		if err == nil {
			cl.bumpGroupNs(so)
			cl.journalGroup(so, *local, resp.Attr.Ino, 0)
		}
		return resp, err
	}
	// Phase 1 — prepare at the source group: marks (srcDir, srcName)
	// as renaming toward dstDir and returns the child. Nothing durable
	// changed; any failure here simply leaves the rename undone.
	presp, err := cl.groupFan(p, so, &Req{Op: OpRenamePrepare, Ino: srcDir, Off: int64(dstDir), Name: srcName})
	if err != nil {
		return presp, err
	}
	child := presp.Attr
	// Phase 2 — commit at the destination group: link the child under
	// its new name. This is the switch point.
	cresp, err := cl.groupFan(p, do, &Req{Op: OpLink, Ino: dstDir, Off: int64(child.Ino), Len: uint32(child.Kind), Name: dstName})
	if err != nil {
		// The destination never (observably) switched: abort the
		// source marks so the namespace settles in its original state.
		// Neither group's slice mutated, so neither bumps — a
		// destination server killed before the commit reinstates
		// cleanly into that state. If the abort ALSO fails, the source
		// entry stays marked and the outcome is in doubt.
		if _, aerr := cl.groupFan(p, so, &Req{Op: OpRenameAbort, Ino: srcDir, Name: srcName}); aerr != nil {
			cl.RenameInDoubts.Add(1)
			cl.noteRenameDoubt(srcDir, srcName, dstDir, dstName)
			return cresp, &RenameInDoubtError{SrcDir: srcDir, SrcName: srcName, DstDir: dstDir, DstName: dstName, Err: err}
		}
		// The abort only reached alive members; one excluded mid-rename
		// may hold the prepare mark with nobody left to clear it. Journal
		// the abort so replay lifts the mark (idempotently a no-op on
		// members that never saw the prepare).
		cl.journalGroup(so, Req{Op: OpRenameAbort, Ino: srcDir, Name: srcName}, 0, 0)
		cl.clearRenameDoubt(srcDir, srcName, dstDir, dstName)
		return cresp, err
	}
	// The rename is committed. Record the mutation on BOTH groups
	// before attempting the source-side cleanup: a source server that
	// dies between prepare and finalize holds a marked entry the
	// committed rename orphaned, and must be refused Reinstate even
	// though the finalize below never reached it.
	cl.bumpGroupNs(do)
	cl.bumpGroupNs(so)
	cl.journalGroup(do, Req{Op: OpLink, Ino: dstDir, Off: int64(child.Ino), Len: uint32(child.Kind), Name: dstName}, child.Ino, cresp.Epoch)
	// Phase 3 — finalize at the source group: detach the old entry and
	// clear the mark.
	if _, ferr := cl.groupFan(p, so, &Req{Op: OpRenameFinalize, Ino: srcDir, Off: int64(child.Ino), Name: srcName}); ferr != nil {
		// A member that missed the finalize still holds the orphaned
		// marked entry. If its death was only discovered by the fan
		// above, its exclusion snapshot postdates the bumps — bump the
		// group again so it is refused Reinstate until resynced, and
		// journal the finalize it missed (the journal hook below runs
		// after the fan precisely so newly-excluded members are seen).
		cl.bumpGroupNs(so)
		cl.journalGroup(so, Req{Op: OpRenameFinalize, Ino: srcDir, Off: int64(child.Ino), Name: srcName}, child.Ino, 0)
		cl.RenameInDoubts.Add(1)
		cl.noteRenameDoubt(srcDir, srcName, dstDir, dstName)
		return cresp, &RenameInDoubtError{SrcDir: srcDir, SrcName: srcName, DstDir: dstDir, DstName: dstName, Err: ferr}
	}
	cl.journalGroup(so, Req{Op: OpRenameFinalize, Ino: srcDir, Off: int64(child.Ino), Name: srcName}, child.Ino, 0)
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

// ---- sharded batching ----

// shardMetaBatch is MetaBatch under sharding: lookups, getattrs,
// readdirs, creates and unlinks split into per-owner-group shares,
// each share packed into combined batches through its primary's
// window, the per-server batches in flight IN PARALLEL — which is
// what lets a metadata storm scale with N instead of serializing
// rounds. Anything else in the batch (mkdir, rmdir, size operations,
// renames) needs multi-round protocols, so such a batch falls back to
// per-request Meta calls in order.
func (cl *Cluster) shardMetaBatch(p *sim.Proc, reqs []*Req) ([]*Resp, error) {
	for _, r := range reqs {
		switch r.Op {
		case OpLookup, OpGetattr, OpReaddir, OpCreate, OpUnlink:
		default:
			return cl.metaBatchSequential(p, reqs)
		}
	}
	shares := cl.newShares()
	// muts remembers, per original position, the mutation's owner
	// residue (-1 for reads) and primary, for the post-batch rounds.
	type mut struct {
		owner   int
		primary int
	}
	muts := make([]mut, len(reqs))
	out := make([]*Resp, len(reqs))
	for i, r := range reqs {
		owner := cl.pl.residue(r.Ino)
		idx := cl.firstUp(owner, cl.pl.replicas)
		if idx < 0 {
			return nil, cl.groupDead(r.Op, owner)
		}
		muts[i] = mut{owner: owner, primary: idx}
		switch r.Op {
		case OpLookup, OpGetattr, OpReaddir:
			muts[i].owner = -1
			shares[idx].add(i, r)
		case OpCreate:
			// Sharded servers read Len as the routing residue (files
			// inherit the parent's); layout hints do not exist here.
			shares[idx].add(i, &Req{Op: OpCreate, Ino: r.Ino, Name: r.Name, Len: uint32(owner + 1)})
		case OpUnlink:
			// The whole owner group applies the unlink; each member's
			// share carries the same *Req (flights start sequentially
			// and every start fully encodes — see startBatchFlight).
			for _, k := range cl.aliveTargets(owner, cl.pl.replicas, nil) {
				if k != idx {
					cl.MetaFanout.Add(1)
				}
				shares[k].add(i, r)
			}
		}
	}
	// Every share runs in parallel rounds; on any error the caller
	// re-issues.
	if _, err := cl.runShares(p, shares, out, 0); err != nil {
		return out, err
	}
	// Post-batch rounds and bookkeeping, in request order: replicate
	// fresh dentries (R > 1), bump the mutated groups, queue unlink
	// victims for the lazy scrub.
	for i, r := range reqs {
		m := muts[i]
		if m.owner < 0 || out[i] == nil || out[i].Status != StOK {
			continue
		}
		switch r.Op {
		case OpCreate:
			link := Req{Op: OpLink, Ino: r.Ino, Name: r.Name,
				Off: int64(out[i].Attr.Ino), Len: uint32(out[i].Attr.Kind)}
			if cl.pl.replicas > 1 {
				if err := cl.groupFanFrom(p, m.owner, m.primary, &link); err != nil {
					return out, err
				}
			}
			cl.bumpGroupNs(m.owner)
			cl.journalGroup(m.owner, link, out[i].Attr.Ino, out[i].Epoch)
			cl.sz.establish(out[i].Attr.Ino, out[i].Attr.Size, out[i].Epoch)
		case OpUnlink:
			cl.bumpGroupNs(m.owner)
			cl.journalGroup(m.owner, *r, out[i].Attr.Ino, 0)
			if err := cl.noteUnlinkVictim(p, out[i].Attr.Ino, out[i].Attr.Size); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// metaBatchSequential is the sharded batch's fallback for requests
// that need multi-round protocols: per-request Meta calls in original
// order (correct, just not combined).
func (cl *Cluster) metaBatchSequential(p *sim.Proc, reqs []*Req) ([]*Resp, error) {
	out := make([]*Resp, len(reqs))
	for i, r := range reqs {
		resp, err := cl.Meta(p, r)
		out[i] = resp
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
