// Elastic membership (DESIGN.md §13): the layer that turns the
// cluster's construction-time server set into a mutable, epoch-stamped
// membership view. Two mechanisms live here. (1) Readmission: while a
// server is excluded, the cluster records the namespace mutations and
// data-stripe writes the server misses in a per-slot journal
// (placement says which slots a mutation was meant for; the hooks
// record it against the excluded ones). Reinstate, under the view's
// full fence, replays the namespace verbs idempotently, re-images the
// server's file sizes, size epochs and layouts from the newest-epoch
// merge of the live members' state and its own (sizes are state, not
// verbs), re-copies its runs of every file whose epoch moved, then the
// journaled dirty ranges of every other file. (2) Live join/leave:
// Join, Retire and Bounce replace the placement's member ring under a
// shared MemberView through one change (change), the same in both
// namespaces: placement.delta — the stripes the new ring assigns to
// slots that lack them — migrates online under load, the new geometry
// commits on every server with OpMember so replies stamp the new
// membership epoch, and every member of the new ring is re-imaged from
// a snapshot taken at the cutover. Changes fail closed: an excluded
// member of either geometry fails the change rather than being skipped
// (membersUp).
//
// Journals are host-level bookkeeping: they cost no simulated time and
// allocate nothing on the fault-free path, so a static-membership
// cluster stays bit-identical. Every piece of state a returning,
// joining or re-placed server is sent travels the wire, through the
// ordinary request path, competing with live load and within reach of
// faults: data bytes through one copier (copyRange), namespace images
// through OpExport and OpImport (image.go). The cluster holds no handle
// on any server.
package rfsrv

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// memberFencePoll is how often a fenced operation re-checks the
// membership view, and how often an operator re-checks that in-flight
// operations have drained. Coarse enough not to spin, fine enough that
// fence latency is negligible next to a request round trip.
const memberFencePoll = 5 * time.Microsecond

// SetJournalLimits does nothing: the resync journal has no bounds —
// its dirty ranges merge, so they never exceed the bytes the server
// holds — and Reinstate always replays it. It remains only because the
// failover workload in bench/ still calls it.
func (cl *Cluster) SetJournalLimits(ops int, bytes int64) {}

// JournalSpilled reports false: a resync journal never spills. It
// remains only because the failover workload in bench/ still calls it.
func (cl *Cluster) JournalSpilled(i int) bool { return false }

// journalSpan records a mutation fanned to the span ring positions
// starting at pos in the journal of every excluded slot among them.
// Call sites invoke the hooks unconditionally: the request travels by
// value, so with nobody excluded the walk finds nothing and allocates
// nothing.
func (cl *Cluster) journalSpan(pos, span int, req Req, wantIno kernel.InodeID) {
	for j := 0; j < span; j++ {
		if i := cl.pl.slot(pos, j); cl.down[i] {
			cl.jn.record(i, req, wantIno)
		}
	}
}

// journalMutationAll records a mutation fanned to every member (the
// unsharded hook).
func (cl *Cluster) journalMutationAll(req Req, wantIno kernel.InodeID) {
	cl.journalSpan(0, len(cl.pl.members), req, wantIno)
}

// journalGroup records a mutation fanned to owner position's replica
// group (the sharded hook). The request must be the idempotent
// per-server verb the fan actually delivered (OpLink, OpUnlink,
// OpScrub, ...), not the client-facing operation.
func (cl *Cluster) journalGroup(owner int, req Req, wantIno kernel.InodeID) {
	cl.journalSpan(owner, cl.pl.replicas, req, wantIno)
}

// journalRunDirty records a data write's byte ranges against every
// excluded replica of its runs. Called once per write after the fan,
// with the same run decomposition the write used, so the dirty map
// covers exactly the stripes each excluded server would have held.
func (cl *Cluster) journalRunDirty(ino kernel.InodeID, runs []run) {
	for _, r := range runs {
		for j := 0; j < cl.pl.replicas; j++ {
			if i := cl.pl.slot(r.owner, j); cl.down[i] {
				cl.jn.dirty(i, ino, r.off, r.n)
			}
		}
	}
}

// Reinstate re-admits server slot i after its transport heals, under
// the full fence of the cluster's view (a view nobody attached to
// fences only this cluster). The fence drains every started operation,
// so the caller waits its own pending ones first, as for a membership
// change. Readmission is one path, journal replay (replayJournal): the
// namespace verbs replay, the server's regular files are re-imaged at
// the newest-epoch merge of the live members' sizes and its own, its
// runs of every file whose epoch moved are re-copied, then the
// journaled dirty ranges of every other file — all real simulated
// traffic, each missed byte copied once. A readmission that fails
// (transport fault mid-copy, or a divergence the idempotent verbs
// cannot reconcile) leaves the server excluded with the journal
// intact, so the caller can heal the fault and call Reinstate again;
// every step is idempotent, so the retry re-runs it all safely. The
// size book keeps every entry: a readmitted server holds the newest
// sizes, so every floor set while it was out holds for it too. A
// readmission's virtual time goes to ReinstateTime; a failed one's
// does not.
func (cl *Cluster) Reinstate(p *sim.Proc, i int) error {
	if i < 0 || i >= len(cl.sessions) {
		return fmt.Errorf("rfsrv: reinstate server %d: no such server", i)
	}
	if !cl.down[i] {
		return nil
	}
	start := p.Now()
	cl.view.fence(p, cl)
	defer cl.view.release()
	if err := cl.replayJournal(p, i, cl.jn.slot(i)); err != nil {
		return fmt.Errorf("rfsrv: reinstate server %d: %w", i, err)
	}
	cl.Reinstates.Add(0)
	cl.ReinstateTime += p.Now() - start
	cl.down[i] = false
	cl.jn.reset(i)
	return nil
}

func (cl *Cluster) replayJournal(p *sim.Proc, i int, j *resyncJournal) error {
	if err := cl.replayOps(p, i, j); err != nil {
		return err
	}
	// Re-image i's regular files — the state replay does not carry —
	// from the newest-epoch merge over the live members and i itself
	// (snapshot.reimage), then re-copy i's runs of every file whose size
	// epoch moved while it was out, or that it lacked: an exact size set
	// it missed may have cut bytes a later write re-grew as a hole.
	own, err := cl.exportImage(p, i)
	if err != nil {
		return err
	}
	snap, err := cl.takeSnapshot(p, own)
	if err != nil {
		return err
	}
	moved := snap.reimage(own, cl.pl)
	if err := cl.importImage(p, i, own); err != nil {
		return err
	}
	for _, ino := range moved {
		if err := cl.copyHeld(p, i, ino, snap.state[ino]); err != nil {
			return err
		}
	}
	for _, ino := range j.order {
		if _, whole := slices.BinarySearch(moved, ino); whole {
			continue // copyHeld just re-copied every run i holds
		}
		for _, r := range j.dirty[ino] {
			// The re-image already gave i the authoritative size, so a
			// range the file has since shrunk out of is simply not copied.
			if err := cl.copyRange(p, ino, r.off, r.n, []int{i}, &cl.ResyncBytes); err != nil {
				return fmt.Errorf("replay data %d@[%d,%d): %w", ino, r.off, r.end(), err)
			}
		}
	}
	return nil
}

// copyHeld re-copies to slot i, through copyRange, every run of a file
// that i holds under the file's layout — the copy of a file whose
// epoch moved in a readmission's re-image.
func (cl *Cluster) copyHeld(p *sim.Proc, i int, ino kernel.InodeID, st fileState) error {
	for _, r := range cl.pl.runs(st.layout, ino, 0, int(st.size), false, nil) {
		if !cl.pl.holds(i, r.owner) {
			continue
		}
		if err := cl.copyRange(p, ino, r.off, r.n, []int{i}, &cl.ResyncBytes); err != nil {
			return err
		}
	}
	return nil
}

// replayOps replays the journaled namespace mutations in one pass of
// combined MetaBatch flights (batchTo): the server applies a combined
// flight on one worker, strictly in order, so journal order is
// preserved, and a long exclusion replays in a handful of wire rounds.
// A verdict that asks for a verification lookup (the server already
// held a prefix of the journal) queues it, unless an op later in the
// journal rebinds the entry: a server that already applied it proves
// nothing about this one. An entry no later op touches resolves after
// the whole journal as it did right after its own op, so the queued
// lookups go out as one more batch after the journal (verifyEntries).
// Transport failures and non-tolerated statuses fail the replay with
// the journal intact for a Reinstate retry.
func (cl *Cluster) replayOps(p *sim.Proc, i int, j *resyncJournal) error {
	reqs := make([]*Req, len(j.ops))
	for k := range j.ops {
		req := j.ops[k].req // copy: issuing stamps Seq/EP into the request
		reqs[k] = &req
	}
	var checks []entryCheck
	err := cl.batchTo(p, i, reqs, func(k int, resp *Resp) error {
		op := &j.ops[k]
		verify, err := replayVerdict(op, resp)
		if err != nil {
			return fmt.Errorf("replay op %d/%d (%s): %w", k+1, len(j.ops), opNames[op.req.Op], err)
		}
		if verify != nil && verify.want != 0 && !verify.rebound(j.ops[k+1:]) {
			checks = append(checks, *verify)
		}
		return nil
	})
	if err != nil {
		return err
	}
	addN(&cl.ResyncOps, len(j.ops))
	if len(checks) == 0 {
		return nil
	}
	cl.ResyncFallbacks.Add(0)
	return cl.verifyEntries(p, i, checks)
}

// batchTo sends reqs to server i as combined MetaBatch flights and
// hands each answer, in order, to each. A status ends only its flight:
// the next flight starts at the request after it. A transport failure
// (fault, timeout, decode) or an error from each ends the pass.
func (cl *Cluster) batchTo(p *sim.Proc, i int, reqs []*Req, each func(k int, resp *Resp) error) error {
	for k := 0; k < len(reqs); {
		resps, err := cl.sessions[i].MetaBatch(p, reqs[k:])
		if err != nil && (len(resps) == 0 || fabric.IsFault(err)) {
			return err
		}
		for _, resp := range resps {
			if resp == nil {
				return err
			}
			if err := each(k, resp); err != nil {
				return err
			}
			k++
		}
	}
	return nil
}

// entryCheck is the verification a replay verdict can ask for: (dir,
// name) must resolve to want on the returning server.
type entryCheck struct {
	dir  kernel.InodeID
	name string
	want kernel.InodeID
}

// replayVerdict is the one per-opcode status tolerance table of journal
// replay: replay lives on tolerating the statuses an already-applied
// prefix of the journal produces. A non-nil verify means the status
// says "already applied" in a way only a lookup can confirm (replayOps
// queues it). Reads
// and lookups are never journaled; writes resync through dirty
// ranges; size verbs (SetSize, Truncate) through the re-image, which
// carries sizes, epochs and layouts as state;
// RenamePrepare is always resolved to Finalize or Abort before it is
// journaled; membership commits and images move only in membership
// changes and a readmission's re-image.
func replayVerdict(op *journalOp, resp *Resp) (verify *entryCheck, err error) {
	req := &op.req
	//analyze:dispatch ops -OpLookup -OpGetattr -OpReaddir -OpRead -OpWrite -OpSetSize -OpTruncate -OpRenamePrepare -OpMember -OpExport -OpImport
	switch req.Op {
	case OpCreate, OpMkdir:
		switch resp.Status {
		case StOK:
			if op.wantIno != 0 && resp.Attr.Ino != op.wantIno {
				return nil, fmt.Errorf("replayed create of %q minted inode %d, cluster holds %d: server diverged", req.Name, resp.Attr.Ino, op.wantIno)
			}
			return nil, nil
		case StExists:
			// Already applied: the entry must resolve to the same inode.
			return &entryCheck{req.Ino, req.Name, op.wantIno}, nil
		}
		return nil, ErrOf(resp.Status)

	case OpLink:
		switch resp.Status {
		case StOK:
			return nil, nil
		case StExists:
			return &entryCheck{req.Ino, req.Name, kernel.InodeID(req.Off)}, nil
		}
		return nil, ErrOf(resp.Status)

	case OpUnlink, OpRmdir, OpScrub, OpMaterialize, OpRenameFinalize, OpRenameAbort:
		// Idempotent per-server verbs: absence means already applied.
		switch resp.Status {
		case StOK, StNotFound:
			return nil, nil
		}
		return nil, ErrOf(resp.Status)

	case OpRenameLocal:
		switch resp.Status {
		case StOK:
			return nil, nil
		case StNotFound:
			// Source gone: already applied — verify the destination.
			if _, dst, ok := SplitRenameNames(req.Name); ok {
				return &entryCheck{kernel.InodeID(req.Off), dst, op.wantIno}, nil
			}
		}
		return nil, ErrOf(resp.Status)
	}
	return nil, fmt.Errorf("unreplayable op %s", opNames[req.Op])
}

// rebound reports whether one of the later journaled ops binds, unbinds
// or renames the checked entry.
func (c *entryCheck) rebound(later []journalOp) bool {
	for k := range later {
		r := &later[k].req
		src, dst, renamed := SplitRenameNames(r.Name)
		if !renamed {
			src = r.Name
		}
		if r.Ino == c.dir && src == c.name || renamed && kernel.InodeID(r.Off) == c.dir && dst == c.name {
			return true
		}
	}
	return false
}

// verifyEntries checks, in one combined batch to server i, that every
// queued entry resolves to the inode the cluster holds — the
// convergence check after replayed mutations reported they were
// already applied.
func (cl *Cluster) verifyEntries(p *sim.Proc, i int, checks []entryCheck) error {
	looks := make([]*Req, len(checks))
	for k, c := range checks {
		looks[k] = &Req{Op: OpLookup, Ino: c.dir, Name: c.name}
	}
	return cl.batchTo(p, i, looks, func(k int, resp *Resp) error {
		c := &checks[k]
		if resp.Status != StOK {
			return fmt.Errorf("verify %q after replay: %w", c.name, ErrOf(resp.Status))
		}
		if resp.Attr.Ino != c.want {
			return fmt.Errorf("verify %q after replay: resolves to inode %d, cluster holds %d: server diverged", c.name, resp.Attr.Ino, c.want)
		}
		return nil
	})
}

// stage returns an n-byte vector over the cluster's staging buffer —
// what copies and namespace images travel through — mapping it on first
// use (clusters that never copy never pay the mapping).
func (cl *Cluster) stage(n int) (core.Vector, error) {
	c := cl.sessions[0].c
	if cl.stageVA == 0 {
		alloc := c.as.Mmap
		if c.kernSide {
			alloc = c.as.MmapContig
		}
		va, err := alloc(MaxWriteChunk, "rfsrv-stage")
		if err != nil {
			return nil, err
		}
		cl.stageVA = va
	}
	return core.Of(c.seg(cl.stageVA, n)), nil
}

// copyRange is the one stripe copier (DESIGN.md §7): it reads
// [off, off+n) of a file through the cluster's live placement — real
// striped reads with failover, one MaxWriteChunk at a time into the
// staging buffer — and writes what it got straight to every slot of to
// at the same global offsets, adding each write's bytes to moved. A
// short or empty read means the file ends there, and an unlinked file
// has nothing left to copy; whoever calls has already settled the
// targets' sizes or will. A target whose transport faults is excluded
// and fails the copy.
func (cl *Cluster) copyRange(p *sim.Proc, ino kernel.InodeID, off int64, n int, to []int, moved *sim.Counter) error {
	for end := off + int64(n); off < end; {
		want := int(min(end-off, MaxWriteChunk))
		vec, err := cl.stage(want)
		if err != nil {
			return err
		}
		rresp, err := cl.Read(p, ino, off, vec)
		if errors.Is(err, kernel.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		got := int(rresp.N)
		if got == 0 {
			return nil
		}
		for _, slot := range to {
			wresp, err := cl.sessions[slot].c.ctlData(p, OpWrite, ino, off, vec.Slice(0, got))
			if err != nil {
				if fabric.IsFault(err) {
					cl.markDown(slot)
				}
				return fmt.Errorf("copy to server %d: %w", slot, err)
			}
			if int(wresp.N) != got {
				return fmt.Errorf("short copy to server %d: %d of %d bytes", slot, wresp.N, got)
			}
			moved.Add(got)
		}
		if got < want {
			return nil
		}
		off += int64(got)
	}
	return nil
}

// --- Namespace images ---
//
// A readmission's re-image and a membership change move namespace
// metadata the same way: one snapshot of the live members, each read
// with OpExport, and from it the exact image of every ring position to
// rebuild (snapshot.image, snapshot.reimage), shipped with OpImport.
// Data stripes follow through copyRange. All ride the wire's data legs,
// so they cost simulated time and a fault anywhere in them fails the
// operation.

// fileState is a regular file's size state as the snapshot merged it:
// the newest size epoch any image holds, the largest size held at that
// epoch, and the file's layout class.
type fileState struct {
	size   int64
	epoch  uint64
	layout LayoutClass
}

// snapshot is the cluster's authoritative namespace state, read from
// its live members.
type snapshot struct {
	// nodes holds the owning copy of every inode, regular files already
	// at their merged size; files lists those, ascending (copy order
	// must not depend on map order); next is the highest
	// sequential-mint cursor and top the highest inode any live member
	// holds; marks is every in-flight rename mark; state is the merged
	// size state of every regular file any image read holds; member is
	// the membership epoch the members committed.
	nodes  map[kernel.InodeID]imageNode
	files  []kernel.InodeID
	next   kernel.InodeID
	top    kernel.InodeID
	marks  map[renameKey]renameMark
	state  map[kernel.InodeID]fileState
	member uint64
}

// merge folds one image's regular files into the snapshot's size state:
// a newer epoch replaces what was merged, the same epoch keeps the
// larger size, an older one is ignored — a store that missed an exact
// size set cannot resurrect the size it cut. A class never changes, so
// any image that records one other than standard is right: a stub
// (what a copy or a size fan leaves on a server outside the file's
// home) knows none.
func (snap *snapshot) merge(img *image) {
	for _, nd := range img.Nodes {
		if nd.Attr.Kind != kernel.RegularFile {
			continue
		}
		ino, epoch := nd.Attr.Ino, img.epochs[nd.Attr.Ino]
		st, ok := snap.state[ino]
		if !ok || epoch > st.epoch || epoch == st.epoch && nd.Attr.Size > st.size {
			st.size, st.epoch = nd.Attr.Size, epoch
		}
		st.layout = max(st.layout, img.layouts[ino])
		snap.state[ino] = st
	}
}

// takeSnapshot reads the authoritative metadata of the cluster from
// its live members, one OpExport each: for each inode the copy of the
// lowest-ranked live member of its namespace group (placement.nsGroup —
// sharded, the owner group; replicated, the ring, so the first live
// member in ring order keeps it) — and each regular file's merged size
// state (merge; size publishes fan everywhere, but an individual store
// may lag). own, when not nil, is a returning server's image: its
// files join the merge, not the nodes, and it may be all there is to
// merge.
func (cl *Cluster) takeSnapshot(p *sim.Proc, own *image) (*snapshot, error) {
	snap := &snapshot{nodes: make(map[kernel.InodeID]imageNode),
		marks: make(map[renameKey]renameMark), state: make(map[kernel.InodeID]fileState)}
	if own != nil {
		snap.merge(own)
	}
	rank := make(map[kernel.InodeID]int)
	for _, slot := range cl.pl.members {
		if cl.down[slot] {
			continue
		}
		img, err := cl.exportImage(p, slot)
		if err != nil {
			return nil, err
		}
		maps.Copy(snap.marks, img.marks)
		snap.next, snap.top, snap.member = max(snap.next, img.Next), max(snap.top, img.maxIno()), img.member
		snap.merge(img)
		for _, nd := range img.Nodes {
			// A stub (lazy data materialization outside the group) is
			// not authoritative: trusting one could resurrect an inode
			// its group already unlinked.
			d := cl.pl.nsRank(nd.Attr.Ino, slot)
			if d < 0 {
				continue
			}
			if prev, ok := rank[nd.Attr.Ino]; !ok || d < prev {
				snap.nodes[nd.Attr.Ino], rank[nd.Attr.Ino] = nd, d
			}
		}
	}
	if len(snap.nodes) == 0 && own == nil {
		return nil, errors.New("no live member to resync from")
	}
	for ino, nd := range snap.nodes {
		if nd.Attr.Kind == kernel.RegularFile {
			nd.Attr.Size = snap.state[ino].size
			snap.nodes[ino] = nd
			snap.files = append(snap.files, ino)
		}
	}
	slices.Sort(snap.files)
	return snap, nil
}

// carry gives img the snapshot's size epochs and layouts for every
// regular file it holds, so an import replaces the server's own.
func (snap *snapshot) carry(img *image) {
	img.soft = true
	img.epochs, img.layouts = make(map[kernel.InodeID]uint64), make(map[kernel.InodeID]LayoutClass)
	for _, nd := range img.Nodes {
		st := snap.state[nd.Attr.Ino] // zero for a directory
		if st.epoch != 0 {
			img.epochs[nd.Attr.Ino] = st.epoch
		}
		if st.layout != LayoutStandard {
			img.layouts[nd.Attr.Ino] = st.layout
		}
	}
}

// image returns what the server at ring position pos of pl must hold
// according to the snapshot, to be applied when served (stage 0) or
// at the commit of membership epoch stage. Its store takes in full
// every inode whose namespace group includes it (placement.nsRank:
// replicated, everything) and every other regular file as an
// exact-size stub (data stripes and size publishes need somewhere to
// land, like the lazy materialization of the sharded write path);
// sizes are exact, unknown inodes purged. The mint cursor only ever
// advances — per-server partitions are disjoint, so a server's
// retained cursor stays correct. Rename marks follow directory
// ownership. Every server also takes the merged size epochs and layouts
// (carry) — a member the new ring makes an inode's home learns its
// class — and the members' membership epoch.
func (snap *snapshot) image(pl placement, pos int, stage uint64) *image {
	slot := pl.members[pos]
	img := &image{stage: stage, marks: make(map[renameKey]renameMark)}
	img.Next = snap.next
	for ino, nd := range snap.nodes {
		switch {
		case pl.nsRank(ino, slot) >= 0:
			img.Nodes = append(img.Nodes, nd)
		case nd.Attr.Kind == kernel.RegularFile:
			img.Nodes = append(img.Nodes, imageNode{Attr: nd.Attr})
		}
	}
	for key, mark := range snap.marks {
		if pl.nsRank(key.dir, slot) >= 0 {
			img.marks[key] = mark
		}
	}
	snap.carry(img)
	img.member = snap.member
	return img
}

// reimage turns own — a returning server's image, the namespace its
// journal replay left — into what it must hold under placement pl:
// every regular file at the merged size, carrying the merged epochs and
// layouts; when pl shards the namespace (a store holds stubs of what
// its groups do not cover), every regular file the snapshot holds that
// own lacks joins as a stub at its size, as in image. It returns,
// ascending, the files whose epoch moved past own's and the ones own
// lacked: the runs the server holds of them are stale or missing.
func (snap *snapshot) reimage(own *image, pl placement) (moved []kernel.InodeID) {
	held := make(map[kernel.InodeID]bool, len(own.Nodes))
	for k := range own.Nodes {
		nd := &own.Nodes[k]
		held[nd.Attr.Ino] = true
		if st := snap.state[nd.Attr.Ino]; nd.Attr.Kind == kernel.RegularFile {
			nd.Attr.Size = st.size
			if own.epochs[nd.Attr.Ino] < st.epoch {
				moved = append(moved, nd.Attr.Ino)
			}
		}
	}
	for _, ino := range snap.files {
		if pl.sharded && !held[ino] {
			own.Nodes = append(own.Nodes, imageNode{Attr: snap.nodes[ino].Attr})
			moved = append(moved, ino)
		}
	}
	snap.carry(own)
	slices.Sort(moved)
	return moved
}

// exportImage reads server slot's namespace image with OpExport, a
// control-path read whose data is the image, into the staging buffer.
// A server whose transport faults is excluded.
func (cl *Cluster) exportImage(p *sim.Proc, slot int) (*image, error) {
	vec, err := cl.stage(MaxWriteChunk)
	if err != nil {
		return nil, err
	}
	resp, err := cl.sessions[slot].c.ctlData(p, OpExport, 0, 0, vec)
	var img *image
	if err == nil {
		var raw []byte
		if raw, err = cl.sessions[0].c.as.ReadBytes(cl.stageVA, int(min(resp.N, MaxWriteChunk))); err == nil {
			cl.node.CPU.Copy(p, len(raw))
			img, err = decodeImage(raw)
		}
	}
	if err != nil {
		if fabric.IsFault(err) {
			cl.markDown(slot)
		}
		return nil, fmt.Errorf("export from server %d: %w", slot, err)
	}
	return img, nil
}

// importImage ships img to server slot with OpImport, a control-path
// write whose payload is the encoded image, from the staging buffer. A
// server whose transport faults is excluded.
func (cl *Cluster) importImage(p *sim.Proc, slot int, img *image) error {
	raw, err := img.encode()
	var vec core.Vector
	if err == nil {
		vec, err = cl.stage(len(raw))
	}
	if err == nil {
		cl.node.CPU.Copy(p, len(raw))
		err = cl.sessions[0].c.as.WriteBytes(cl.stageVA, raw)
	}
	if err == nil {
		_, err = cl.sessions[slot].c.ctlData(p, OpImport, 0, 0, vec)
	}
	if err != nil {
		if fabric.IsFault(err) {
			cl.markDown(slot)
		}
		return fmt.Errorf("import to server %d: %w", slot, err)
	}
	return nil
}

// --- Membership view and operation gates ---

// MemberView is the shared, epoch-stamped membership view of an
// elastic cluster (DESIGN.md §13). Every cluster owns one from
// construction; one cluster publishes it (ShareView) and every other
// client of the same servers subscribes (AttachView); a membership
// change or a readmission then coordinates all of them: the
// operator fences new operations, waits for in-flight ones to drain,
// migrates data, commits the new geometry on the servers (OpMember),
// and bumps the epoch — subscribers adopt the new members slice at
// their next operation. Coordination relies on the simulation's
// cooperative scheduling: checks and counter updates never interleave
// within one simulated instant, so the fences need no locks.
type MemberView struct {
	epoch   uint64
	members []int

	// operator is the cluster currently driving a membership change or
	// a readmission (nil otherwise); its own traffic bypasses the fences.
	operator  *Cluster
	fenceMut  bool
	fenceAll  bool
	migrating bool

	activeData int
	activeMut  int
	pending    int

	// dirty logs data writes that completed while a migration is
	// copying stripes (clusterPending.Wait), so the operator can re-copy
	// ranges the bulk pass missed.
	dirty []viewWrite
}

type viewWrite struct {
	ino kernel.InodeID
	off int64
	n   int
}

// Epoch returns the view's current membership epoch (0 until the
// first successful change).
func (v *MemberView) Epoch() uint64 { return v.epoch }

// Members returns a copy of the view's current position→slot map.
func (v *MemberView) Members() []int {
	return append([]int(nil), v.members...)
}

// dedupeWrites collapses repeated identical ranges in a dirty batch,
// keeping first-appearance order. Safe because the drain copies live
// content: one copy per distinct range is equivalent to one per write.
func dedupeWrites(batch []viewWrite) []viewWrite {
	seen := make(map[viewWrite]struct{}, len(batch))
	out := batch[:0]
	for _, w := range batch {
		if _, dup := seen[w]; dup {
			continue
		}
		seen[w] = struct{}{}
		out = append(out, w)
	}
	return out
}

func (v *MemberView) logWrite(ino kernel.InodeID, off int64, n int) {
	if n <= 0 {
		return
	}
	if k := len(v.dirty) - 1; k >= 0 {
		if w := &v.dirty[k]; w.ino == ino && w.off+int64(w.n) == off {
			w.n += n
			return
		}
	}
	v.dirty = append(v.dirty, viewWrite{ino: ino, off: off, n: n})
}

// ShareView returns the membership view this cluster owns, for other
// clients of the same servers to attach to.
func (cl *Cluster) ShareView() *MemberView { return cl.view }

// AttachView subscribes this cluster to a shared membership view in
// place of its own: it adopts the view's members immediately and
// follows every epoch bump, and its operations take part in the
// view's fences. Call before any traffic: the view holds the
// cluster's in-flight counts.
func (cl *Cluster) AttachView(v *MemberView) {
	cl.view = v
	cl.pl.members, cl.viewEpoch = v.Members(), v.epoch
}

// SetMembers restricts the cluster's initial active membership to the
// first active session slots; the rest stand by for later Join. Call
// before any traffic and before any other cluster attaches to this
// one's view: the view restricts with it. The sharded namespace maps
// residues over all construction-time servers, so standby slots are
// only supported unsharded (placement.standby).
func (cl *Cluster) SetMembers(active int) error {
	pl, err := cl.pl.standby(active, len(cl.sessions))
	if err != nil {
		return err
	}
	cl.pl = pl
	cl.view.members = cl.Members()
	return nil
}

// Members returns a copy of the cluster's current position→slot map.
func (cl *Cluster) Members() []int {
	return append([]int(nil), cl.pl.members...)
}

// adoptView follows the view to a new epoch. The ring is replaced, never
// edited in place: a placement value handed out earlier stays what it
// was.
func (cl *Cluster) adoptView() {
	if v := cl.view; v.epoch != cl.viewEpoch {
		cl.pl.members, cl.viewEpoch = v.Members(), v.epoch
	}
}

// enterOp is the membership gate at every cluster entry point. A
// cluster that saw a membership epoch past its view's on a reply
// refuses the operation (observeResp); otherwise the gate blocks while
// the relevant fence is up, registers the operation with the view, and
// adopts any new epoch. Nested entries (Rename inside Meta) neither
// fence nor count — the outermost one already did. Returns without
// exitOp owed on error.
func (cl *Cluster) enterOp(p *sim.Proc, mut bool) error {
	cl.gateDepth++
	if cl.gateDepth > 1 {
		return nil
	}
	if cl.staleMember {
		cl.gateDepth--
		return ErrStaleMembership
	}
	v := cl.view
	if v.operator != cl {
		for v.fenceAll || (mut && v.fenceMut) {
			p.Sleep(memberFencePoll)
		}
		if mut {
			v.activeMut++
		} else {
			v.activeData++
		}
		cl.gateMut = mut
		cl.gateCounted = true
	}
	cl.adoptView()
	return nil
}

func (cl *Cluster) exitOp() {
	cl.gateDepth--
	if cl.gateDepth > 0 {
		return
	}
	if cl.gateCounted {
		cl.gateCounted = false
		if cl.gateMut {
			cl.view.activeMut--
		} else {
			cl.view.activeData--
		}
	}
}

// notePendingStart moves an async operation's gate registration from
// the active counters to the view's pending count: the Start call
// returns, but the operation stays in flight until its Wait, and a
// membership change must drain it before cutting over.
func (cl *Cluster) notePendingStart(cp *clusterPending) {
	if v := cl.view; v.operator != cl {
		v.pending++
		cp.gated = true
	}
}

func (cl *Cluster) notePendingDone(cp *clusterPending) {
	if cp.gated {
		cp.gated = false
		cl.view.pending--
	}
}

// --- Join / Retire / Bounce ---

// membersUp is the fail-closed rule of membership changes: no member
// of the geometries involved may be excluded — an excluded server can
// neither serve as a migration source nor receive what the new
// placement assigns it, so a change that went on without it would
// commit a geometry with holes. It holds when a change begins and must
// still hold at its cutover.
func (cl *Cluster) membersUp(lists ...[]int) error {
	for _, list := range lists {
		for _, slot := range list {
			if cl.down[slot] {
				return fmt.Errorf("rfsrv: membership change: server %d is excluded; reinstate it first", slot)
			}
		}
	}
	return nil
}

// beginChange validates one or more prospective member lists and
// claims the view for this cluster as operator; release gives it back.
func (cl *Cluster) beginChange(lists ...[]int) (*MemberView, error) {
	v := cl.view
	for _, next := range lists {
		if len(next) < cl.pl.replicas {
			return nil, fmt.Errorf("rfsrv: membership change: %d members < replication factor %d", len(next), cl.pl.replicas)
		}
		seen := make(map[int]bool, len(next))
		for _, slot := range next {
			if slot < 0 || slot >= len(cl.sessions) {
				return nil, fmt.Errorf("rfsrv: membership change: no session slot %d", slot)
			}
			if seen[slot] {
				return nil, fmt.Errorf("rfsrv: membership change: slot %d listed twice", slot)
			}
			seen[slot] = true
		}
	}
	if err := cl.membersUp(append(lists, cl.pl.members)...); err != nil {
		return nil, err
	}
	if v.operator != nil && v.operator != cl {
		return nil, errors.New("rfsrv: membership change already in progress")
	}
	v.operator = cl
	return v, nil
}

// release ends the operator's claim and lifts every fence.
func (v *MemberView) release() {
	v.operator = nil
	v.fenceMut, v.fenceAll, v.migrating = false, false, false
	v.dirty = nil
}

// Join admits session slot into the membership at the end of the
// placement order, migrating data to its new replica sets under load
// before the epoch cutover (change): reads and writes keep flowing
// through the old placement while stripes copy, a dirty log catches
// racing writes, and only the cutover briefly fences everything. A
// member found excluded during the change fails it with the old
// geometry intact (membersUp); Reinstate it and retry.
func (cl *Cluster) Join(p *sim.Proc, slot int) error {
	if cl.pl.pos(slot) >= 0 {
		return fmt.Errorf("rfsrv: join: slot %d is already a member", slot)
	}
	return cl.changeMembers(p, append(cl.Members(), slot))
}

// Retire removes session slot from the membership, re-placing the
// stripes and directory slices it held onto the remaining members
// before the epoch cutover (the same online change as Join). The
// retiree must be alive: its data is a migration source.
func (cl *Cluster) Retire(p *sim.Proc, slot int) error {
	pos := cl.pl.pos(slot)
	if pos < 0 {
		return fmt.Errorf("rfsrv: retire: slot %d is not a member", slot)
	}
	return cl.changeMembers(p, slices.Delete(cl.Members(), pos, pos+1))
}

// Bounce retires and immediately re-admits member slot inside one
// full fence window: the membership epoch advances twice, every stripe
// and directory slice leaves the slot and comes back, and no client
// ever issues an operation against the interim geometry. The torture
// harness uses it as the membership-change event whose final placement
// the oracle can still predict.
func (cl *Cluster) Bounce(p *sim.Proc, slot int) error {
	pos := cl.pl.pos(slot)
	if pos < 0 {
		return fmt.Errorf("rfsrv: bounce: slot %d is not a member", slot)
	}
	return cl.changeMembers(p, slices.Delete(cl.Members(), pos, pos+1), cl.Members())
}

// changeMembers claims the view for the member lists and changes the
// membership to each in turn. More than one list fences everything
// for the whole walk, so no client sees an interim geometry.
func (cl *Cluster) changeMembers(p *sim.Proc, lists ...[]int) error {
	v, err := cl.beginChange(lists...)
	if err != nil {
		return err
	}
	defer v.release()
	if len(lists) > 1 {
		v.fence(p, cl)
	}
	for _, members := range lists {
		if err := cl.change(p, v, members); err != nil {
			return err
		}
	}
	return nil
}

// fence is the view's full fence: op becomes the operator — once
// another cluster's change or readmission is over — every other
// client's new operations block, and fence waits until none is in
// flight: active, or started and not yet waited for.
func (v *MemberView) fence(p *sim.Proc, op *Cluster) {
	for v.operator != nil && v.operator != op {
		p.Sleep(memberFencePoll)
	}
	v.operator, v.fenceAll = op, true
	for v.activeData+v.activeMut+v.pending > 0 {
		p.Sleep(memberFencePoll)
	}
}

// commitMember is the cutover's wire half: once membersUp confirms
// that nobody of either geometry was excluded along the way, it fans
// OpMember to every slot of next (in position order), which applies the
// image staged there for epoch, and an epoch-only stamp to retirees
// (position n of n: a stamp applies no image), so every server's
// replies carry the new membership epoch — and, sharded, the new
// ownership geometry and a minting partition past floor.
func (cl *Cluster) commitMember(p *sim.Proc, old, next placement, epoch uint64, floor kernel.InodeID) error {
	if err := cl.membersUp(old.members, next.members); err != nil {
		return err
	}
	send := func(what string, slot int, geometry uint32) error {
		resp, err := cl.syncMeta(p, slot, &Req{Op: OpMember, Ino: floor, Off: int64(epoch), Len: geometry})
		if err == nil {
			err = ErrOf(resp.Status)
		}
		if err != nil {
			return fmt.Errorf("%s server %d: %w", what, slot, err)
		}
		return nil
	}
	n := len(next.members)
	for pos, slot := range next.members {
		if err := send("commit membership on", slot, PackMember(pos, n, next.replicas, next.sharded)); err != nil {
			return err
		}
	}
	for _, slot := range old.members {
		if next.pos(slot) < 0 {
			if err := send("stamp retiring", slot, PackMember(n, n, next.replicas, false)); err != nil {
				return err
			}
		}
	}
	return nil
}

// flipView publishes the committed geometry: the view moves to next at
// epoch and this cluster adopts it (subscribers follow at their next
// operation).
func (cl *Cluster) flipView(next placement, epoch uint64) {
	cl.view.members, cl.view.epoch = next.members, epoch
	cl.adoptView()
}

// change is the one membership change, the same for both namespaces:
// it moves the cluster from its current geometry to members. Mutations
// fence for the duration (the namespace and file set freeze), but the
// data path stays live — stripes copy to their new replica sets through
// ordinary striped reads and direct writes while client reads and
// writes keep flowing through the old placement, a dirty log re-copies
// ranges written mid-migration, and only the cutover briefly fences
// everything. Nothing commits before the copy is complete and every
// member's cutover image is staged, and every copy is additive below
// its file's size, so a fault anywhere before the commit fails the
// change with every server's member epoch, the view and every byte a
// client reads as they were.
func (cl *Cluster) change(p *sim.Proc, v *MemberView, members []int) error {
	old, next := cl.pl, cl.pl.withMembers(members)

	// 1. Freeze the namespace.
	v.fenceMut = true
	for v.activeMut > 0 {
		p.Sleep(memberFencePoll)
	}

	// 2. Snapshot the frozen namespace and seed the joiners with it,
	// trimming any stale state a re-joining slot kept from an earlier
	// tenure: an unsharded store needs the namespace before stripes
	// land, a sharded one would materialize it on demand. The mint floor
	// is read first — past anything any affected store ever assigned, a
	// joiner's stale state included — and stays valid: nothing mints
	// while mutations are fenced.
	snap, err := cl.takeSnapshot(p, nil)
	if err != nil {
		return err
	}
	floor := max(snap.next-1, snap.top)
	for pos, slot := range next.members {
		if old.pos(slot) >= 0 {
			continue
		}
		stale, err := cl.exportImage(p, slot)
		if err != nil {
			return err
		}
		floor = max(floor, stale.maxIno())
		if err := cl.importImage(p, slot, snap.image(next, pos, 0)); err != nil {
			return err
		}
	}

	// 3. Copy the delta under load, then chase the dirty log while the
	// data path is still live. Each batch is deduplicated first:
	// migrateRange copies the file's CURRENT content, so one copy per
	// distinct range per batch lands the same bytes as one per write —
	// under heavy load the same hot stripe is redirtied thousands of
	// times per pass, and re-copying every entry would multiply
	// migration traffic by that factor.
	v.migrating = true
	// A file's class never changes and nothing is created while
	// mutations are fenced, so the first snapshot's classes hold for
	// every file the migration and the dirty log can name.
	lays := snap.state
	for _, ino := range snap.files {
		if err := cl.migrateRange(p, ino, lays[ino].layout, 0, snap.nodes[ino].Attr.Size, old, next); err != nil {
			return err
		}
	}
	drain := func() error {
		batch := dedupeWrites(v.dirty)
		v.dirty = nil
		for _, w := range batch {
			if err := cl.migrateRange(p, w.ino, lays[w.ino].layout, w.off, int64(w.n), old, next); err != nil {
				return err
			}
		}
		return nil
	}
	for pass := 0; len(v.dirty) > 0 && pass < 16; pass++ {
		if err := drain(); err != nil {
			return err
		}
	}

	// 4. Fence everything, quiesce, drain the final delta.
	v.fence(p, cl)
	for len(v.dirty) > 0 {
		if err := drain(); err != nil {
			return err
		}
	}

	// 5. Snapshot again — sizes grew under load since step 2 — and
	// stage every member of next's re-image from it: a joiner, which saw
	// none of the size publishes during the copy and can be an inode's
	// metadata home now, takes exact global sizes; sharded, every member
	// takes the namespace its new owner groups cover.
	if snap, err = cl.takeSnapshot(p, nil); err != nil {
		return err
	}
	epoch := v.epoch + 1
	for pos, slot := range next.members {
		if err := cl.importImage(p, slot, snap.image(next, pos, epoch)); err != nil {
			return err
		}
	}

	// 6. Commit the new geometry on every affected server, which applies
	// the staged images, and flip the view.
	if err := cl.commitMember(p, old, next, epoch, floor); err != nil {
		return err
	}
	cl.flipView(next, epoch)
	return nil
}

// migrateRange copies [off, off+n) of a file of class lay to the slots
// that hold it under next but not under the authoritative old geometry
// (old.delta), one fragment at a time through the wire copier — real
// simulated traffic competing with client load. An excluded target
// fails the change before its fragment is read (membersUp): skipping it
// would leave a hole the cutover then commits.
func (cl *Cluster) migrateRange(p *sim.Proc, ino kernel.InodeID, lay LayoutClass, off, n int64, old, next placement) error {
	for _, mv := range old.delta(next, lay, ino, off, n) {
		if err := cl.membersUp(mv.to); err != nil {
			return err
		}
		if err := cl.copyRange(p, ino, mv.off, mv.n, mv.to, &cl.Migrated); err != nil {
			return err
		}
	}
	return nil
}
