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
// journaled dirty ranges; a journal that outgrew its bounds spills to
// a full-slice resync instead. (2) Live join/leave: Join, Retire
// and Bounce replace the placement's member ring under a shared
// MemberView through one change (change), the same in both namespaces:
// placement.delta — the stripes the new ring assigns to slots that
// lack them — migrates online under load, the new geometry commits on
// every server with OpMember so replies stamp the new membership
// epoch, and every member of the new ring is re-imaged from a snapshot
// taken at the cutover. Changes fail closed: an excluded member of
// either geometry fails the change rather than being skipped
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

// SetJournalLimits bounds the per-excluded-server resync journal: at
// most ops mutations and bytes dirty data bytes (0 keeps the current
// value; the defaults are DefaultJournalOps/DefaultJournalBytes).
// Past either bound the journal spills: recording stops and the next
// Reinstate performs a full-slice resync.
func (cl *Cluster) SetJournalLimits(ops int, bytes int64) { cl.jn.limit(ops, bytes) }

// JournalSpilled reports whether server slot i's resync journal
// overflowed its bounds, so the next Reinstate will need the
// full-slice resync path.
func (cl *Cluster) JournalSpilled(i int) bool { return cl.jn.slot(i).spilled }

// journalMut records one missed mutation in excluded slot i's journal.
func (cl *Cluster) journalMut(i int, req Req, wantIno kernel.InodeID) {
	if cl.jn.record(i, req, wantIno) {
		cl.ResyncSpills.Add(0)
	}
}

// journalSpan records a mutation fanned to the span ring positions
// starting at pos in the journal of every excluded slot among them.
// Call sites invoke the hooks unconditionally: the request travels by
// value, so with nobody excluded the walk finds nothing and allocates
// nothing.
func (cl *Cluster) journalSpan(pos, span int, req Req, wantIno kernel.InodeID) {
	for j := 0; j < span; j++ {
		if i := cl.pl.slot(pos, j); cl.down[i] {
			cl.journalMut(i, req, wantIno)
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

// journalDirty records that [off, off+n) of ino was written while
// slot i was excluded.
func (cl *Cluster) journalDirty(i int, ino kernel.InodeID, off int64, n int) {
	if cl.jn.dirty(i, ino, off, n) {
		cl.ResyncSpills.Add(0)
	}
}

// journalRunDirty records a data write's byte ranges against every
// excluded replica of its runs. Called once per write after the fan,
// with the same run decomposition the write used, so the dirty map
// covers exactly the stripes each excluded server would have held.
func (cl *Cluster) journalRunDirty(ino kernel.InodeID, runs []run) {
	for _, r := range runs {
		for j := 0; j < cl.pl.replicas; j++ {
			if i := cl.pl.slot(r.owner, j); cl.down[i] {
				cl.journalDirty(i, ino, r.off, r.n)
			}
		}
	}
}

// Reinstate re-admits server slot i after its transport heals, under
// the view's full fence (a viewless cluster takes none: it must be the
// only writer of its files' sizes while it reinstates). The fence
// drains every started operation, so the caller waits its own pending
// ones first, as for a membership change. A bounded
// journal readmits in one order (replayJournal): the namespace verbs
// replay, the server's regular files are re-imaged at the newest-epoch
// merge of the live members' sizes and its own, its runs of every file
// whose epoch moved are re-copied, then the journaled dirty ranges —
// all real simulated traffic. A spilled journal takes a
// full-slice resync instead, counted in ReinstateRefusals: the
// namespace image and then every stripe the server holds, both over the
// wire. A readmission that fails (transport fault mid-copy, or a
// divergence the idempotent verbs cannot reconcile) leaves the server
// excluded with the journal intact (or still spilled), so the caller can
// heal the fault and call Reinstate again; every step is idempotent, so
// the retry re-runs it all safely. The size book keeps every entry: a
// readmitted server holds the newest sizes, so every floor set while it
// was out holds for it too.
func (cl *Cluster) Reinstate(p *sim.Proc, i int) error {
	if i < 0 || i >= len(cl.sessions) {
		return fmt.Errorf("rfsrv: reinstate server %d: no such server", i)
	}
	if !cl.down[i] {
		return nil
	}
	if v := cl.view; v != nil {
		v.fence(p, cl)
		defer v.release()
	}
	if j := cl.jn.slot(i); j.spilled {
		cl.ReinstateRefusals.Add(0)
		if err := cl.fullResync(p, i); err != nil {
			return fmt.Errorf("rfsrv: reinstate server %d: full-slice resync: %w", i, err)
		}
	} else if err := cl.replayJournal(p, i, j); err != nil {
		return fmt.Errorf("rfsrv: reinstate server %d: %w", i, err)
	}
	cl.Reinstates.Add(0)
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
	moved := snap.reimage(own)
	if err := cl.importImage(p, i, own); err != nil {
		return err
	}
	for _, ino := range moved {
		if err := cl.copyHeld(p, i, ino, snap.state[ino]); err != nil {
			return err
		}
	}
	for _, ino := range j.order {
		for _, r := range j.dirty[ino] {
			// The re-image already gave i the authoritative size, so a
			// range the file has since shrunk out of is simply not copied.
			if err := cl.copyRange(p, ino, r.off, r.n, []int{i}, &cl.ResyncBytes); err != nil {
				return fmt.Errorf("replay data %d@[%d,%d): %w", ino, r.off, r.off+int64(r.n), err)
			}
		}
	}
	return nil
}

// copyHeld re-copies to slot i, through copyRange, every run of a file
// that i holds under the file's layout — the per-file copy of a
// full-slice resync and of a re-image whose epoch moved.
func (cl *Cluster) copyHeld(p *sim.Proc, i int, ino kernel.InodeID, st fileState) error {
	for _, r := range cl.pl.runs(st.layout, ino, 0, int(st.size), nil) {
		if !cl.pl.holds(i, r.owner) {
			continue
		}
		if err := cl.copyRange(p, ino, r.off, r.n, []int{i}, &cl.ResyncBytes); err != nil {
			return err
		}
	}
	return nil
}

// replayOps replays the journaled namespace mutations in order. The
// fast path packs the whole journal into combined MetaBatch flights, so
// a long exclusion replays in a handful of wire rounds instead of one
// serial round trip per op (the server applies a combined flight on
// one worker, strictly in order, so journal order is preserved).
// Statuses are interpreted with the serial path's tolerance rules; a
// status that needs a verification lookup (the server already held a
// prefix of the journal) abandons the batch and re-runs the whole
// journal serially — replay is idempotent, so the re-run is safe and
// the lookups interleave exactly where they are needed.
func (cl *Cluster) replayOps(p *sim.Proc, i int, j *resyncJournal) error {
	if len(j.ops) == 0 {
		return nil
	}
	fallback, err := cl.replayOpsBatched(p, i, j)
	if err != nil {
		return err
	}
	if !fallback {
		addN(&cl.ResyncOps, len(j.ops))
		return nil
	}
	cl.ResyncFallbacks.Add(0)
	for k := range j.ops {
		op := &j.ops[k]
		if err := cl.replayOp(p, i, op, j.ops[k+1:]); err != nil {
			return fmt.Errorf("replay op %d/%d (%s): %w", k+1, len(j.ops), opNames[op.req.Op], err)
		}
		cl.ResyncOps.Add(0)
	}
	return nil
}

// replayOpsBatched issues the whole journal as combined metadata
// batches against server i and interprets the per-op statuses
// (replayVerdict). It returns fallback=true (and no error) when some
// status requires the serial path's verification lookups; transport
// failures and non-tolerated statuses are errors exactly as on the
// serial path — the journal stays intact for a Reinstate retry.
func (cl *Cluster) replayOpsBatched(p *sim.Proc, i int, j *resyncJournal) (fallback bool, err error) {
	reqs := make([]*Req, len(j.ops))
	for k := range j.ops {
		req := j.ops[k].req // copy: issuing stamps Seq/EP into the request
		reqs[k] = &req
	}
	// Like replayRT, transport-level failures (fault, timeout, decode)
	// abort the replay; application statuses ride in the responses for
	// the verdicts below to interpret.
	resps, err := cl.sessions[i].MetaBatch(p, reqs)
	if err != nil && fabric.IsFault(err) {
		return false, err
	}
	for k, resp := range resps {
		if resp == nil {
			return false, err
		}
		op := &j.ops[k]
		verify, err := replayVerdict(op, resp)
		if err != nil {
			return false, fmt.Errorf("replay op %d/%d (%s): %w", k+1, len(j.ops), opNames[op.req.Op], err)
		}
		if verify != nil {
			return true, nil
		}
	}
	// A tolerated status in one flight ends MetaBatch before the later
	// flights leave: the serial path replays them.
	return len(resps) != len(reqs), nil
}

// entryCheck is the verification a replay verdict can ask for: (dir,
// name) must resolve to want on the returning server.
type entryCheck struct {
	dir  kernel.InodeID
	name string
	want kernel.InodeID
}

// replayVerdict is the one per-opcode status tolerance table of journal
// replay, shared by the batched and the serial path: replay lives on
// tolerating the statuses an already-applied prefix of the journal
// produces. A non-nil verify means the status says "already applied"
// in a way only a lookup can confirm — the batched path falls back to
// the serial one, which performs the lookup in journal order. Reads
// and lookups are never journaled; writes resync through dirty
// ranges; size verbs (SetSize, Truncate, SetLayout) through the
// re-image, which carries sizes, epochs and layouts as state;
// RenamePrepare is always resolved to Finalize or Abort before it is
// journaled; membership commits and images move only in membership
// changes and full-slice resyncs.
func replayVerdict(op *journalOp, resp *Resp) (verify *entryCheck, err error) {
	req := &op.req
	//analyze:dispatch ops -OpLookup -OpGetattr -OpReaddir -OpRead -OpWrite -OpSetSize -OpTruncate -OpSetLayout -OpRenamePrepare -OpMember -OpExport -OpImport
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

// replayRT is one replay round trip to server i: transport-level
// failures (fault, timeout, decode) abort the replay; application
// statuses come back for the caller to interpret.
func (cl *Cluster) replayRT(p *sim.Proc, i int, req *Req) (*Resp, error) {
	resp, err := cl.syncMeta(p, i, req)
	if err != nil && (resp == nil || fabric.IsFault(err)) {
		return nil, err
	}
	return resp, nil
}

// replayOp is the serial replay of one journaled op: the same requests
// and the same verdict as the batched path, with the verification
// lookup a verdict asks for performed in place — unless an op later in
// the journal rebinds the entry: a server that already applied it
// proves nothing about this one.
func (cl *Cluster) replayOp(p *sim.Proc, i int, op *journalOp, later []journalOp) error {
	req := op.req // copy: issuing stamps Seq/EP into the request
	resp, err := cl.replayRT(p, i, &req)
	if err != nil {
		return err
	}
	verify, err := replayVerdict(op, resp)
	if err != nil || verify == nil || verify.rebound(later) {
		return err
	}
	return cl.verifyEntry(p, i, verify.dir, verify.name, verify.want)
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

// verifyEntry checks that (dir, name) resolves to want on server i —
// the convergence check after a replayed mutation reports it was
// already applied.
func (cl *Cluster) verifyEntry(p *sim.Proc, i int, dir kernel.InodeID, name string, want kernel.InodeID) error {
	if want == 0 {
		return nil
	}
	look := Req{Op: OpLookup, Ino: dir, Name: name}
	resp, err := cl.replayRT(p, i, &look)
	if err != nil {
		return err
	}
	if resp.Status != StOK {
		return fmt.Errorf("verify %q after replay: %w", name, ErrOf(resp.Status))
	}
	if resp.Attr.Ino != want {
		return fmt.Errorf("verify %q after replay: resolves to inode %d, cluster holds %d: server diverged", name, resp.Attr.Ino, want)
	}
	return nil
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
		vec, err := cl.stagingVec(want)
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
			wresp, err := cl.sessions[slot].c.ctlWrite(p, ino, off, vec.Slice(0, got))
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
// A full-slice resync, a readmission's re-image and a membership change
// move namespace metadata the same way: one snapshot of the live
// members, each read with OpExport, and from it the exact image of
// every ring position to rebuild (snapshot.image, snapshot.reimage),
// shipped with OpImport. Data stripes follow through copyRange. All
// ride the wire's data legs, so they cost simulated time and a fault
// anywhere in them fails the operation.

// fileState is a regular file's size state as the snapshot merged it:
// the newest size epoch any image holds, the largest size held at that
// epoch, and that epoch's layout class.
type fileState struct {
	size   int64
	epoch  uint64
	layout LayoutClass
}

// snapshot is the cluster's authoritative namespace state, read from
// its live members.
type snapshot struct {
	sharded bool // the namespace is sharded: a member holds only what its owner groups cover

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
// size set cannot resurrect the size it cut.
func (snap *snapshot) merge(img *image) {
	for _, nd := range img.Nodes {
		ino, epoch := nd.Attr.Ino, img.epochs[nd.Attr.Ino]
		st, ok := snap.state[ino]
		if nd.Attr.Kind == kernel.RegularFile && (!ok || epoch > st.epoch || epoch == st.epoch && nd.Attr.Size > st.size) {
			snap.state[ino] = fileState{size: nd.Attr.Size, epoch: epoch, layout: img.layouts[ino]}
		}
	}
}

// takeSnapshot reads the authoritative metadata of the cluster from
// its live members, one OpExport each: for each inode the owning copy —
// sharded, the lowest-ranked live replica of its owner group;
// replicated, the first live member's, whose namespace is everyone's —
// and each regular file's merged size state (merge; size publishes fan
// everywhere, but an individual store may lag). own, when not nil, is a
// returning server's image: its files join the merge, not the nodes,
// and it may be all there is to merge.
func (cl *Cluster) takeSnapshot(p *sim.Proc, own *image) (*snapshot, error) {
	snap := &snapshot{sharded: cl.sharded, nodes: make(map[kernel.InodeID]imageNode),
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
		if !cl.sharded && len(snap.nodes) > 0 {
			continue // replicated: the first live member's namespace is everyone's
		}
		for _, nd := range img.Nodes {
			d := 0
			if cl.sharded {
				// A non-owner stub (lazy data materialization) is not
				// authoritative: trusting one could resurrect an inode
				// its owner group already unlinked.
				if d = cl.pl.rank(cl.pl.residue(nd.Attr.Ino), slot); d < 0 {
					continue
				}
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
// at the commit of membership epoch stage. Its store takes, in a
// sharded namespace, the inodes its owner groups cover in full and
// every other regular file as an exact-size stub (data stripes and
// size publishes need somewhere to land, like the lazy materialization
// of the sharded write path), and in a replicated one everything;
// sizes are exact, unknown inodes purged. The mint cursor only ever
// advances — per-server partitions are disjoint, so a server's
// retained cursor stays correct. Rename marks follow directory
// ownership. A fresh server — one the snapshot was not read from —
// also takes the merged size epochs and layouts (carry) and the
// members' membership epoch.
func (snap *snapshot) image(pl placement, pos int, fresh bool, stage uint64) *image {
	slot := pl.members[pos]
	img := &image{stage: stage, marks: make(map[renameKey]renameMark)}
	img.Next = snap.next
	for ino, nd := range snap.nodes {
		switch {
		case !snap.sharded || pl.holds(slot, pl.residue(ino)):
			img.Nodes = append(img.Nodes, nd)
		case nd.Attr.Kind == kernel.RegularFile:
			img.Nodes = append(img.Nodes, imageNode{Attr: nd.Attr})
		}
	}
	for key, mark := range snap.marks {
		if !snap.sharded || pl.holds(slot, pl.residue(key.dir)) {
			img.marks[key] = mark
		}
	}
	if fresh {
		snap.carry(img)
		img.member = snap.member
	}
	return img
}

// reimage turns own — a returning server's image, the namespace its
// journal replay left — into what it must hold: every regular file at
// the merged size, carrying the merged epochs and layouts; sharded,
// every regular file the snapshot holds that own lacks joins as a stub
// at its size, as in image. It returns, ascending, the files whose
// epoch moved past own's and the ones own lacked: the runs the server
// holds of them are stale or missing.
func (snap *snapshot) reimage(own *image) (moved []kernel.InodeID) {
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
		if snap.sharded && !held[ino] {
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
	vec, err := cl.stagingVec(MaxWriteChunk)
	if err != nil {
		return nil, err
	}
	resp, err := cl.sessions[slot].c.ctlData(p, OpExport, 0, 0, vec)
	var img *image
	if err == nil {
		var raw []byte
		if raw, err = cl.sessions[0].c.as.ReadBytes(cl.migVA, int(min(resp.N, MaxWriteChunk))); err == nil {
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
		vec, err = cl.stagingVec(len(raw))
	}
	if err == nil {
		cl.node.CPU.Copy(p, len(raw))
		err = cl.sessions[0].c.as.WriteBytes(cl.migVA, raw)
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

// fullResync rebuilds excluded member slot i from the live members —
// the fallback when its resync journal spilled: its image from the
// snapshot, applied when served, then every run it holds of every file,
// under the file's layout, re-copied over the wire (copyHeld). The image
// goes first because the slot stays excluded until the copy succeeds:
// no client reads it in between, and a fault in either leaves it
// excluded and spilled for the next Reinstate to redo both.
func (cl *Cluster) fullResync(p *sim.Proc, i int) error {
	pos := cl.pl.pos(i)
	if pos < 0 {
		return fmt.Errorf("server %d is not a member", i)
	}
	snap, err := cl.takeSnapshot(p, nil)
	if err != nil {
		return err
	}
	if err := cl.importImage(p, i, snap.image(cl.pl, pos, true, 0)); err != nil {
		return err
	}
	for _, ino := range snap.files {
		if err := cl.copyHeld(p, i, ino, snap.state[ino]); err != nil {
			return err
		}
	}
	return nil
}

// --- Membership view and operation gates ---

// MemberView is the shared, epoch-stamped membership view of an
// elastic cluster (DESIGN.md §13). One cluster publishes it
// (ShareView) and every other client of the same servers subscribes
// (AttachView); a membership change then coordinates all of them: the
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

// ShareView publishes this cluster's membership as a shared view for
// other clients of the same servers to attach to, and subscribes this
// cluster to it. Membership changes (Join/Retire/Bounce) require a
// view even with a single client.
func (cl *Cluster) ShareView() *MemberView {
	v := &MemberView{epoch: cl.viewEpoch, members: cl.Members()}
	cl.view = v
	return v
}

// AttachView subscribes this cluster to a shared membership view: it
// adopts the view's members immediately and follows every epoch bump,
// and its operations participate in membership-change fencing.
func (cl *Cluster) AttachView(v *MemberView) {
	cl.view = v
	cl.pl.members, cl.viewEpoch = v.Members(), v.epoch
}

// SetMembers restricts the cluster's initial active membership to the
// first active session slots; the rest stand by for later Join. Call
// before any traffic and before any other cluster attaches to this
// one's view: the view restricts with it. The sharded namespace maps
// residues over all construction-time servers, so standby slots are
// only supported unsharded.
func (cl *Cluster) SetMembers(active int) error {
	if cl.sharded {
		return errors.New("rfsrv: SetMembers: sharded clusters enumerate all sessions as members")
	}
	if active < cl.pl.replicas || active > len(cl.sessions) {
		return fmt.Errorf("rfsrv: SetMembers: %d outside %d..%d", active, cl.pl.replicas, len(cl.sessions))
	}
	cl.pl.members = cl.pl.members[:active]
	if v := cl.view; v != nil {
		v.members = cl.Members()
	}
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
	if v := cl.view; v != nil && v.epoch != cl.viewEpoch {
		cl.pl.members, cl.viewEpoch = v.Members(), v.epoch
	}
}

// enterOp is the membership gate at every cluster entry point. With
// no view it only enforces staleness (a viewless cluster that saw a
// newer membership epoch on a reply refuses further operations);
// with one it blocks while the relevant fence is up, registers the
// operation with the view, and adopts any new epoch. Nested entries
// (Rename inside Meta) neither fence nor count — the outermost one
// already did. Returns without exitOp owed on error.
func (cl *Cluster) enterOp(p *sim.Proc, mut bool) error {
	cl.gateDepth++
	if cl.gateDepth > 1 {
		return nil
	}
	v := cl.view
	if v == nil {
		if cl.staleMember {
			cl.gateDepth--
			return ErrStaleMembership
		}
		return nil
	}
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
	if v := cl.view; v != nil && v.operator != cl {
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
	if v == nil {
		return nil, errors.New("rfsrv: membership change: no shared view (ShareView first)")
	}
	if cl.policyOn {
		return nil, errors.New("rfsrv: membership change under an adaptive layout policy is not supported")
	}
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
// racing writes, and only the cutover briefly fences everything.
// Requires a shared view (ShareView/AttachView). A member found
// excluded during the change fails it with the old geometry intact
// (membersUp); Reinstate it and retry.
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
		if err := send("commit membership on", slot, PackMember(pos, n, next.replicas, cl.sharded)); err != nil {
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
		if err := cl.importImage(p, slot, snap.image(next, pos, true, 0)); err != nil {
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
	for _, ino := range snap.files {
		if err := cl.migrateRange(p, ino, 0, snap.nodes[ino].Attr.Size, old, next); err != nil {
			return err
		}
	}
	drain := func() error {
		batch := dedupeWrites(v.dirty)
		v.dirty = nil
		for _, w := range batch {
			if err := cl.migrateRange(p, w.ino, w.off, int64(w.n), old, next); err != nil {
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
		if err := cl.importImage(p, slot, snap.image(next, pos, old.pos(slot) < 0, epoch)); err != nil {
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

// migrateRange copies [off, off+n) of a file to the slots that hold it
// under next but not under the authoritative old geometry (old.delta),
// one stripe fragment at a time through the wire copier — real
// simulated traffic competing with client load. An excluded target
// fails the change before its fragment is read (membersUp): skipping it
// would leave a hole the cutover then commits.
func (cl *Cluster) migrateRange(p *sim.Proc, ino kernel.InodeID, off, n int64, old, next placement) error {
	for _, mv := range old.delta(next, off, n) {
		if err := cl.membersUp(mv.to); err != nil {
			return err
		}
		if err := cl.copyRange(p, ino, mv.off, mv.n, mv.to, &cl.Migrated); err != nil {
			return err
		}
	}
	return nil
}
