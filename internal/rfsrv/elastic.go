// Elastic membership (DESIGN.md §13): the layer that turns the
// cluster's construction-time server set into a mutable, epoch-stamped
// membership view. Two mechanisms live here. (1) Journaled resync:
// while a server is excluded, the cluster records the namespace
// mutations, exact size sets, layout changes, and data-stripe writes
// the server misses in a per-slot journal (placement says which slots
// a mutation was meant for; the hooks record it against the excluded
// ones); Reinstate replays the journal — idempotently, on the
// grow-only/exact OpSetSize and fan-out semantics the protocol already
// has — instead of refusing, and spills to a full-slice resync when
// the journal outgrows its bounds. (2) Live join/leave: Join/Retire
// replace the placement's member ring under a shared MemberView,
// migrating placement.delta — the stripes the new ring assigns to
// slots that lack them — online under load in the unsharded cluster,
// stop-world in the sharded one, and committing the new geometry on
// every server with OpMember so replies stamp the new membership
// epoch. Changes fail closed: an excluded member of either geometry
// fails the change rather than being skipped (membersUp).
//
// Journals and the bulk channel (one section below: snapshot, rebuild,
// copyStripes — the only code that touches servers other than over the
// wire) are host-level bookkeeping: they cost no simulated time and
// allocate nothing on the fault-free path, so a static-membership
// cluster stays bit-identical. Everything a *returning or joining
// server* is sent during replay and online migration, by contrast, is
// real simulated traffic through the ordinary request path, competing
// with live load.
package rfsrv

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/memfs"
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
// Reinstate performs a full-slice resync through the peers wired with
// SetResyncPeers.
func (cl *Cluster) SetJournalLimits(ops int, bytes int64) { cl.jn.limit(ops, bytes) }

// SetResyncPeers hands the cluster direct handles to its servers, in
// session-slot order, modeling the out-of-band bulk channel a real
// deployment would use for full-slice resync and membership-change
// store rebuilds. Without peers, a spilled journal makes Reinstate
// refuse (legacy behavior), and Join/Retire are unavailable.
func (cl *Cluster) SetResyncPeers(servers []*Server) error {
	if len(servers) != len(cl.sessions) {
		return fmt.Errorf("rfsrv: %d resync peers for %d sessions", len(servers), len(cl.sessions))
	}
	cl.peers = servers
	return nil
}

// JournalSpilled reports whether server slot i's resync journal
// overflowed its bounds, so the next Reinstate will need the
// full-slice resync path (and will refuse without resync peers).
func (cl *Cluster) JournalSpilled(i int) bool { return cl.jn.slot(i).spilled }

// JournalOps returns how many mutations server slot i's resync
// journal currently holds (0 when the server is up or nothing was
// missed).
func (cl *Cluster) JournalOps(i int) int { return len(cl.jn.slot(i).ops) }

// JournalBytes returns how many dirty data bytes server slot i's
// resync journal currently holds (0 when the server is up, nothing
// was missed, or the journal spilled).
func (cl *Cluster) JournalBytes(i int) int64 { return cl.jn.slot(i).bytes }

// journalMut records one missed mutation in excluded slot i's journal.
func (cl *Cluster) journalMut(i int, req Req, wantIno kernel.InodeID, wantEpoch uint64) {
	if cl.jn.record(i, req, wantIno, wantEpoch) {
		cl.ResyncSpills.Add(0)
	}
}

// journalSpan records a mutation fanned to the span ring positions
// starting at pos in the journal of every excluded slot among them.
// Call sites invoke the hooks unconditionally: the request travels by
// value, so with nobody excluded the walk finds nothing and allocates
// nothing.
func (cl *Cluster) journalSpan(pos, span int, req Req, wantIno kernel.InodeID, wantEpoch uint64) {
	for j := 0; j < span; j++ {
		if i := cl.pl.slot(pos, j); cl.down[i] {
			cl.journalMut(i, req, wantIno, wantEpoch)
		}
	}
}

// journalMutationAll records a mutation fanned to every member (the
// unsharded hook).
func (cl *Cluster) journalMutationAll(req Req, wantIno kernel.InodeID, wantEpoch uint64) {
	cl.journalSpan(0, len(cl.pl.members), req, wantIno, wantEpoch)
}

// journalGroup records a mutation fanned to owner position's replica
// group (the sharded hook). The request must be the idempotent
// per-server verb the fan actually delivered (OpLink, OpUnlink,
// OpScrub, ...), not the client-facing operation.
func (cl *Cluster) journalGroup(owner int, req Req, wantIno kernel.InodeID, wantEpoch uint64) {
	cl.journalSpan(owner, cl.pl.replicas, req, wantIno, wantEpoch)
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

// Reinstate re-admits server slot i after its transport heals. What
// ran during the exclusion decides the path: nothing → plain
// re-admission; a bounded amount → the resync journal is replayed
// against the returning server (namespace mutations in order with
// size epochs aligned via OpSyncEpoch, then missed data stripes
// re-read from live replicas and re-written — all real simulated
// traffic); an unbounded amount (spilled journal) → full-slice resync
// through the peers wired with SetResyncPeers, counted in
// ReinstateRefusals. A replay that fails (transport fault mid-replay,
// or a divergence the idempotent verbs cannot reconcile) leaves the
// server excluded with the journal intact, so the caller can heal the
// fault and call Reinstate again; replay is idempotent, so the retry
// re-runs the whole journal safely. On success the size-cache entries
// established during the exclusion are dropped, exactly as before.
func (cl *Cluster) Reinstate(p *sim.Proc, i int) error {
	if i < 0 || i >= len(cl.sessions) {
		return fmt.Errorf("rfsrv: reinstate server %d: no such server", i)
	}
	if !cl.down[i] {
		return nil
	}
	j := cl.jn.slot(i)
	switch {
	case j.spilled:
		cl.ReinstateRefusals.Add(0)
		if cl.peers == nil {
			return fmt.Errorf("rfsrv: reinstate server %d: resync journal spilled its bounds and no resync peers are wired; resync its backing store out of band first", i)
		}
		if err := cl.fullResync(i); err != nil {
			return fmt.Errorf("rfsrv: reinstate server %d: full-slice resync: %w", i, err)
		}
	case j.empty() && cl.downNs[i] != cl.nsEpochs[i]:
		// Mutations ran but nothing was journaled — only possible if a
		// hook was bypassed. Refuse rather than readmit a diverged
		// server.
		cl.ReinstateRefusals.Add(0)
		return fmt.Errorf("rfsrv: reinstate server %d: %d namespace/size mutation(s) ran against its slice during its exclusion but were not journaled; resync its backing store out of band first", i, cl.nsEpochs[i]-cl.downNs[i])
	default:
		if err := cl.replayJournal(p, i, j); err != nil {
			return fmt.Errorf("rfsrv: reinstate server %d: %w", i, err)
		}
	}
	cl.Reinstates.Add(0)
	cl.down[i] = false
	cl.downNs[i] = cl.nsEpochs[i]
	cl.jn.reset(i)
	cl.sz.readmit(i)
	return nil
}

func (cl *Cluster) replayJournal(p *sim.Proc, i int, j *resyncJournal) error {
	if err := cl.replayOps(p, i, j); err != nil {
		return err
	}
	for _, ino := range j.order {
		for _, r := range j.dirty[ino] {
			if err := cl.replayRange(p, i, ino, r); err != nil {
				return fmt.Errorf("replay data %d@[%d,%d): %w", ino, r.off, r.off+int64(r.n), err)
			}
		}
	}
	return nil
}

// replayOps replays the journaled metadata mutations in order. The
// fast path packs the whole journal — OpSyncEpoch epoch-rewind
// preludes included — into combined MetaBatch flights, so a long
// exclusion replays in a handful of wire rounds instead of one
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
		if err := cl.replayOp(p, i, op); err != nil {
			return fmt.Errorf("replay op %d/%d (%s): %w", k+1, len(j.ops), opNames[op.req.Op], err)
		}
		cl.ResyncOps.Add(0)
	}
	return nil
}

// replayReq builds the request that replays op. Epoch-bumping ops get
// an OpSyncEpoch prelude rewinding the returning server's size epoch
// to wantEpoch−1, so the replayed bump lands exactly at wantEpoch —
// idempotent even when the server already applied the op (the rewind
// makes re-application converge, not double-bump) — and a replayed
// OpSetSize observes that rewound epoch.
func replayReq(op *journalOp) (req, prelude Req, hasPrelude bool) {
	req = op.req // copy: issuing stamps Seq/EP into the request
	switch req.Op {
	case OpSetSize, OpSetLayout, OpTruncate:
		var obs uint64
		if op.wantEpoch > 0 {
			obs = op.wantEpoch - 1
			prelude, hasPrelude = Req{Op: OpSyncEpoch, Ino: req.Ino, Off: int64(obs)}, true
		}
		if req.Op == OpSetSize {
			exact, _ := UnpackSetSize(req.Len)
			req.Len = PackSetSize(exact, obs)
		}
	}
	return req, prelude, hasPrelude
}

// replayOpsBatched issues the whole journal as combined metadata
// batches against server i and interprets the per-op statuses
// (replayVerdict). It returns fallback=true (and no error) when some
// status requires the serial path's verification lookups; transport
// failures and non-tolerated statuses are errors exactly as on the
// serial path — the journal stays intact for a Reinstate retry.
func (cl *Cluster) replayOpsBatched(p *sim.Proc, i int, j *resyncJournal) (fallback bool, err error) {
	reqs := make([]*Req, 0, len(j.ops)+len(j.ops)/2)
	idx := make([]int, 0, cap(reqs)) // journal index +1 per request; 0 marks an epoch prelude
	for k := range j.ops {
		req, prelude, hasPrelude := replayReq(&j.ops[k])
		if hasPrelude {
			reqs = append(reqs, &prelude)
			idx = append(idx, 0)
		}
		reqs = append(reqs, &req)
		idx = append(idx, k+1)
	}
	// Like replayRT, transport-level failures (fault, timeout, decode)
	// abort the replay; application statuses ride in the responses for
	// the verdicts below to interpret.
	resps, err := cl.sessions[i].MetaBatch(p, reqs)
	if err != nil {
		if fabric.IsFault(err) || len(resps) != len(reqs) {
			return false, err
		}
		for _, resp := range resps {
			if resp == nil {
				return false, err
			}
		}
	}
	for n, resp := range resps {
		k := idx[n]
		if k == 0 {
			if resp.Status != StOK {
				return false, fmt.Errorf("replay epoch sync: %w", ErrOf(resp.Status))
			}
			continue
		}
		op := &j.ops[k-1]
		verify, err := replayVerdict(op, resp)
		if err != nil {
			return false, fmt.Errorf("replay op %d/%d (%s): %w", k, len(j.ops), opNames[op.req.Op], err)
		}
		if verify != nil {
			return true, nil
		}
	}
	return false, nil
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
// ranges; RenamePrepare is always resolved to Finalize or Abort before
// it is journaled; SyncEpoch is what replay itself emits.
func replayVerdict(op *journalOp, resp *Resp) (verify *entryCheck, err error) {
	req := &op.req
	//analyze:dispatch ops -OpLookup -OpGetattr -OpReaddir -OpRead -OpWrite -OpRenamePrepare -OpSyncEpoch
	switch req.Op {
	case OpMember:
		return nil, ErrOf(resp.Status)

	case OpSetSize, OpSetLayout, OpTruncate:
		if resp.Status == StNotFound {
			// The inode was unlinked later in the journal; the size
			// set is moot.
			return nil, nil
		}
		return nil, ErrOf(resp.Status)

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
// lookup a verdict asks for performed in place.
func (cl *Cluster) replayOp(p *sim.Proc, i int, op *journalOp) error {
	req, prelude, hasPrelude := replayReq(op)
	if hasPrelude {
		resp, err := cl.replayRT(p, i, &prelude)
		if err != nil {
			return err
		}
		if resp.Status != StOK {
			return ErrOf(resp.Status)
		}
	}
	resp, err := cl.replayRT(p, i, &req)
	if err != nil {
		return err
	}
	verify, err := replayVerdict(op, resp)
	if err != nil || verify == nil {
		return err
	}
	return cl.verifyEntry(p, i, verify.dir, verify.name, verify.want)
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

// replayRange re-copies one dirty byte range to the returning server:
// read through the cluster's live placement (real striped reads, with
// failover), written straight to server i at the same global offsets.
// A short or empty read means the file shrank or vanished since the
// write — the journaled ops already gave i the authoritative size, so
// the tail is simply not copied.
func (cl *Cluster) replayRange(p *sim.Proc, i int, ino kernel.InodeID, r dirtyRange) error {
	off, end := r.off, r.off+int64(r.n)
	for off < end {
		n := int(end - off)
		if n > MaxWriteChunk {
			n = MaxWriteChunk
		}
		vec, err := cl.stagingVec(n)
		if err != nil {
			return err
		}
		rresp, err := cl.Read(p, ino, off, vec)
		if err != nil {
			if errors.Is(err, kernel.ErrNotFound) {
				return nil // unlinked since the write
			}
			return err
		}
		got := int(rresp.N)
		if got <= 0 {
			return nil // past the file's current end
		}
		wresp, err := cl.sessions[i].c.ctlWrite(p, ino, off, vec.Slice(0, got))
		if err != nil {
			return err
		}
		if int(wresp.N) != got {
			return fmt.Errorf("short resync write: %d of %d bytes", wresp.N, got)
		}
		cl.ResyncBytes.Add(got)
		if got < n {
			return nil
		}
		off += int64(got)
	}
	return nil
}

// --- The bulk channel ---
//
// This section is the only code that reaches into the servers directly
// (SetResyncPeers) instead of over the wire — the simulation's stand-in
// for an out-of-band bulk transfer, costing no simulated time and out
// of reach of injected faults, and the one seam ROADMAP item 2 replaces
// with wire ops. Its three callers (fullResync, Join's namespace seed,
// memberStopWorld) compose the same pieces: one snapshot of the live
// members, the store image and soft state of one ring position
// (rebuild), and a stripe copier driven by placement.delta.

// snapshot is the cluster's authoritative state read from its live
// members, plus the opened channel itself: every peer's server and
// store by slot, resolved up front so a rebuild cannot fail on a
// missing peer after it started modifying servers.
type snapshot struct {
	srv     []*Server
	store   []*memfs.FS
	live    []int // the member slots the snapshot was read from
	sharded bool  // the namespace is sharded: a member holds only what its owner groups cover

	// nodes holds the owning copy of every inode, regular files already
	// at their global size; files lists those, ascending (copy order
	// must not depend on map order); next is the highest
	// sequential-mint cursor; marks is every in-flight rename mark.
	nodes map[kernel.InodeID]memfs.SliceNode
	files []kernel.InodeID
	next  kernel.InodeID
	marks map[renameKey]renameMark
}

// takeSnapshot reads the authoritative metadata of the cluster from
// its live members (all but slot skip and the excluded): for each inode
// the owning copy — sharded, the lowest-ranked live replica of its
// owner group; replicated, the first live member's, whose namespace is
// everyone's — and each regular file's global size.
func (cl *Cluster) takeSnapshot(skip int) (*snapshot, error) {
	snap := &snapshot{srv: cl.peers, store: make([]*memfs.FS, len(cl.peers)), sharded: cl.sharded,
		nodes: make(map[kernel.InodeID]memfs.SliceNode), marks: make(map[renameKey]renameMark)}
	for slot, srv := range cl.peers {
		if srv == nil {
			return nil, fmt.Errorf("no resync peer for server %d (SetResyncPeers)", slot)
		}
		st, ok := srv.fs.(*memfs.FS)
		if !ok {
			return nil, fmt.Errorf("server %d's backing store is not a memfs.FS; slice resync unsupported", slot)
		}
		snap.store[slot] = st
	}
	rank := make(map[kernel.InodeID]int)
	for _, slot := range cl.pl.members {
		if slot == skip || cl.down[slot] {
			continue
		}
		snap.live = append(snap.live, slot)
		for key, mark := range snap.srv[slot].renames {
			snap.marks[key] = mark
		}
		sl := snap.store[slot].ExportSlice(nil)
		snap.next = max(snap.next, sl.Next)
		if !cl.sharded && len(snap.live) > 1 {
			continue
		}
		for _, nd := range sl.Nodes {
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
	if len(snap.nodes) == 0 {
		return nil, errors.New("no live member to resync from")
	}
	for ino, nd := range snap.nodes {
		if nd.Attr.Kind == kernel.RegularFile {
			nd.Attr.Size = snap.sizeOf(ino)
			snap.nodes[ino] = nd
			snap.files = append(snap.files, ino)
		}
	}
	slices.Sort(snap.files)
	return snap, nil
}

// sizeOf returns a file's global size as of now: the max local size
// across the live members, since size publishes fan everywhere but an
// individual store may lag.
func (snap *snapshot) sizeOf(ino kernel.InodeID) int64 {
	var size int64
	for _, slot := range snap.live {
		size = max(size, snap.store[slot].LocalSize(ino))
	}
	return size
}

// rebuild makes the server at ring position pos of pl hold exactly what
// that position holds according to the snapshot. Its store takes, in a
// sharded namespace, the inodes its owner groups cover in full and
// every other regular file as an exact-size stub (data stripes and size
// publishes need somewhere to land, like the lazy materialization of
// the sharded write path), and in a replicated one everything; sizes
// are exact, unknown inodes purged. The image carries no mint-sequence
// cursor — per-server partitions are disjoint, so a server's retained
// cursor stays correct. Rename marks follow directory ownership. A
// fresh server — one the snapshot was not read from — also takes the
// size epochs, layouts and membership epoch of a live member: they are
// replicated-identical (exact sets always fan), so any one is
// authoritative.
func (snap *snapshot) rebuild(pl placement, pos int, fresh bool) {
	slot := pl.members[pos]
	sl := &memfs.Slice{Next: snap.next}
	for ino, nd := range snap.nodes {
		switch {
		case !snap.sharded || pl.holds(slot, pl.residue(ino)):
			sl.Nodes = append(sl.Nodes, nd)
		case nd.Attr.Kind == kernel.RegularFile:
			sl.Nodes = append(sl.Nodes, memfs.SliceNode{Attr: nd.Attr})
		}
	}
	snap.store[slot].ImportSlice(sl, nil, true)
	srv := snap.srv[slot]
	if fresh {
		src := snap.srv[snap.live[0]]
		srv.epochs, srv.layouts, srv.member = maps.Clone(src.epochs), maps.Clone(src.layouts), src.member
	}
	if snap.sharded {
		srv.renames = make(map[renameKey]renameMark)
		for key, mark := range snap.marks {
			if pl.holds(slot, pl.residue(key.dir)) {
				srv.renames[key] = mark
			}
		}
	}
}

// copyStripes copies every stripe fragment some slot holds under next
// but not under old (old.delta) from its longest live old-geometry
// replica to those slots, counting the bytes on moved.
func (cl *Cluster) copyStripes(snap *snapshot, old, next placement, moved *sim.Counter) error {
	for _, ino := range snap.files {
		for _, mv := range old.delta(next, 0, snap.nodes[ino].Attr.Size) {
			var data []byte
			for j, was := 0, old.owner(LayoutStandard, ino, mv.off); j < old.replicas; j++ {
				if src := old.slot(was, j); src >= 0 && !cl.down[src] {
					if d := snap.store[src].ReadRange(ino, mv.off, mv.n); len(d) > len(data) {
						data = d
					}
				}
			}
			if len(data) == 0 {
				continue
			}
			for _, slot := range mv.to {
				if err := snap.store[slot].WriteRange(ino, mv.off, data); err != nil {
					return err
				}
				moved.Add(len(data))
			}
		}
	}
	return nil
}

// fullResync rebuilds excluded member slot i from the live members —
// the fallback when its resync journal spilled: store and soft state
// from the snapshot, then the stripes it holds under the current
// placement re-copied from their live replicas.
func (cl *Cluster) fullResync(i int) error {
	if cl.policyOn {
		return errors.New("full-slice resync under an adaptive layout policy is not supported")
	}
	pos := cl.pl.pos(i)
	if pos < 0 {
		return fmt.Errorf("server %d is not a member", i)
	}
	snap, err := cl.takeSnapshot(i)
	if err != nil {
		return err
	}
	snap.rebuild(cl.pl, pos, true)
	return cl.copyStripes(snap, cl.pl.vacate(pos), cl.pl, &cl.ResyncBytes)
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

	// operator is the cluster currently driving a membership change
	// (nil otherwise); its own traffic bypasses the fences.
	operator  *Cluster
	fenceMut  bool
	fenceAll  bool
	migrating bool

	activeData int
	activeMut  int
	pending    int

	// dirty logs data writes issued while a migration is copying
	// stripes, so the operator can re-copy ranges the bulk pass
	// missed.
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
// before any traffic and before ShareView. The sharded namespace maps
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
// claims the view for this cluster as operator. The returned func
// releases the operator claim and every fence.
func (cl *Cluster) beginChange(lists ...[]int) (func(), error) {
	v := cl.view
	if v == nil {
		return nil, errors.New("rfsrv: membership change: no shared view (ShareView first)")
	}
	if cl.peers == nil {
		return nil, errors.New("rfsrv: membership change: no resync peers (SetResyncPeers first)")
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
	return func() {
		v.operator = nil
		v.fenceMut, v.fenceAll, v.migrating = false, false, false
		v.dirty = nil
	}, nil
}

// Join admits session slot into the membership at the end of the
// placement order, migrating data to its new replica sets before the
// epoch cutover: online under load in the unsharded cluster (reads
// and writes keep flowing through the old placement while stripes
// copy, with a dirty log catching racing writes and a brief full
// fence at cutover), stop-world in the sharded one (every client
// fences while owner groups, directory slices, and stripes rebuild).
// Requires a shared view (ShareView/AttachView) and resync peers. A
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
// before the epoch cutover (same online/stop-world split as Join).
// The retiree must be alive: its data is a migration source.
func (cl *Cluster) Retire(p *sim.Proc, slot int) error {
	pos := cl.pl.pos(slot)
	if pos < 0 {
		return fmt.Errorf("rfsrv: retire: slot %d is not a member", slot)
	}
	return cl.changeMembers(p, slices.Delete(cl.Members(), pos, pos+1))
}

// Bounce retires and immediately re-admits member slot inside one
// stop-world fence window: the membership epoch advances twice, every
// stripe and directory slice leaves the slot and comes back, and no
// client ever issues an operation against the interim geometry. The
// torture harness uses it as the membership-change event whose final
// placement the oracle can still predict.
func (cl *Cluster) Bounce(p *sim.Proc, slot int) error {
	pos := cl.pl.pos(slot)
	if pos < 0 {
		return fmt.Errorf("rfsrv: bounce: slot %d is not a member", slot)
	}
	if !cl.sharded {
		return errors.New("rfsrv: bounce: stop-world path is sharded-only; use Retire then Join")
	}
	with, without := cl.Members(), slices.Delete(cl.Members(), pos, pos+1)
	done, err := cl.beginChange(without, with)
	if err != nil {
		return err
	}
	defer done()
	if err := cl.memberStopWorld(p, without); err != nil {
		return err
	}
	return cl.memberStopWorld(p, with)
}

func (cl *Cluster) changeMembers(p *sim.Proc, next []int) error {
	done, err := cl.beginChange(next)
	if err != nil {
		return err
	}
	defer done()
	if cl.sharded {
		return cl.memberStopWorld(p, next)
	}
	return cl.memberOnline(p, next)
}

// commitMember is the cutover's wire half: once membersUp confirms
// that nobody of either geometry was excluded along the way, it fans
// OpMember to every slot of next (in position order) and an epoch-only
// stamp to retirees, so every server's replies carry the new
// membership epoch.
func (cl *Cluster) commitMember(p *sim.Proc, old, next placement, epoch uint64, floor kernel.InodeID, sharded bool) error {
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
		if err := send("commit membership on", slot, PackMember(pos, n, next.replicas, sharded)); err != nil {
			return err
		}
	}
	for _, slot := range old.members {
		if next.pos(slot) < 0 {
			if err := send("stamp retiring", slot, PackMember(0, n, next.replicas, false)); err != nil {
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

// memberOnline is the unsharded membership change: mutations fence
// for the duration (the namespace and file set freeze), but the data
// path stays live — stripes copy to their new replica sets through
// ordinary striped reads and direct writes while client reads and
// writes keep flowing through the old placement, a dirty log
// re-copies ranges written mid-migration, and only the final cutover
// briefly fences everything.
func (cl *Cluster) memberOnline(p *sim.Proc, members []int) error {
	v := cl.view
	old, next := cl.pl, cl.pl.withMembers(members)

	// Phase 1: freeze the namespace.
	v.fenceMut = true
	for v.activeMut > 0 {
		p.Sleep(memberFencePoll)
	}

	// Phase 2: seed joiners with the frozen namespace (bulk channel):
	// exact sizes (trimming any stale local state a re-joining slot
	// kept from an earlier tenure), size epochs, layouts.
	snap, err := cl.takeSnapshot(-1)
	if err != nil {
		return err
	}
	var joiners []int
	for pos, slot := range next.members {
		if old.pos(slot) < 0 {
			joiners = append(joiners, slot)
			snap.rebuild(next, pos, true)
		}
	}

	// Phase 3: migrate stripes to their new replica sets under load.
	v.migrating = true
	for _, ino := range snap.files {
		if err := cl.migrateRange(p, ino, 0, snap.nodes[ino].Attr.Size, old, next); err != nil {
			return err
		}
	}

	// Phase 4: drain the dirty log while the data path is still live.
	// Each batch is deduplicated first: migrateRange copies the file's
	// CURRENT content, so one copy per distinct range per batch lands
	// the same bytes as one per write — under heavy load the same hot
	// stripe is redirtied thousands of times per pass, and re-copying
	// every entry would multiply migration traffic by that factor.
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

	// Phase 5: full fence, quiesce, final dirty delta.
	v.fenceAll = true
	for v.activeData+v.activeMut+v.pending > 0 {
		p.Sleep(memberFencePoll)
	}
	for len(v.dirty) > 0 {
		if err := drain(); err != nil {
			return err
		}
	}

	// Phase 6: publish authoritative sizes to joiners. Old members saw
	// every size fan during migration; joiners saw none, and a joiner
	// can be an inode's metadata home after cutover, so its local size
	// must be the global one.
	for _, ino := range snap.files {
		size := snap.sizeOf(ino)
		for _, j := range joiners {
			if err := cl.publishGrow(p, j, ino, size); err != nil {
				return err
			}
		}
	}

	// Phase 7: commit the new geometry on every affected server, flip
	// the view, and adopt it.
	epoch := v.epoch + 1
	if err := cl.commitMember(p, old, next, epoch, 0, false); err != nil {
		return err
	}
	cl.flipView(next, epoch)
	return nil
}

// migrateRange copies [off, off+n) of a file to the slots that hold it
// under next but not under the authoritative old geometry (old.delta):
// striped reads through the live cluster, direct writes to each target
// — real simulated traffic competing with client load. An excluded
// target fails the change (membersUp): skipping it would leave a hole
// the cutover then commits.
func (cl *Cluster) migrateRange(p *sim.Proc, ino kernel.InodeID, off, n int64, old, next placement) error {
	for _, mv := range old.delta(next, off, n) {
		if err := cl.membersUp(mv.to); err != nil {
			return err
		}
		vec, err := cl.stagingVec(mv.n)
		if err != nil {
			return err
		}
		rresp, err := cl.Read(p, ino, mv.off, vec)
		if err != nil {
			return err
		}
		got := int(rresp.N)
		if got == 0 {
			continue
		}
		for _, slot := range mv.to {
			wresp, err := cl.sessions[slot].c.ctlWrite(p, ino, mv.off, vec.Slice(0, got))
			if err != nil {
				return err
			}
			if int(wresp.N) != got {
				return fmt.Errorf("short migration write to server %d: %d of %d bytes", slot, wresp.N, got)
			}
			cl.Migrated.Add(got)
		}
	}
	return nil
}

// publishGrow raises server slot's local size for ino to size through
// the ordinary grow-mode OpSetSize, reading the server's own size
// epoch first (bounded stale retries, like every size publish).
func (cl *Cluster) publishGrow(p *sim.Proc, slot int, ino kernel.InodeID, size int64) error {
	for try := 0; try < 4; try++ {
		get := Req{Op: OpGetattr, Ino: ino}
		resp, err := cl.replayRT(p, slot, &get)
		if err != nil {
			return err
		}
		if resp.Status == StNotFound {
			return nil
		}
		if resp.Status != StOK {
			return ErrOf(resp.Status)
		}
		if resp.Attr.Size >= size {
			return nil
		}
		set := Req{Op: OpSetSize, Ino: ino, Off: size, Len: PackSetSize(false, resp.Epoch)}
		resp, err = cl.replayRT(p, slot, &set)
		if err != nil {
			return err
		}
		switch resp.Status {
		case StOK:
			return nil
		case StStale:
			continue
		default:
			return ErrOf(resp.Status)
		}
	}
	return ErrStaleEpoch
}

// memberStopWorld is the sharded membership change: every client
// fences, in-flight operations drain, and the operator rebuilds the
// world under the new geometry — OpMember re-partitions every server's
// ownership map and minting floor, every new member is rebuilt from
// the authoritative old-geometry snapshot, and stripes copy to their
// new replica sets, all through the bulk channel. Re-sharding the
// directory slices of a live namespace incrementally is follow-up
// work; the stop-world window makes the geometry swap atomic for every
// client attached to the view.
func (cl *Cluster) memberStopWorld(p *sim.Proc, members []int) error {
	v := cl.view
	v.fenceMut, v.fenceAll = true, true
	for v.activeData+v.activeMut+v.pending > 0 {
		p.Sleep(memberFencePoll)
	}
	old, next := cl.pl, cl.pl.withMembers(members)
	snap, err := cl.takeSnapshot(-1)
	if err != nil {
		return err
	}

	// Mint floor: past anything any affected store ever assigned —
	// including stale state on re-joining slots.
	floor := snap.next - 1
	for _, slot := range slices.Concat(old.members, next.members) {
		floor = max(floor, snap.store[slot].MaxIno())
	}

	// Commit the new geometry first: servers swap ownership maps and
	// minting partitions while the world is stopped, so the rebuild
	// below lands on servers that already route by the new residues.
	epoch := v.epoch + 1
	if err := cl.commitMember(p, old, next, epoch, floor, true); err != nil {
		return err
	}
	for pos, slot := range next.members {
		snap.rebuild(next, pos, old.pos(slot) < 0)
	}
	if err := cl.copyStripes(snap, old, next, &cl.Migrated); err != nil {
		return err
	}
	cl.flipView(next, epoch)
	return nil
}
