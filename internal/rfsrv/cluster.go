package rfsrv

// This file is the striped cluster client: one rfsrv.Client that
// shards file data across several servers, each reached through its
// own Session. It is the repository's answer to the single-link
// ceiling PR 2 ran into — one server's 250 MB/s link caps aggregate
// throughput no matter how deep the window — and the first step toward
// the ROADMAP's aggregate-capacity north star.
//
// Layout. File bytes are split into fixed-size stripes (64 KiB by
// default) placed round-robin: stripe k of every file lives on server
// k mod N, *at its global offset* (server files are sparse — each
// server's copy holds only the stripes it owns, with its local size
// covering the bytes it has seen). Reads and writes split into
// per-server contiguous runs, issue in parallel through each server's
// session window, and merge completions through the existing
// seq-tagged demux — the cluster adds no new wire mechanism.
//
// Metadata. The namespace is replicated: every mutation (create,
// mkdir, unlink, rmdir, truncate, extend) fans out to all servers in
// server order, and because the backing filesystems allocate inode
// numbers deterministically, the same mutation stream yields the same
// inode numbers everywhere (the cluster verifies this and reports
// divergence as an I/O error). Read-only metadata (lookup, getattr,
// readdir) is served by a single *home* server chosen by hashing the
// path component (directory inode + name) or the inode, spreading
// metadata load without a directory service.
//
// Size coherence (DESIGN.md §9). A write's tail may land away from a
// file's metadata home, leaving the home's (and other data servers')
// local size short of the true end of file. Beside each synchronous
// Write that extends a file — issued with its data, collected before
// it returns — the cluster sends a grow-only OpSetSize to every other
// server, so any server's local size — and thus any
// homed getattr, and the EOF clipping of any striped read — reflects
// the true size. The inode's path-hashed home server is the size
// authority, and the caching that elides repeat reconciliations is
// *validated*: every server keeps a per-inode size epoch (bumped by
// exact size sets, which always fan out; never by data writes or
// grow reconciliation, so epochs stay replicated-identical), every
// reply carries the epoch of the inode it resolves, and the cluster's
// size book (sizebook.go — the cache and every rule about what an
// entry proves; this file keeps the fans) caches (size, epoch) pairs.
// A reply whose epoch is newer than the cached one proves a foreign
// client truncated the file: the entry is invalidated on the spot and
// the next overwrite re-reconciles —
// which is what makes truncate-then-overwrite coherent across
// clients (TestClusterCrossClientExtend). OpSetSize itself carries
// the writer's observed epoch, so a server refuses (StStale) to
// re-grow sizes under a writer whose view is stale instead of
// resurrecting a foreign truncate; the refusal carries the
// authoritative (size, epoch) and the cluster revalidates and
// retries. Asynchronous StartWrite still skips reconciliation (its
// callers, like ORFS write-behind, track EOF themselves and publish
// it through SetFileSize at their sync barrier); the
// metadata-home-vs-data-server tests pin down what is and is not
// guaranteed.
//
// Ordering and failure semantics. A Cluster is used from one simulated
// process at a time, like the Session it is built from. Metadata
// travels on each server's synchronous control path, never a window
// slot, so it can always proceed while striped data operations hold
// every slot (the cluster analogue of the session's one-free-slot
// discipline). Operations return when every fanned-out part has
// completed; the first error wins and the rest are drained, so window
// slots never leak. A striped
// read's byte count is the contiguous prefix served before the first
// server-clipped (EOF) part; bytes past it are undefined, exactly like
// a short read on the plain protocol.
//
// Replication and faults. A cluster built with NewReplicatedCluster
// writes every stripe to R consecutive servers (stripe k lands on
// k mod N through (k mod N)+R-1, wrapping), so the loss of any single
// server with R >= 2 loses no data, and reads spread over the group:
// each stripe is cut into R read slices, slice j served by the group's
// j-th member (placement.reader), so a read is atomic per read slice.
// Faults are what the transport reports as such (fabric.IsFault: a
// dead peer at send time, or — with Session.SetRequestTimeout armed —
// a reply deadline expiring): the faulting server is recorded as
// *excluded* and never addressed again, reads of its slices fail over
// to the group's next alive member and, at R=2, each chain of
// survivors the exclusion leaves splits its groups' reads evenly
// (placement.chainCut), writes succeed as long as every
// run keeps one clean replica, and namespace mutations simply skip it
// instead of reporting divergence. Exclusion
// is one-way — an operator who knows the server recovered calls
// Reinstate (elastic.go, DESIGN.md §13), which first brings the server
// up to date — replaying the resync journal of the namespace mutations
// it missed, re-imaging its file sizes at the newest merged state and
// re-copying the data it missed, each byte once — so every size-cache
// entry stays valid for it.
// Application-level errors (EEXIST, EOF clipping, short writes) are
// never treated as faults and fail the operation exactly as before.
// With R=1 and no faults every path below is bit-identical to the
// pre-replication cluster.
//
// With one server the cluster degenerates exactly: every stripe is one
// contiguous run on server 0, every metadata route resolves to server
// 0, and no reconciliation traffic is sent, so the issued RPC sequence
// — and therefore the simulated timing — is bit-identical to driving
// the underlying Session directly (guarded by
// TestClusterOneServerMatchesSession).

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// DefaultStripeSize is the stripe width used when NewCluster is given
// none: 64 KiB, the application chunk size of the cluster figures
// (so one figure-harness read maps to exactly one stripe).
const DefaultStripeSize = 64 * 1024

// ErrBadStripe rejects a stripe width that is not a positive
// page-aligned multiple no larger than MaxWriteChunk. Constructors
// wrap it with the offending value; errors.Is(err, ErrBadStripe)
// identifies the class.
var ErrBadStripe = errors.New("rfsrv: invalid stripe width")

// Cluster stripes file data across several rfsrv servers, one Session
// per server, and replicates the namespace to all of them. It
// implements Client and Async, so every consumer of a Session — ORFS
// mounts, the ORFA library, the figures harness — runs over a server
// cluster unchanged.
type Cluster struct {
	sessions []*Session
	node     *hw.Node

	// pl is the placement every path routes by: the member ring (ring
	// position → session slot, so membership changes re-place data and
	// metadata without touching the construction-time sessions array),
	// the stripe width and the replication factor R. Fault state below
	// stays slot-indexed — where placement puts a server is independent
	// of whether it is up.
	pl placement

	// down marks servers excluded after an observed transport fault;
	// excluded servers are skipped by every path until Reinstate.
	down []bool

	// sz is the size coherence book (sizebook.go): the validated
	// (size, epoch) cache every reply feeds. The cluster runs the fans;
	// the book keeps every rule about what a cached size means.
	sz sizeBook

	// layouts caches each inode's layout class as learned from reply
	// nibbles (observeResp) — a create's, a lookup's, a getattr's, a
	// data reply's. A class never changes once the file exists, so an
	// entry needs no validation.
	layouts map[kernel.InodeID]LayoutClass

	// stageVA is the lazily mapped staging buffer copies and namespace
	// images travel through (one MaxWriteChunk region in sessions[0]'s
	// buffer space; elastic.go's stage).
	stageVA vm.VirtAddr

	// reusable per-operation scratch (a Cluster is used from one
	// simulated process at a time, and no data-path operation re-enters
	// another, so one set per cluster suffices — see the zero-alloc
	// notes in DESIGN.md §10).
	runScratch    []run
	needScratch   []int
	partFree      []*part
	syncOp        clusterPending // the synchronous Read/Write's pending (parts/runs backing reused)
	coverScratch  []bool
	targetScratch []int
	tailScratch   []int
	fanFlights    []fanFlight
	answers       []Resp  // reply records of fan and of runShares' waits (neither runs inside the other)
	respScratch   []*Resp // fan's answers, pointers into answers
	metaResp      Resp    // metaFirstAlive's reply record, valid until its next round trip
	fanReq        Req
	shares        []share // runShares' per-slot scratch (newShares)
	mintTried     []int   // groupMint's members asked

	// StripeReads and StripeWrites count data bytes issued per
	// direction; MetaFanout counts replicated metadata requests beyond
	// the first server; SetSizes counts OpSetSize reconciliation
	// requests.
	StripeReads, StripeWrites, MetaFanout, SetSizes sim.Counter

	// Failovers counts operations re-routed to a replica after a fault
	// (Bytes carries the re-read data volume); Excluded counts servers
	// marked down.
	Failovers, Excluded sim.Counter

	// Reinstates counts servers readmitted by Reinstate; RenameInDoubts
	// counts sharded cross-owner renames that surfaced
	// ErrRenameInDoubt. The torture harness (internal/torture) consumes
	// both to cross-check its fault schedule against what the cluster
	// actually observed. ReinstateRefusals stays zero — every
	// readmission replays its journal — and remains only because the
	// bench/ workloads still read it.
	Reinstates, ReinstateRefusals, RenameInDoubts sim.Counter

	// ReinstateTime sums the virtual time of every readmission that
	// Reinstates counts, from the call — its fence's drain included —
	// to the return: ReinstateTime / Reinstates.N is the mean time a
	// server takes to come back.
	ReinstateTime sim.Time

	// view is the membership view this cluster follows — its own from
	// construction, or one it attached to (DESIGN.md §13); viewEpoch is
	// the epoch of the member ring currently adopted. staleMember
	// latches when a reply's membership epoch is past viewEpoch: a
	// change this cluster's view never saw re-placed the servers, and
	// every subsequent operation fails with ErrStaleMembership.
	view        *MemberView
	viewEpoch   uint64
	staleMember bool

	// Operation-gate state (see enterOp): gateDepth tracks nested
	// cluster entry points (Rename inside Meta), so only the outermost
	// one fences and counts; gateMut/gateCounted remember what the
	// outermost entry registered with the view.
	gateDepth   int
	gateMut     bool
	gateCounted bool

	// jn holds the resync journal of every server slot (journal.go):
	// empty while a server is up, reset at exclusion, recording the
	// mutations and data-stripe writes an excluded server misses so
	// Reinstate can replay them.
	jn journal

	// renameDoubt parks unresolved in-doubt renames, keyed by each
	// directory involved, so the next lookup/getattr/readdir walking
	// either directory re-drives the rename before reading
	// (resolveRenameDoubt).
	renameDoubt map[kernel.InodeID]inDoubtRename

	// ResyncOps counts journaled mutations replayed by Reinstate;
	// ResyncBytes counts data bytes re-copied to a returning server —
	// the runs it holds of every file whose size epoch moved merged
	// with the journaled dirty ranges, each byte once; ResyncSpills
	// stays zero — a journal has no bounds to outgrow — and remains
	// only because bench/ still reads it; ResyncFallbacks counts
	// journal replays that needed the verification batch after the
	// journal because a status asked for a lookup (the server already
	// held a prefix of the journal); Migrated counts data bytes
	// re-placed by membership changes (Join/Retire/Bounce);
	// RenameAutoResolves counts in-doubt renames resolved by a later
	// walk over the marked entry rather than an explicit re-drive.
	ResyncOps, ResyncBytes, ResyncSpills, ResyncFallbacks, Migrated, RenameAutoResolves sim.Counter
}

// NewCluster builds a striped cluster client over one Session per
// server. All sessions must live on the same client node and use
// distinct local endpoints (replies are demultiplexed by (seq,
// endpoint), so shared endpoints would cross-scatter). stripe is the
// stripe width in bytes — 0 selects DefaultStripeSize; it must be
// page-aligned (so page-granular consumers never split a page across
// servers) and at most MaxWriteChunk (so one stripe is one request).
func NewCluster(p *sim.Proc, sessions []*Session, stripe int) (*Cluster, error) {
	return NewReplicatedCluster(p, sessions, stripe, 1)
}

// NewReplicatedCluster is NewCluster with a replication factor: every
// stripe is written to replicas consecutive servers (1 <= replicas <=
// len(sessions)), each replica serves a read slice of every stripe it
// holds (placement.reader), a slice fails over to the group's next
// alive member when its server's transport reports a fault and, at
// replicas=2, the slices follow the exclusion (placement.chainCut), and
// replicas=1 degenerates bit-identically to NewCluster. See the package
// comment on replication and faults.
func NewReplicatedCluster(p *sim.Proc, sessions []*Session, stripe, replicas int) (*Cluster, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("rfsrv: cluster needs at least one session")
	}
	if replicas < 1 || replicas > len(sessions) {
		return nil, fmt.Errorf("rfsrv: replication factor %d outside 1..%d", replicas, len(sessions))
	}
	if stripe == 0 {
		stripe = DefaultStripeSize
	}
	if err := ValidateStripe(int64(stripe)); err != nil {
		return nil, err
	}
	node := sessions[0].Node()
	eps := make(map[uint8]bool)
	for _, s := range sessions {
		if s.Node() != node {
			return nil, fmt.Errorf("rfsrv: cluster sessions must share one client node")
		}
		ep := s.c.myEP
		if eps[ep] {
			return nil, fmt.Errorf("rfsrv: cluster sessions share local endpoint %d", ep)
		}
		eps[ep] = true
	}
	pl := ringPlacement(len(sessions), replicas)
	pl.stripe = int64(stripe)
	return &Cluster{
		sessions: sessions,
		node:     node,
		pl:       pl,
		view:     &MemberView{members: slices.Clone(pl.members)},
		down:     make([]bool, len(sessions)),
		sz:       newSizeBook(),
		layouts:  make(map[kernel.InodeID]LayoutClass),
		jn:       newJournal(len(sessions)),
	}, nil
}

// ValidateStripe checks a stripe width: positive, page-aligned (so
// page-granular consumers never split a page across servers) and at
// most MaxWriteChunk (so one stripe is one request). Violations wrap
// ErrBadStripe.
func ValidateStripe(stripe int64) error {
	if stripe <= 0 || stripe%mem.PageSize != 0 {
		return fmt.Errorf("%w: %d is not a positive page multiple", ErrBadStripe, stripe)
	}
	if stripe > MaxWriteChunk {
		return fmt.Errorf("%w: %d exceeds one %d-byte request", ErrBadStripe, stripe, MaxWriteChunk)
	}
	return nil
}

// observeResp feeds one server reply into the validated caches: the
// size epoch it carries for the inode it resolves goes to the size book
// (sizeBook.observe — it confirms the cached entry or proves a foreign
// exact size set ran), the layout nibble to the layout cache unless the
// replying server does not home the inode (layoutUnknown). Replies that
// resolve no inode are ignored.
func (cl *Cluster) observeResp(resp *Resp) {
	if resp == nil {
		return
	}
	if resp.MemberEpoch > cl.viewEpoch {
		// The reply is stamped with a membership epoch this cluster has
		// never seen and can never adopt: a change on a view it does not
		// follow re-placed the servers (a change on its own view fences
		// and drains it first). It poisons itself (ErrStaleMembership
		// from the next entry gate) rather than keep routing by a
		// retired geometry.
		cl.staleMember = true
	}
	if resp.Attr.Ino == 0 || resp.Status != StOK && resp.Status != StStale {
		return
	}
	cl.sz.observe(resp.Attr.Ino, resp.Epoch)
	if resp.Layout != layoutUnknown {
		cl.layouts[resp.Attr.Ino] = resp.Layout
	}
}

// DownServers returns the indices of servers currently excluded after
// an observed fault, in server order.
func (cl *Cluster) DownServers() []int {
	var out []int
	for i, d := range cl.down {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// Reinstate lives in elastic.go (DESIGN.md §13): it replays the
// resync journal recorded during the exclusion, re-images the server's
// sizes and re-copies the data it missed before clearing the
// exclusion.

// markDown records a server as excluded after an observed fault and
// resets the slot's resync journal: everything the server misses from
// here on is recorded for Reinstate to replay.
func (cl *Cluster) markDown(i int) {
	if !cl.down[i] {
		cl.down[i] = true
		cl.jn.reset(i)
		cl.Excluded.Add(0)
	}
}

// Sessions returns the per-server sessions in server order (stats,
// tests).
func (cl *Cluster) Sessions() []*Session { return cl.sessions }

// Node implements Async: the client node.
func (cl *Cluster) Node() *hw.Node { return cl.node }

// Window implements Async: the aggregate window over all servers.
func (cl *Cluster) Window() int {
	n := 0
	for _, s := range cl.sessions {
		n += s.Window()
	}
	return n
}

// InFlight implements Async: outstanding requests over all servers.
func (cl *Cluster) InFlight() int {
	n := 0
	for _, s := range cl.sessions {
		n += s.InFlight()
	}
	return n
}

// CanStart implements Async: whether a data operation on ino covering
// [off, off+n) could issue right now without blocking on window slots
// held by OTHER operations. It checks, per server, that the window has
// room for what the range needs there — capped at the window size,
// because an operation needing more same-server slots than the window
// exists makes progress by retiring its own earlier runs (see
// StartRead), so what it requires from the caller is only that
// everyone else's slots are free. A read needs one slot per read slice
// on the member serving it (readIdx), a write one per run on every
// alive replica; not knowing which is coming, CanStart asks each
// server for the larger of the two — for a read of whole stripes, the
// read's exact count. Per-file layouts made
// slot demand inode-dependent — a whole-on-home file needs one slot on
// its home where a striped file spreads — which is why CanStart takes
// the inode; it consults only the layout cache (never the wire), so an
// unresolved inode is paced as standard and corrected by the first
// reply.
func (cl *Cluster) CanStart(ino kernel.InodeID, off int64, n int) bool {
	if cap(cl.needScratch) < 2*len(cl.sessions) {
		cl.needScratch = make([]int, 2*len(cl.sessions))
	}
	need := cl.needScratch[:2*len(cl.sessions)]
	for i := range need {
		need[i] = 0
	}
	need, reads := need[:len(cl.sessions)], need[len(cl.sessions):]
	lay := cl.layouts[ino]
	for _, r := range cl.runs(lay, ino, off, n, false) {
		for j := 0; j < cl.pl.replicas; j++ {
			if idx := cl.pl.slot(r.owner, j); !cl.down[idx] {
				need[idx]++
			}
		}
	}
	if cl.pl.replicas > 1 { // with one replica the two demands are the same
		for _, r := range cl.runs(lay, ino, off, n, true) {
			if idx := cl.readIdx(lay, ino, r.off); idx >= 0 {
				reads[idx]++
			}
		}
	}
	for i, s := range cl.sessions {
		need[i] = min(max(need[i], reads[i]), s.Window())
		if need[i] > 0 && s.InFlight()+need[i] > s.Window() {
			return false
		}
	}
	return true
}

// ---- placement under faults ----
//
// Where bytes and dentries live is cl.pl's answer (placement.go); what
// the Cluster adds is the exclusion state placement knows nothing of.

// firstUp is placement.firstUp under the cluster's exclusion set.
func (cl *Cluster) firstUp(pos, from, span int) int {
	return cl.pl.firstUp(cl.down, pos, from, span)
}

// readIdx returns the read target for byte off of an inode under its
// layout, as a session slot: the member serving the byte's read slice
// (placement.reader) when alive, else the next alive member of the
// group after it, wrapping, else -1.
func (cl *Cluster) readIdx(lay LayoutClass, ino kernel.InodeID, off int64) int {
	rank, _ := cl.pl.reader(cl.down, lay, off)
	return cl.firstUp(cl.pl.owner(lay, ino, off), rank, cl.pl.replicas)
}

// layoutFor resolves the layout class a data operation must use: the
// class this client learned from a reply or, for an inode it never
// resolved, one getattr on the namespace's own route — the hashed home
// replicated, the residue's owner group sharded — whose reply teaches
// both caches. Every create, lookup or earlier data reply already
// taught it for the normal open-then-read lifecycle, so the fetch is
// rare. A one-member ring resolves nothing: both classes place every
// byte on its one member.
func (cl *Cluster) layoutFor(p *sim.Proc, ino kernel.InodeID) (LayoutClass, error) {
	if lc, ok := cl.layouts[ino]; ok || len(cl.pl.members) == 1 {
		return lc, nil
	}
	resp, err := cl.homedRead(p, &Req{Op: OpGetattr, Ino: ino})
	if err != nil {
		return LayoutStandard, err
	}
	return resp.Layout, nil
}

// allReplicasDown is the error for a stripe whose every replica is
// excluded; it satisfies fabric.IsFault.
func (cl *Cluster) allReplicasDown(off int64) error {
	return fmt.Errorf("rfsrv: stripe at %d: all %d replicas excluded: %w",
		off, cl.pl.replicas, fabric.ErrPeerDead)
}

// firstAlive is the one first-alive-with-failover loop: run op against
// the target pick names; a transport fault excludes that target,
// counts a failover (bytes is the data volume re-routed, 0 for
// metadata-sized operations) and goes around — pick is re-evaluated
// per attempt because exclusion changes the routing. A non-fault error
// returns as produced. pick() < 0 means nobody is left to ask, and
// dead builds that error (it satisfies fabric.IsFault).
func firstAlive[T any](cl *Cluster, bytes int, pick func() int, dead func() error, op func(idx int) (T, error)) (T, int, error) {
	for {
		idx := pick()
		if idx < 0 {
			var zero T
			return zero, idx, dead()
		}
		v, err := op(idx)
		if err != nil && fabric.IsFault(err) {
			cl.markDown(idx)
			cl.Failovers.Add(bytes)
			continue
		}
		return v, idx, err
	}
}

// withReplica is firstAlive over the replica set of the byte at off
// under the inode's layout — the data path's issue-time failover.
func withReplica[T any](cl *Cluster, lay LayoutClass, ino kernel.InodeID, off int64, bytes int, op func(idx int) (T, error)) (T, error) {
	v, _, err := firstAlive(cl, bytes,
		func() int { return cl.readIdx(lay, ino, off) },
		func() error { return cl.allReplicasDown(off) }, op)
	return v, err
}

// metaFirstAlive is firstAlive for one metadata round trip on the
// control path. The answer is the control-path revalidation point: its
// epoch either confirms the cached size or invalidates it. It lives in
// the cluster's record (metaResp) until the next metaFirstAlive: a fan
// does not touch it.
func (cl *Cluster) metaFirstAlive(p *sim.Proc, req *Req, pick func() int, dead func() error) (*Resp, int, error) {
	resp, idx, err := firstAlive(cl, 0, pick, dead, func(idx int) (*Resp, error) {
		return cl.syncMeta(p, idx, req, &cl.metaResp)
	})
	if resp == nil {
		cl.metaResp = Resp{Status: StatusOf(err)}
		resp = &cl.metaResp
	}
	cl.observeResp(resp)
	return resp, idx, err
}

// OwnerServer returns the index of the server owning the stripe that
// contains byte offset off (stats, tests, placement-aware callers).
// The primary owner is reported even when that server is excluded
// (reads would route to a replica; see DownServers).
func (cl *Cluster) OwnerServer(off int64) int { return cl.pl.owner(LayoutStandard, 0, off) }

// HomeServer returns the index of the metadata home of an inode. The
// home shifts past excluded servers, so the answer changes as faults
// are observed; it is -1 only when every server is excluded.
func (cl *Cluster) HomeServer(ino kernel.InodeID) int {
	return cl.firstUp(cl.pl.home(ino), 0, len(cl.pl.members))
}

// runs splits [off, off+n) of an inode into its per-owner runs
// (placement.runs), cut at the read slice boundaries of the cluster's
// exclusion set when sliced, in the cluster's per-operation scratch:
// valid until the next runs call, so callers that outlive their own
// issue loop (StartRead/StartWrite pendings) must copy it.
func (cl *Cluster) runs(lay LayoutClass, ino kernel.InodeID, off int64, n int, sliced bool) []run {
	cl.runScratch = cl.pl.runs(cl.down, lay, ino, off, n, sliced, cl.runScratch[:0])
	return cl.runScratch
}

// ---- data path ----

// part is one per-server request of a striped operation.
type part struct {
	pd       *Pending
	r        run
	want     int         // expected byte count (writes)
	ridx     int         // index of the run this part belongs to
	target   int         // server the request was issued to
	vec      core.Vector // destination slice (reads: kept for failover reissue), its array kept across recycles
	resp     Resp        // the part's reply, when answered: its own copy, for the slot's is the slot's next request's
	answered bool
	err      error
	done     bool
}

// retire waits the part once and memoizes its outcome.
//
// allocfree
func (pt *part) retire(p *sim.Proc) {
	if pt.done {
		return
	}
	resp, err := pt.pd.Wait(p)
	if pt.answered, pt.err = resp != nil, err; pt.answered {
		pt.resp = *resp
	}
	pt.done = true
}

// getPart returns a recycled part from the freelist, zeroed but for
// its vector's array. Parts never escape the cluster — synchronous
// operations recycle at return, pendings at Wait — so the freelist
// turns the per-run allocations of the striped hot path, the part and
// a read's destination slice, into a steady-state zero.
func (cl *Cluster) getPart() *part {
	if n := len(cl.partFree); n > 0 {
		pt := cl.partFree[n-1]
		cl.partFree = cl.partFree[:n-1]
		*pt = part{vec: pt.vec[:0]}
		return pt
	}
	return &part{}
}

// putParts returns retired parts to the freelist. Callers must drop
// every reference first (results are merged into the pending's own
// reply before any part is recycled).
func (cl *Cluster) putParts(parts []*part) {
	cl.partFree = append(cl.partFree, parts...)
}

// makeRoom retires outstanding parts oldest-first until session s can
// accept one more request — the cross-server analogue of Session's
// window backpressure. parts complete out of order on the wire, so
// waiting the oldest always makes progress.
func makeRoom(p *sim.Proc, s *Session, parts []*part) {
	for _, pt := range parts {
		if s.InFlight() < s.Window() {
			return
		}
		pt.retire(p)
	}
}

// mergeAttr picks the authoritative attributes out of per-server
// responses: the largest size wins (a data server that holds the tail
// stripe knows more of the file than one that does not).
func mergeAttr(parts []*part) kernel.Attr {
	var attr kernel.Attr
	for _, pt := range parts {
		if pt.answered && (attr.Ino == 0 || pt.resp.Attr.Size > attr.Size) {
			attr = pt.resp.Attr
		}
	}
	return attr
}

// firstError returns the first per-server failure in offset order.
func firstError(parts []*part) error {
	for _, pt := range parts {
		if pt.err != nil {
			return pt.err
		}
	}
	return nil
}

// firstAppError returns the first non-fault failure in offset order —
// application-level errors always abort, while transport faults are
// the replication layer's to absorb.
func firstAppError(parts []*part) error {
	for _, pt := range parts {
		if pt.err != nil && !fabric.IsFault(pt.err) {
			return pt.err
		}
	}
	return nil
}

// issueRead starts one run's read into [at, at+r.n) of dst on the
// member serving its read slice under the inode's layout, failing over
// synchronously when the transport rejects the send (dead peer). parts
// are this operation's earlier issues, retired by makeRoom when the
// target's window is full.
func (cl *Cluster) issueRead(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, r run, dst core.Vector, at int, parts []*part) (*part, error) {
	pt := cl.getPart()
	pt.vec = dst.AppendSlice(pt.vec, at, r.n)
	got, err := withReplica(cl, lay, ino, r.off, r.n, func(idx int) (*part, error) {
		s := cl.sessions[idx]
		makeRoom(p, s, parts)
		pd, err := s.startData(p, OpRead, ino, r.off, pt.vec, false)
		if err != nil {
			return nil, err
		}
		cl.StripeReads.Add(r.n)
		pt.pd, pt.r, pt.target = pd, r, idx
		return pt, nil
	})
	if err != nil {
		cl.partFree = append(cl.partFree, pt)
	}
	return got, err
}

// failoverReads retries, in offset order, every read part that failed
// with a transport fault, re-reading it from the next alive replica
// under the inode's layout (the faulting server is excluded first).
// Retries travel the replica's synchronous control path — NOT a window
// slot: failover runs inside some PendingOp.Wait, while the caller's
// other unretired pendings may legitimately hold every slot of the
// surviving servers, so a slot-bound retry could deadlock against its
// own pipeline. A part whose every replica is excluded keeps its fault
// error.
func (cl *Cluster) failoverReads(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, parts []*part) {
	for _, pt := range parts {
		for pt.err != nil && fabric.IsFault(pt.err) {
			cl.markDown(pt.target)
			idx := cl.readIdx(lay, ino, pt.r.off)
			if idx < 0 {
				break // every replica gone; the fault stands
			}
			cl.Failovers.Add(pt.r.n)
			pt.target = idx
			resp, err := cl.sessions[idx].c.ctlData(p, OpRead, ino, pt.r.off, pt.vec, &pt.resp)
			pt.answered, pt.err = resp != nil, err
			if pt.err == nil {
				cl.StripeReads.Add(pt.r.n)
			}
		}
	}
}

// Read implements Client: StartRead's issue (startData) and the
// pending's Wait, back to back on the cluster's own pending (no
// per-operation allocation). The range splits into per-server runs
// issued in parallel through each server's window; data lands directly
// in the caller's vector (each run scatters into its own slice of dst,
// so striping adds no copies). The merged byte count is the contiguous
// prefix before the first server-clipped (EOF) run. A run whose target
// faults is re-read from the stripe's next alive replica; only a run
// with no replicas left fails the read.
func (cl *Cluster) Read(p *sim.Proc, ino kernel.InodeID, off int64, dst core.Vector) (*Resp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	if err := cl.startData(p, &cl.syncOp, OpRead, ino, off, dst); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return cl.syncOp.Wait(p)
}

// mergeRead folds per-run read responses into one: byte count is the
// contiguous prefix, attributes are the authoritative merge.
//
// allocfree
func mergeRead(parts []*part) Resp {
	n := 0
	for _, pt := range parts {
		n += int(pt.resp.N)
		if int(pt.resp.N) < pt.r.n {
			break // EOF inside this run; later runs are past the end
		}
	}
	return Resp{Status: StOK, Attr: mergeAttr(parts), Epoch: mergeEpoch(parts), N: uint32(n)}
}

// mergeEpoch picks the newest size epoch out of per-server responses
// (they agree except mid-race with a foreign exact size set, where the
// newest is the one to revalidate against).
func mergeEpoch(parts []*part) uint64 {
	var e uint64
	for _, pt := range parts {
		if pt.answered && pt.resp.Epoch > e {
			e = pt.resp.Epoch
		}
	}
	return e
}

// drainParts retires every part, discarding results — the error path.
// Without it an early return would leak window slots.
func drainParts(p *sim.Proc, parts []*part) {
	for _, pt := range parts {
		pt.retire(p)
	}
}

// Write implements Client: the striped issue loop and the pending's
// Wait shared with StartWrite, plus what only a synchronous write does
// — runs longer than one request are chunked (inside issueWrites), and
// a write that extends the file publishes its end: grow-only OpSetSize
// requests reconcile every other server's local size (see the package
// comment on size reconciliation). The publish rides beside the data,
// not after it: its first round leaves right behind the data
// (startPublish) and is collected once the data replied
// (finishPublish), so both legs are on the wire together and both have
// completed when Write returns. A replica that faults mid-write is
// excluded; the write succeeds as long as every run kept at least one
// clean replica.
func (cl *Cluster) Write(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (*Resp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	cp := &cl.syncOp
	if err := cl.startData(p, cp, OpWrite, ino, off, src); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	total := src.TotalLen()
	if total == 0 {
		return cp.Wait(p) // extends nothing: no size to publish
	}
	// The tail run's own targets reach the new end of file with the
	// data; the publish's first round skips them.
	tail := cl.tailScratch[:0]
	for _, pt := range cp.parts {
		if pt.ridx == len(cp.runs)-1 && !slices.Contains(tail, pt.target) {
			tail = append(tail, pt.target)
		}
	}
	cl.tailScratch = tail
	pub := cl.startPublish(p, cp.lay, ino, off+int64(total), tail)
	// Wait feeds the data replies' size epochs into the validated cache
	// BEFORE finishPublish judges the first round: a foreign truncate
	// the data replies reveal voids it, and the cached floor reset there
	// is what re-runs the publish for an overwrite below a stale cached
	// size.
	resp, err := cp.Wait(p)
	if err != nil {
		return resp, cl.finishPublish(p, pub, err)
	}
	if err := cl.finishPublish(p, pub, nil); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return resp, nil
}

// finishWriteParts is the shared epilogue of the two replicated write
// paths (Cluster.Write and StartWrite, both through clusterPending.Wait),
// returning the merged reply by value; every part must
// already be retired. Transport faults exclude their server; a
// non-fault error or a clean-but-short chunk aborts (a short chunk at
// a fixed offset is a hole, not a prefix, exactly like Session.Write's
// pipelined path — faulted parts carry no response and are judged by
// run coverage instead); otherwise every run must retain one replica
// all of whose chunks are clean. On success the merged response covers
// all `total` logical bytes.
func (cl *Cluster) finishWriteParts(ino kernel.InodeID, runs []run, parts []*part, total int) (Resp, error) {
	for _, pt := range parts {
		if pt.err != nil && fabric.IsFault(pt.err) {
			cl.markDown(pt.target)
		}
	}
	if err := firstAppError(parts); err != nil {
		return Resp{Status: StatusOf(err), Attr: mergeAttr(parts)}, err
	}
	for _, pt := range parts {
		if pt.err == nil && int(pt.resp.N) != pt.want {
			err := fmt.Errorf("rfsrv: short striped write (%d of %d) at %d", pt.resp.N, pt.want, pt.r.off)
			return Resp{Status: StIO, Attr: mergeAttr(parts)}, err
		}
	}
	if err := cl.checkRunCoverage(runs, parts); err != nil {
		return Resp{Status: StatusOf(err)}, err
	}
	// The write succeeded; record its byte ranges for every re-copy that
	// must see them: the resync journal of every excluded replica
	// (skipped at issue or faulted above), for Reinstate, and a running
	// migration's dirty set, for the membership change.
	cl.journalRunDirty(ino, runs)
	return Resp{Status: StOK, Attr: mergeAttr(parts), Epoch: mergeEpoch(parts), N: uint32(total)}, nil
}

// checkRunCoverage verifies, after a replicated write's parts retired,
// that every run retains at least one replica all of whose chunks
// completed cleanly. Parts that faulted mark their (run, target) pair
// dirty; a run covered by no clean pair has lost its data. The
// fault-free hot path (every write, outside fault-injection tests)
// allocates nothing: every part issued is a covering part.
func (cl *Cluster) checkRunCoverage(runs []run, parts []*part) error {
	anyErr := false
	for _, pt := range parts {
		if pt.err != nil {
			anyErr = true
			break
		}
	}
	if cap(cl.coverScratch) < len(runs) {
		cl.coverScratch = make([]bool, len(runs))
	}
	covered := cl.coverScratch[:len(runs)]
	for i := range covered {
		covered[i] = false
	}
	if !anyErr {
		for _, pt := range parts {
			covered[pt.ridx] = true
		}
	} else {
		type pair struct{ ridx, target int }
		dirty := make(map[pair]bool)
		for _, pt := range parts {
			if pt.err != nil {
				dirty[pair{pt.ridx, pt.target}] = true
			}
		}
		for _, pt := range parts {
			if pt.err == nil && !dirty[pair{pt.ridx, pt.target}] {
				covered[pt.ridx] = true
			}
		}
	}
	for ri, ok := range covered {
		if !ok {
			return fmt.Errorf("rfsrv: write run at %d lost on every replica: %w",
				runs[ri].off, fabric.ErrPeerDead)
		}
	}
	return nil
}

// sizePublish is one grow publish of an end of file, between its two
// halves: startPublish puts its first round on the wire, finishPublish
// collects and judges it and runs whatever rounds remain.
type sizePublish struct {
	ino   kernel.InodeID
	end   int64
	whole bool   // a whole-on-home file: never publishes
	on    bool   // a round was started and is not judged yet
	epoch uint64 // the observed size epoch the round carried
	round fanned
}

// startPublish begins reconciling file size to end: every server
// except skip (a write's tail run targets, whose local sizes reach end
// with the data) and the excluded ones gets a grow-only OpSetSize
// carrying this client's observed size epoch. Nothing goes out when
// this client holds a validated size >= end, and never on a one-server
// cluster. The round's flights hold each target's control path until
// finishPublish collects them, so every startPublish must reach its
// finishPublish — on the error paths too — and no other fan may run in
// between.
//
// A whole-on-home file never reconciles: its single data owner is its
// home (placement.home picks both), so the only group anyone asks
// about the file already holds the authoritative size — and with
// replication, every write landed on the same replica set a re-homed
// getattr walks. That class sidesteps the fan by placement (DESIGN.md
// §10); figures.SmallFile audits its zero and figures.SharedFile the
// fan's cost on every other layout.
func (cl *Cluster) startPublish(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, end int64, skip []int) sizePublish {
	sp := sizePublish{ino: ino, end: end, whole: lay == LayoutWhole}
	cl.publishRound(p, &sp, skip)
	return sp
}

// publishRound starts one round of sp under the cached epoch, unless
// the file is whole-on-home or the validated floor covers its end.
func (cl *Cluster) publishRound(p *sim.Proc, sp *sizePublish, skip []int) {
	size, epoch := cl.sz.floor(sp.ino)
	if sp.on = !sp.whole && size < sp.end; !sp.on {
		return
	}
	sp.epoch = epoch
	req := Req{Op: OpSetSize, Ino: sp.ino, Off: sp.end, Len: PackSetSize(false, epoch)}
	sp.round = cl.fanStart(p, cl.aliveTargets(0, len(cl.pl.members), skip), &req)
	addN(&cl.SetSizes, sp.round.tried)
}

// finishPublish collects sp's first round and settles the publish.
// dataErr is the outcome of the write the round rode beside: a failed
// write records nothing and returns dataErr (the round's flights are
// still waited, so the control paths go idle). Otherwise a round
// counts only if no target refused it as stale and the cached epoch is
// still the one it carried — a data reply that revealed a foreign
// truncate voids it. Every other case re-runs the decision, up to
// publish's cap, against every alive server: a foreign exact set that
// raced the write may have shrunk the tail targets after the data
// landed on them. A server that faults during reconciliation is
// excluded — not an error: the alive servers are consistent, which is
// all the cache records. The grow mode is idempotent, so a retry after
// a transient fault (write re-run, or Reinstate then write) replays it
// safely in any order. Servers refuse a stale observed epoch (a foreign
// exact size set ran since): their StStale replies carry the
// authoritative epoch, the cache entry resets, and the next round
// carries the fresh one.
func (cl *Cluster) finishPublish(p *sim.Proc, sp sizePublish, dataErr error) error {
	if sp.on {
		cl.fanWait(p, &sp.round)
	}
	if dataErr != nil {
		return dataErr
	}
	return publish("size reconciliation", func() (bool, error) {
		if !sp.on {
			if cl.publishRound(p, &sp, nil); !sp.on {
				return false, nil
			}
			cl.fanWait(p, &sp.round)
		}
		sp.on = false
		f := sp.round
		if _, epoch := cl.sz.floor(sp.ino); f.err == nil && !f.stale && epoch == sp.epoch {
			cl.sz.establish(sp.ino, sp.end, sp.epoch)
			return false, nil
		}
		// Stale or voided: retry. Application errors win over staleness.
		return f.err == nil, f.err
	})
}

// SetFileSize publishes an externally tracked end-of-file through the
// grow-only reconciliation: every alive server's local size is raised
// to at least size, under the validated cache (a no-op when a cached
// entry already covers it). This is the barrier piece asynchronous
// writers need — ORFS write-behind extends only the servers its dirty
// pages land on, then calls SetFileSize at its sync barrier so homed
// getattr and striped-read EOF clipping agree with the bytes it wrote.
func (cl *Cluster) SetFileSize(p *sim.Proc, ino kernel.InodeID, size int64) error {
	if size < 0 {
		return ErrInval
	}
	lay, err := cl.layoutFor(p, ino)
	if err != nil {
		return err
	}
	pub := cl.startPublish(p, lay, ino, size, nil)
	return cl.finishPublish(p, pub, nil)
}

// ---- pipelined data path (Async) ----

// clusterPending is one striped in-flight operation: the per-server
// parts of a single logical read or write, and the merged reply's
// record — the cluster's own pending's (syncOp) for the synchronous
// verbs, valid until the next one, and a Start* caller's for as long as
// it keeps the pending.
type clusterPending struct {
	cl     *Cluster
	ino    kernel.InodeID
	lay    LayoutClass
	parts  []*part
	runs   []run // the logical runs (writes: replica coverage check)
	want   int   // expected total (writes; -1 for reads)
	issued sim.Time

	done bool
	resp Resp
	err  error

	gated bool // counted in the view's pending until Wait
}

// newPending resets cp for a new striped operation on ino, keeping
// its parts/runs backing arrays (want < 0 marks a read).
func (cl *Cluster) newPending(cp *clusterPending, ino kernel.InodeID, lay LayoutClass, want int) *clusterPending {
	*cp = clusterPending{cl: cl, ino: ino, lay: lay, want: want, parts: cp.parts[:0], runs: cp.runs[:0]}
	return cp
}

// add appends an issued part. The first part's window-entry instant is
// the operation's issue time — the same instant a Session would
// report, keeping latency accounting bit-identical in the one-server
// configuration — recorded now, because a part's Pending lives in its
// window slot (Session.launch), which the part's retirement hands on.
func (cp *clusterPending) add(pt *part) {
	if len(cp.parts) == 0 {
		cp.issued = pt.pd.fl.issued
	}
	cp.parts = append(cp.parts, pt)
}

// abandon is the issue loops' error path: every part already out is
// retired (an early return would leak window slots) and recycled.
func (cp *clusterPending) abandon(p *sim.Proc, err error) error {
	drainParts(p, cp.parts)
	cp.cl.putParts(cp.parts)
	cp.parts = cp.parts[:0]
	return err
}

// Wait implements PendingOp: retires every part and merges. Faulted
// read parts fail over to their stripe's next alive replica before the
// merge; faulted write parts exclude their server and are tolerated as
// long as every run kept a clean replica. Every reply feeds the
// validated caches; a write's merge (finishWriteParts) records its
// ranges for every re-copy that must see them. The parts return to the
// cluster's freelist once merged — the memoized (resp, err) is all a
// second Wait needs.
func (cp *clusterPending) Wait(p *sim.Proc) (*Resp, error) {
	if cp.done {
		return &cp.resp, cp.err
	}
	cp.done = true
	for _, pt := range cp.parts {
		pt.retire(p)
	}
	if cp.want < 0 {
		cp.cl.failoverReads(p, cp.lay, cp.ino, cp.parts)
	} else {
		cp.resp, cp.err = cp.cl.finishWriteParts(cp.ino, cp.runs, cp.parts, cp.want)
	}
	for _, pt := range cp.parts {
		if pt.answered {
			cp.cl.observeResp(&pt.resp)
		}
	}
	if cp.want < 0 {
		if err := firstError(cp.parts); err != nil {
			cp.resp, cp.err = Resp{Status: StatusOf(err), Attr: mergeAttr(cp.parts)}, err
		} else {
			cp.resp = mergeRead(cp.parts)
		}
	}
	cp.cl.notePendingDone(cp)
	cp.cl.putParts(cp.parts)
	cp.parts = cp.parts[:0]
	return &cp.resp, cp.err
}

// Issued implements PendingOp: the time the first per-server request
// entered its window (see add).
func (cp *clusterPending) Issued() sim.Time { return cp.issued }

// issueReads starts one read per read slice run of [off, off+len(dst))
// into cp, so every replica of a stripe serves its slice of it.
// An operation spanning more same-server stripes than that server's
// window retires its own earlier runs to make room (inside issueRead)
// — it must never depend on the caller, who cannot retire a pending it
// has not been handed yet.
func (cl *Cluster) issueReads(p *sim.Proc, cp *clusterPending, off int64, dst core.Vector) error {
	for _, r := range cl.runs(cp.lay, cp.ino, off, dst.TotalLen(), true) {
		pt, err := cl.issueRead(p, cp.lay, cp.ino, r, dst, int(r.off-off), cp.parts)
		if err != nil {
			return cp.abandon(p, err)
		}
		cp.add(pt)
	}
	return nil
}

// issueWrites starts the striped write of src at off into cp, in run →
// replica → chunk order: each run goes to its primary and, with
// replication, to the next R-1 alive servers, pipelined across the
// per-server windows; a run longer than one request (a merged
// single-server range or a whole-on-home file — synchronous writes only,
// StartWrite caps the whole operation at one request) is chunked at
// MaxWriteChunk exactly like Session.Write. A replica whose transport
// faults at issue is excluded and the others carry the run; a run no
// replica accepted fails the operation.
func (cl *Cluster) issueWrites(p *sim.Proc, cp *clusterPending, off int64, src core.Vector) error {
	// The pending outlives this call, so it gets its own copy of the
	// runs (cl.runs returns per-operation scratch).
	cp.runs = append(cp.runs, cl.runs(cp.lay, cp.ino, off, src.TotalLen(), false)...)
	for ri, r := range cp.runs {
		live := 0
		for j := 0; j < cl.pl.replicas; j++ {
			idx := cl.pl.slot(r.owner, j)
			if cl.down[idx] {
				continue
			}
			s := cl.sessions[idx]
			live++
			for done := 0; done < r.n; {
				chunk := min(r.n-done, MaxWriteChunk)
				at := r.off + int64(done)
				makeRoom(p, s, cp.parts)
				pd, err := s.startData(p, OpWrite, cp.ino, at, src.Slice(int(at-off), chunk), false)
				if err != nil {
					if !fabric.IsFault(err) {
						return cp.abandon(p, err)
					}
					cl.markDown(idx)
					live-- // this replica is lost; others may carry the run
					break
				}
				cl.StripeWrites.Add(chunk)
				pt := cl.getPart()
				pt.pd, pt.r = pd, run{owner: r.owner, off: at, n: chunk}
				pt.want, pt.ridx, pt.target = chunk, ri, idx
				cp.add(pt)
				done += chunk
			}
		}
		if live == 0 {
			return cp.abandon(p, cl.allReplicasDown(r.off))
		}
	}
	return nil
}

// StartRead implements Async: the striped read issues without waiting.
// Callers holding unretired pendings must consult CanStart first (see
// the Async contract) — the per-server issues here block on their own
// windows.
func (cl *Cluster) StartRead(p *sim.Proc, ino kernel.InodeID, off int64, dst core.Vector) (PendingOp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return nil, err
	}
	defer cl.exitOp()
	cp := new(clusterPending)
	if err := cl.startData(p, cp, OpRead, ino, off, dst); err != nil {
		return nil, err
	}
	cl.notePendingStart(cp)
	return cp, nil
}

// startData is the one issue path of the four data entry points — Read
// and Write are StartRead and StartWrite plus Wait, on the cluster's own
// pending: a negative offset is invalid, the inode's layout class
// decides where its bytes live, and cp gets one part per run of
// [off, off+len(data)) — or, for a zero-length operation, issueZero's
// one.
func (cl *Cluster) startData(p *sim.Proc, cp *clusterPending, op Op, ino kernel.InodeID, off int64, data core.Vector) error {
	if off < 0 {
		return ErrInval
	}
	lay, err := cl.layoutFor(p, ino)
	if err != nil {
		return err
	}
	n, want := data.TotalLen(), -1
	if op == OpWrite {
		want = n
	}
	cl.newPending(cp, ino, lay, want)
	switch {
	case n == 0:
		return cl.issueZero(p, cp, off, data)
	case op == OpRead:
		return cl.issueReads(p, cp, off, data)
	}
	return cl.issueWrites(p, cp, off, data)
}

// issueZero starts a zero-length operation's single attr-only request
// at off on the offset's preferred replica (so the RPC trace and the
// returned attributes match the Session's) as cp's only part, with the
// data path's issue-time failover. A Wait-time fault is judged like any
// other part's: a read fails over, and a write's synthetic run makes
// finishWriteParts' coverage check see it instead of vacuously
// succeeding.
func (cl *Cluster) issueZero(p *sim.Proc, cp *clusterPending, off int64, vec core.Vector) error {
	op, r := OpRead, run{owner: cl.pl.owner(cp.lay, cp.ino, off), off: off}
	if cp.want == 0 {
		op = OpWrite
		cp.runs = append(cp.runs, r)
	}
	pt, err := withReplica(cl, cp.lay, cp.ino, r.off, 0, func(idx int) (*part, error) {
		pd, err := cl.sessions[idx].startData(p, op, cp.ino, r.off, vec, false)
		if err != nil {
			return nil, err
		}
		pt := cl.getPart()
		pt.pd, pt.r, pt.target = pd, r, idx
		pt.vec = append(pt.vec, vec...) // the part's own array: it outlives the call
		return pt, nil
	})
	if err != nil {
		return err
	}
	cp.add(pt)
	return nil
}

// StartWrite implements Async: one striped write request of at most
// MaxWriteChunk, issued without waiting. Unlike the synchronous Write
// it does not reconcile sizes across servers — asynchronous writers
// (ORFS write-behind) track EOF themselves and their dirty data is
// re-readable from the servers that own it.
func (cl *Cluster) StartWrite(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (PendingOp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return nil, err
	}
	defer cl.exitOp()
	if total := src.TotalLen(); total > MaxWriteChunk {
		return nil, fmt.Errorf("rfsrv: StartWrite of %d bytes exceeds one %d-byte request", total, MaxWriteChunk)
	}
	cp := new(clusterPending)
	if err := cl.startData(p, cp, OpWrite, ino, off, src); err != nil {
		return nil, err
	}
	cl.notePendingStart(cp)
	// The size cache is deliberately NOT updated here: sizes[ino]
	// records "every server reconciled to this size", and an async
	// write extends only the servers its runs touch. The next
	// synchronous Write past this end publishes as usual; callers
	// with their own EOF tracking publish it through SetFileSize.
	return cp, nil
}

// ---- metadata path ----

// syncMeta is one synchronous metadata round trip on server idx's
// control path (FabricClient.startCtl — never a window slot), answered
// into the caller's record into.
func (cl *Cluster) syncMeta(p *sim.Proc, idx int, req *Req, into *Resp) (*Resp, error) {
	c := cl.sessions[idx].c
	fl, err := c.startCtl(p, req)
	if err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return c.waitCtl(p, &fl, into)
}

// fanFlight is one control-path request of a fan in flight.
type fanFlight struct {
	target int
	fl     flight
}

// fanned is what one control-path fan produced.
type fanned struct {
	// flights are the requests on the wire between fanStart and
	// fanWait, in cluster scratch.
	flights []fanFlight
	// resps holds the answer of every target that gave one — application
	// statuses included; faulted targets and stale refusals are not in
	// it — in target order. The answers and the list are cluster
	// scratch, valid until the next fan.
	resps []*Resp
	// tried counts the targets the request was started on; extra counts
	// those started while an earlier one was already on the wire (the
	// fan-out beyond the first server).
	tried, extra int
	// stale: some target refused the observed size epoch from AHEAD of
	// the cache — the refusal refreshed the cache entry, and the caller
	// revalidates and retries.
	stale bool
	// err is the first application error, at issue or in a reply.
	err error
}

// fan is the one control-path fan: fanStart and fanWait back to back.
// req goes out on the control path of every target in order, all in
// flight together (each server's own ctl slot — see
// FabricClient.startCtl — so a fan never waits on the data windows),
// then each is waited in order. A target whose transport faults, at
// issue or at wait, is excluded — a degraded-mode fact, never an error
// or divergence. Every answer feeds the validated caches. An
// ErrStaleEpoch refusal is classified by sizeBook.behind: a refuser
// BEHIND the cache missed an exact size set while dead in another
// client's view, no retry epoch can satisfy it and the coherent
// members at once, so it is excluded like a fault; one ahead of the
// cache reports stale. What the answers mean — agreement, in-doubt
// windows, which counter a request bumps — is the caller's verdict.
// Results live in cluster scratch: fans never nest, and the one fan
// split across other work — a write's size publish, started beside
// its data — runs no other fan between its halves.
func (cl *Cluster) fan(p *sim.Proc, targets []int, req *Req) fanned {
	f := cl.fanStart(p, targets, req)
	cl.fanWait(p, &f)
	return f
}

// fanStart issues the fan: req on every target's control path, in
// order. A target whose transport faults at issue is excluded; any
// other issue error stops the fan there (f.err), and the flights
// already out are still fanWait's to collect. Each flight holds its
// target's control path until fanWait. One reusable request serves the
// whole fan: startCtl stamps and encodes it into the target's control
// buffer before returning, so the next target may overwrite it
// (per-server clones would only feed the garbage collector).
func (cl *Cluster) fanStart(p *sim.Proc, targets []int, req *Req) fanned {
	f := fanned{flights: cl.fanFlights[:0]}
	for _, i := range targets {
		f.tried++
		if len(f.flights) > 0 {
			f.extra++
		}
		cl.fanReq = *req
		fl, err := cl.sessions[i].c.startCtl(p, &cl.fanReq)
		if err != nil {
			if fabric.IsFault(err) {
				cl.markDown(i)
				continue
			}
			f.err = err
			break
		}
		f.flights = append(f.flights, fanFlight{target: i, fl: fl})
	}
	return f
}

// fanWait collects a started fan: every flight is waited in order,
// releasing its control path, and classified (see fan).
func (cl *Cluster) fanWait(p *sim.Proc, f *fanned) {
	flights := f.flights
	if cap(cl.answers) < len(flights) {
		cl.answers = make([]Resp, len(flights))
	}
	answers, resps := cl.answers[:len(flights)], cl.respScratch[:0]
	for k := range flights {
		i := flights[k].target
		resp, err := cl.sessions[i].c.waitCtl(p, &flights[k].fl, &answers[k])
		if err != nil && fabric.IsFault(err) {
			cl.markDown(i)
			continue
		}
		cl.observeResp(resp)
		if errors.Is(err, ErrStaleEpoch) {
			if cl.sz.behind(resp.Attr.Ino, resp.Epoch) {
				cl.markDown(i)
			} else {
				f.stale = true
			}
			continue
		}
		if err != nil && f.err == nil {
			f.err = err
		}
		if resp != nil {
			resps = append(resps, resp)
		}
	}
	cl.fanFlights, cl.respScratch = flights[:0], resps[:0]
	f.flights, f.resps = nil, resps
}

// aliveTargets collects, in cluster scratch, the session slots of the
// n placement positions starting at from that are neither excluded nor
// in skip — a fan's target list (all members: from 0, n = the member
// count; an owner group: from its residue, n = R).
func (cl *Cluster) aliveTargets(from, n int, skip []int) []int {
	out := cl.targetScratch[:0]
	for j := 0; j < n; j++ {
		if i := cl.pl.slot(from, j); !cl.down[i] && !slices.Contains(skip, i) {
			out = append(out, i)
		}
	}
	cl.targetScratch = out
	return out
}

// addN records n single-request operations on c.
func addN(c *sim.Counter, n int) {
	for ; n > 0; n-- {
		c.Add(1)
	}
}

// disagree returns the first answer whose (status, inode) differs from
// the first answer's, or nil when all agree.
func disagree(resps []*Resp) *Resp {
	for _, r := range resps[1:] {
		if r.Status != resps[0].Status || r.Attr.Ino != resps[0].Attr.Ino {
			return r
		}
	}
	return nil
}

// Meta implements Client. It takes the client-facing operations only —
// lookup, getattr, readdir, create, mkdir, unlink, rmdir, the packed
// rename and truncate — and refuses the servers' internal verbs
// (OpSetSize, OpLink, OpScrub, OpMember, the rename phases, ...) with
// ErrInval before anything is sent: a grow publish is SetFileSize.
// Read-only operations go to their home (homedRead); truncates fan to
// every alive server (truncate) in either namespace; the sharded
// namespace routes every other mutation to its owner group
// (shardMeta), the replicated one to every alive server in server
// order, and the per-server answers must agree (same status, same
// inode) or the cluster reports namespace divergence — a faulting
// server is excluded, never counted as divergent. OpTruncate is
// translated to the exact mode of OpSetSize — same wire size, but it
// carries this client's observed size epoch, so servers refuse it when
// the view is stale and the cluster revalidates and retries.
func (cl *Cluster) Meta(p *sim.Proc, req *Req) (*Resp, error) {
	if err := validateMeta(req); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	mut := true
	switch req.Op {
	case OpLookup, OpGetattr, OpReaddir:
		mut = false
	case OpCreate, OpMkdir, OpUnlink, OpRmdir, OpRenameLocal, OpTruncate:
	default:
		return &Resp{Status: StInval}, ErrInval
	}
	if err := cl.enterOp(p, mut); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	switch req.Op {
	case OpLookup, OpGetattr, OpReaddir:
		// A directory with an in-doubt rename parked on it (sharded
		// only) gets the rename re-driven first, so walks observe a
		// settled namespace instead of StBusy marks.
		if len(cl.renameDoubt) > 0 {
			cl.resolveRenameDoubt(p, req.Ino)
		}
		return cl.homedRead(p, req)
	case OpTruncate:
		return cl.truncate(p, req.Ino, req.Off)
	}
	if cl.pl.sharded {
		return cl.shardMeta(p, req)
	}
	return cl.fanout(p, ring, req)
}

// truncate fans an exact OpSetSize (shrink-capable, epoch-bumping) to
// every alive server, revalidating and retrying when the observed
// epoch proves stale, so callers never see a spurious ErrStaleEpoch
// from a racing foreign size set.
func (cl *Cluster) truncate(p *sim.Proc, ino kernel.InodeID, size int64) (resp *Resp, err error) {
	if rerr := publish("size set", func() (bool, error) {
		_, epoch := cl.sz.floor(ino)
		resp, err = cl.fanout(p, ring, &Req{Op: OpSetSize, Ino: ino, Off: size, Len: PackSetSize(true, epoch)})
		// The refusals refreshed the cached epoch (observeResp in
		// fanout); the next round carries the authoritative one.
		return errors.Is(err, ErrStaleEpoch), nil
	}); rerr != nil {
		err = rerr
	}
	return resp, err
}

// homedRead runs a read-only metadata request against the first alive
// member of its home — the inode's owner group in the sharded
// namespace; in the replicated one the path component's hashed home
// (lookup) or the inode's (getattr, readdir), re-homing past excluded
// servers — failing over whenever the transport faults. A member that
// answers under an epoch behind the size cache missed an exact set and
// its sizes are pre-truncate stale (sizeBook.behind): serving its reply
// would hand the caller a resurrected size, so it is excluded too.
// Read-only answers feed only the EPOCH side of the size cache
// (observeResp): a cached size means "every alive server reconciled to
// this size", and a single server's view (e.g. the home after an async
// StartWrite that extended only its own stripes) cannot establish that
// — caching it would silently disable the next write's size publish.
func (cl *Cluster) homedRead(p *sim.Proc, req *Req) (*Resp, error) {
	owner, pos, span := cl.homeOf(req)
	for {
		resp, idx, err := cl.metaFirstAlive(p, req,
			func() int { return cl.firstUp(pos, 0, span) },
			func() error { return cl.groupDead(req.Op, owner) })
		if idx < 0 || !cl.sz.behind(resp.Attr.Ino, resp.Epoch) {
			return resp, err
		}
		cl.markDown(idx)
		cl.Failovers.Add(0)
	}
}

// ring names the whole member ring where a fan or an exclusion error
// takes an owner group.
const ring = -1

// groupOf names the members that hold directory dir's dentries — where
// its creates and unlinks go: the owner group of its residue in the
// sharded namespace, the whole ring (owner ring) in the replicated
// one; pos and span are the group's ring positions (placement.nsGroup).
//
// allocfree
func (cl *Cluster) groupOf(dir kernel.InodeID) (owner, pos, span int) {
	if pos, span = cl.pl.nsGroup(dir); cl.pl.sharded {
		return pos, pos, span
	}
	return ring, pos, span
}

// homeOf is the one read router: the group a read-only request goes to
// (owner, as groupDead takes it) and the span ring positions from pos
// whose first alive member answers it. That is the inode's group —
// and, when the whole ring holds the name, the hashed home on it: the
// path component's for a lookup, the inode's otherwise, so reads
// spread without a directory service.
//
// allocfree
func (cl *Cluster) homeOf(req *Req) (owner, pos, span int) {
	if owner, pos, span = cl.groupOf(req.Ino); owner == ring {
		pos = cl.pl.home(req.Ino)
		if req.Op == OpLookup {
			pos = cl.pl.pathHome(req.Ino, req.Name)
		}
	}
	return owner, pos, span
}

// fanout replicates a mutation to every alive member of an owner group
// — or, owner == ring, of the whole ring (fan) — and verifies the
// answers agree. A member that faults mid-mutation is excluded — its
// missing answer is a degraded-mode fact, not divergence; it must
// re-sync before Reinstate. An entirely excluded group is an error. A
// whole-ring mutation that succeeded updates the size cache and the
// resync journals (noteMutation); an owner group's callers journal
// their own.
func (cl *Cluster) fanout(p *sim.Proc, owner int, req *Req) (*Resp, error) {
	from, n := 0, len(cl.pl.members)
	if owner != ring {
		from, n = owner, cl.pl.replicas
	}
	f := cl.fan(p, cl.aliveTargets(from, n, nil), req)
	addN(&cl.MetaFanout, f.extra)
	if f.stale {
		// A foreign exact size set raced this OpSetSize: some servers
		// may have applied it (winning their epoch's slot) while the
		// rest refused — that is staleness to revalidate and retry
		// against, never namespace divergence.
		return &Resp{Status: StStale}, ErrStaleEpoch
	}
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
		if owner == ring {
			return &Resp{Status: StIO}, fmt.Errorf("rfsrv: cluster namespace diverged on %v %q (status %d/ino %d vs %d/%d)",
				req.Op, req.Name, base.Status, base.Attr.Ino, r.Status, r.Attr.Ino)
		}
		return &Resp{Status: StIO}, fmt.Errorf("rfsrv: owner group %d diverged on %v %q (status %d/ino %d vs %d/%d)",
			owner, req.Op, req.Name, base.Status, base.Attr.Ino, r.Status, r.Attr.Ino)
	}
	if owner == ring {
		cl.noteMutation(req, base, f.err)
	}
	// The answer outlives the fan's scratch: callers run further fans
	// before they return it.
	kept := *base
	return &kept, f.err
}

// groupDead is the error for an owner group — or, owner == ring, the
// whole ring — whose every member is excluded; it satisfies
// fabric.IsFault.
func (cl *Cluster) groupDead(op Op, owner int) error {
	if owner == ring {
		return fmt.Errorf("rfsrv: %v: every server excluded: %w", op, fabric.ErrPeerDead)
	}
	return fmt.Errorf("rfsrv: %v: every server of owner group %d excluded: %w", op, owner, fabric.ErrPeerDead)
}

// noteMutation updates the size cache and the resync journals after a
// replicated mutation succeeded on every alive server. Namespace
// mutations are journaled for the excluded servers; a truncate (the
// exact OpSetSize) is not: Reinstate re-images sizes, epochs and
// layouts as state.
func (cl *Cluster) noteMutation(req *Req, resp *Resp, err error) {
	if err != nil || resp == nil {
		return
	}
	switch req.Op {
	case OpCreate:
		cl.sz.establish(resp.Attr.Ino, resp.Attr.Size, resp.Epoch)
		cl.journalMutationAll(*req, resp.Attr.Ino)
	case OpMkdir, OpUnlink, OpRmdir, OpRenameLocal:
		cl.journalMutationAll(*req, resp.Attr.Ino)
	case OpSetSize:
		cl.sz.establish(req.Ino, req.Off, resp.Epoch)
	}
}

// ---- combined batches ----

// share is one server's part of a combined batch: the requests bound
// for session slot, in original order, and how far the run has got.
type share struct {
	slot int
	reqs []*Req
	idx  []int    // each request's position in the caller's batch
	done int      // requests answered, or given up on
	fls  []flight // the batch on the wire, a flight per request (session scratch)
}

// add appends request r, position pos of the caller's batch.
func (sh *share) add(pos int, r *Req) {
	sh.idx = append(sh.idx, pos)
	sh.reqs = append(sh.reqs, r)
}

// newShares returns the cluster's share scratch — one per session slot,
// emptied, backing arrays kept (combined batches never nest: each run
// completes before the next is built).
func (cl *Cluster) newShares() []share {
	if cl.shares == nil {
		cl.shares = make([]share, len(cl.sessions))
	}
	for i := range cl.shares {
		sh := &cl.shares[i]
		*sh = share{slot: i, reqs: sh.reqs[:0], idx: sh.idx[:0]}
	}
	return cl.shares
}

// runShares is the one combined-batch driver: every share runs to
// completion in parallel rounds — one combined batch per server per
// round (Session.startBatch: up to a window of requests, one fabric
// send, one reply), all in flight together, then all retired; a started
// batch is always retired, so no path leaks a window slot, and the next
// round of a share starts at the first request its last reply left
// unanswered (answerFits). A server whose
// transport faults, at start or at wait, is excluded and its share
// ends. Every reply feeds the validated caches; one that refuses an
// observed size epoch from BEHIND the book excludes its server like a
// fault (sizeBook.behind: no retry can satisfy it).
//
// The replies merge into out by the caller's positions, each the first
// to answer its request, copied into the caller's record at the same
// position of keep — replicated requests must agree on (status, inode)
// — and nothing retries: the
// first error, a fault and a stale refusal included, ends the run with
// the round it surfaced in, and the caller re-issues around whoever
// was excluded.
//
// allocfree
func (cl *Cluster) runShares(p *sim.Proc, shares []share, out []*Resp, keep []Resp) (err error) {
	for {
		started := false
		for k := range shares {
			sh := &shares[k]
			if sh.done >= len(sh.reqs) || cl.down[sh.slot] {
				continue
			}
			fls, serr := cl.sessions[sh.slot].startBatch(p, sh.reqs, sh.done)
			if serr != nil {
				sh.done = len(sh.reqs)
				if fabric.IsFault(serr) {
					cl.markDown(sh.slot)
				}
				if err == nil {
					err = serr
				}
				continue
			}
			sh.fls, started = fls, true
		}
		if !started {
			return err
		}
		for k := range shares {
			sh := &shares[k]
			if len(sh.fls) == 0 {
				continue
			}
			resps, werr := cl.sessions[sh.slot].retireBatch(p, sh.fls, cl.answers[:0])
			sh.fls, cl.answers = nil, resps[:0]
			for ri := range resps {
				cl.observeResp(&resps[ri])
			}
			// rerr is the batch's first error: the reply's own failure
			// when it answered nothing.
			var rerr error
			if len(resps) == 0 {
				rerr = werr
			}
			lagging := false
			for ri := range resps {
				r, pos := &resps[ri], sh.idx[sh.done+ri]
				var e error
				switch {
				case r.Status == StStale && cl.sz.behind(r.Attr.Ino, r.Epoch):
					lagging, e = true, ErrStaleEpoch
				case out[pos] != nil && r.Status != StStale && out[pos].Status != StStale &&
					(r.Status != out[pos].Status || r.Attr.Ino != out[pos].Attr.Ino):
					e = errDiverged
				default:
					e = ErrOf(r.Status)
				}
				if out[pos] == nil {
					keep[pos] = *r
					out[pos] = &keep[pos]
				}
				if e != nil && rerr == nil {
					rerr = e
				}
			}
			sh.done += len(resps)
			if lagging || werr != nil && fabric.IsFault(werr) {
				cl.markDown(sh.slot)
				sh.done = len(sh.reqs)
			}
			if err == nil {
				err = rerr
			}
		}
		if err != nil {
			return err
		}
	}
}

// combinedOps are the operations MetaBatch packs into combined batches;
// a batch that carries any other runs as Meta calls.
var combinedOps = []Op{OpLookup, OpGetattr, OpReaddir, OpCreate, OpUnlink}

// errDiverged reports replicas of one batched request that answered
// differently: the replicated namespace (or an owner group) diverged.
var errDiverged = errors.New("rfsrv: cluster namespace diverged in batch")

// MetaBatch implements Async: one driver for both namespaces. Lookups,
// getattrs and readdirs go to their home (homeOf); creates and unlinks
// to the group that holds the parent's dentries (groupOf) — every
// alive member of the ring replicated; sharded, an unlink to every
// alive member of the owner group and a create to the group's first
// alive member, which mints it, with an OpLink round reaching the rest
// after the batch. Each server's share is issued as combined batches in
// original order, every share in flight at once (runShares), so the
// §3.3-style combining survives striping; with one server it puts on
// the wire what Session.MetaBatch does
// (TestClusterOneServerMatchesSession). A batch that carries any other
// operation — mkdir, rmdir, rename, truncate — runs as Meta calls in
// order instead, which also retry stale size epochs.
// Batches flow through the per-server windows (that is what combines
// them), so callers must not hold unretired data pendings across a
// MetaBatch call. They route around already-excluded servers but do
// not retry mid-batch faults — a fault surfaces as the batch's error
// and the caller re-issues (Meta retries per request).
func (cl *Cluster) MetaBatch(p *sim.Proc, reqs []*Req) ([]*Resp, error) {
	if err := validateBatch(reqs); err != nil {
		return nil, err
	}
	if err := cl.enterOp(p, true); err != nil {
		return nil, err
	}
	defer cl.exitOp()
	if len(cl.aliveTargets(0, len(cl.pl.members), nil)) == 0 {
		return nil, fmt.Errorf("rfsrv: MetaBatch: every server excluded: %w", fabric.ErrPeerDead)
	}
	// The answers are the caller's to keep: records of the call's own.
	out, keep := make([]*Resp, len(reqs)), make([]Resp, len(reqs))
	if slices.ContainsFunc(reqs, func(r *Req) bool { return !slices.Contains(combinedOps, r.Op) }) {
		for i, r := range reqs {
			resp, err := cl.Meta(p, r)
			if resp != nil {
				keep[i] = *resp
				out[i] = &keep[i]
			}
			if err != nil {
				return out, err
			}
		}
		return out, nil
	}
	shares := cl.newShares()
	var minter []int // an owner group's create: the member that mints it
	for i, r := range reqs {
		owner, pos, span := cl.homeOf(r)
		if r.Op == OpCreate || r.Op == OpUnlink {
			owner, pos, span = cl.groupOf(r.Ino)
		}
		targets := cl.aliveTargets(pos, span, nil)
		if len(targets) == 0 {
			return nil, cl.groupDead(r.Op, owner)
		}
		w := r
		switch {
		case r.Op == OpCreate:
			// The routing residue (files inherit the parent's; none on
			// the ring) packs with the creator's layout class.
			if r.Len > uint32(layoutMax) {
				return nil, ErrInval
			}
			w = &Req{Op: OpCreate, Ino: r.Ino, Name: r.Name, Len: PackNode(owner+1, LayoutClass(r.Len))}
			if owner == ring {
				break
			}
			// An owner group's first alive member mints; the link round
			// after the batch reaches the rest.
			if minter == nil {
				minter = make([]int, len(reqs))
			}
			minter[i], targets = targets[0], targets[:1]
		case r.Op != OpUnlink:
			targets = targets[:1] // a read: the first alive member answers
		}
		// Every member's share carries the same *Req: flights start
		// sequentially and every start fully encodes (Session.startBatch).
		for k, s := range targets {
			if k > 0 {
				cl.MetaFanout.Add(1)
			}
			shares[s].add(i, w)
		}
	}
	if err := cl.runShares(p, shares, out, keep); err != nil {
		return out, err
	}
	// Post-batch rounds and bookkeeping, in request order: the ring's
	// mutations update the caches and journals like Meta's; an owner
	// group's creates replicate their dentry and unlinks scrub their
	// victim.
	for i, r := range reqs {
		owner, _, _ := cl.groupOf(r.Ino)
		resp := out[i]
		switch {
		case r.Op != OpCreate && r.Op != OpUnlink:
		case owner == ring:
			cl.noteMutation(r, resp, nil)
		case r.Op == OpUnlink:
			cl.journalGroup(owner, *r, resp.Attr.Ino)
			if err := cl.scrubVictim(p, resp.Attr.Ino, resp.Attr.Size); err != nil {
				return out, err
			}
		default:
			if err := cl.linkMinted(p, owner, minter[i], r, resp); err != nil {
				return out, err
			}
			cl.sz.establish(resp.Attr.Ino, resp.Attr.Size, resp.Epoch)
		}
	}
	return out, nil
}

var _ Client = (*Cluster)(nil)
