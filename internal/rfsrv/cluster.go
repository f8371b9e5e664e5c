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
// local size short of the true end of file. After each synchronous
// Write that extends a file, the cluster replays a grow-only OpSetSize
// to every other server, so any server's local size — and thus any
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
// server with R >= 2 loses no data. Faults are what the transport
// reports as such (fabric.IsFault: a dead peer at send time, or — with
// Session.SetRequestTimeout armed — a reply deadline expiring): the
// faulting server is recorded as *excluded* and never addressed again,
// reads of its stripes fail over to the next alive replica, writes
// succeed as long as every run keeps one clean replica, and namespace
// mutations simply skip it instead of reporting divergence. Exclusion
// is one-way — an operator who knows the server recovered calls
// Reinstate, which refuses to re-admit a server that missed namespace
// mutations (the caller must resync its backing store out of band
// first) and drops exactly the size-cache entries established during
// the server's exclusion (sizeBook.readmit) — the ones whose
// reconciliation fans skipped it — so the next write to an affected
// file replays the grow-only OpSetSize reconciliation.
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
// none: 64 KiB, the application chunk size of the scalability suites
// (so one figure-harness read maps to exactly one stripe).
const DefaultStripeSize = 64 * 1024

// ErrBadStripe rejects a stripe width that is not a positive
// page-aligned multiple no larger than MaxWriteChunk. Constructors
// wrap it with the offending value; errors.Is(err, ErrBadStripe)
// identifies the class.
var ErrBadStripe = errors.New("rfsrv: invalid stripe width")

// LayoutPolicy selects how a cluster client classifies files into
// stripe-layout classes (DESIGN.md §10). The zero value (and a cluster
// that never calls SetLayoutPolicy) treats every file as
// LayoutStandard and issues exactly the pre-layout RPC sequence —
// the bit-identity guarantee every existing figure rests on.
//
// All clients of one namespace must run the same policy, like mount
// options: placement is client-computed, so a policy-free client
// reading a whole-on-home file another client created would look for
// stripes on servers that never saw the data.
type LayoutPolicy struct {
	// Adaptive classifies unhinted creates as LayoutWhole and promotes
	// a whole file to LayoutStandard (migrating its bytes) when a write
	// or published size reaches past PromoteThreshold.
	Adaptive bool
}

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

	// nsEpochs counts, PER SERVER, the namespace-and-size mutations
	// this client directed at it (create/mkdir/unlink/rmdir, renames
	// and exact size sets) — mutations an excluded server misses
	// unrecoverably. A replicated cluster bumps every server's count on
	// each mutation (including excluded ones: a down server that missed
	// a fanned mutation must be refused Reinstate, so the bump may
	// never skip it); a sharded cluster bumps only the mutated
	// directory's owner group, which is what lets a server whose owned
	// slice stayed quiet reinstate while foreign slices churned. downNs
	// snapshots a server's count at exclusion time, so Reinstate can
	// tell whether the server's slice diverged while it was out.
	nsEpochs []uint64
	downNs   []uint64

	// sharded routes namespace mutations to per-directory owner groups
	// instead of fanning them to every server (EnableShardedNamespace;
	// DESIGN.md §11). Data striping and size coherence are unchanged.
	sharded bool

	// sz is the size coherence book (sizebook.go): the validated
	// (size, epoch) cache every reply feeds and, with
	// SetSizePublishBatch, the queue of deferred grow-only publishes.
	// The cluster runs the fans; the book keeps every rule about what a
	// cached size means.
	sz sizeBook

	// policy is the layout policy (SetLayoutPolicy); policyOn gates the
	// whole per-file layout machinery, so a policy-free cluster never
	// consults or populates the layout cache and stays bit-identical to
	// the pre-layout client.
	policy   LayoutPolicy
	policyOn bool

	// layouts caches each inode's layout class as learned from create
	// hints, OpSetLayout fans and reply nibbles (observeResp). Only
	// populated under an enabled policy. Entries ride the same
	// validated-cache discipline as sizes: a layout change bumps the
	// size epoch, so stale placement is caught by the epoch check.
	layouts map[kernel.InodeID]LayoutClass

	// migVA is the lazily mapped staging buffer promotions copy through
	// (one MaxWriteChunk region in sessions[0]'s buffer space).
	migVA vm.VirtAddr

	// Promotions counts whole-on-home files migrated to standard
	// striping (Bytes carries the migrated volume).
	Promotions sim.Counter

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
	respScratch   []*Resp // reply scratch of fan and of runShares' waits (neither runs inside the other)
	fanReq        Req
	shares        []share // runShares' per-slot scratch (newShares)

	// StripeReads and StripeWrites count data bytes issued per
	// direction; MetaFanout counts replicated metadata requests beyond
	// the first server; SetSizes counts OpSetSize reconciliation
	// requests.
	StripeReads, StripeWrites, MetaFanout, SetSizes sim.Counter

	// Failovers counts operations re-routed to a replica after a fault
	// (Bytes carries the re-read data volume); Excluded counts servers
	// marked down.
	Failovers, Excluded sim.Counter

	// Reinstates counts servers readmitted by Reinstate;
	// ReinstateRefusals counts readmissions that could not replay the
	// resync journal and fell back to a full-slice resync (or, with no
	// resync peers wired, were refused outright); RenameInDoubts
	// counts sharded cross-owner renames that surfaced
	// ErrRenameInDoubt. The torture harness (internal/torture)
	// consumes all three to cross-check its fault schedule against
	// what the cluster actually observed.
	Reinstates, ReinstateRefusals, RenameInDoubts sim.Counter

	// view is the shared membership view this cluster follows (nil for
	// a construction-time-fixed cluster; DESIGN.md §13); viewEpoch is
	// the epoch of the member ring currently adopted. staleMember
	// latches when a reply's membership epoch proves a viewless
	// cluster's fixed membership is outdated — every subsequent
	// operation fails with ErrStaleMembership.
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
	// Reinstate can replay them — or, once a journal spills its caps
	// (SetJournalLimits), rebuild the slice in full through peers
	// (SetResyncPeers).
	jn    journal
	peers []*Server

	// renameDoubt parks unresolved in-doubt renames, keyed by each
	// directory involved, so the next lookup/getattr/readdir walking
	// either directory re-drives the rename before reading
	// (resolveRenameDoubt).
	renameDoubt map[kernel.InodeID]inDoubtRename

	// ResyncOps counts journaled mutations replayed by Reinstate;
	// ResyncBytes counts data bytes re-copied to a returning server
	// (journal replay and full-slice resync both); ResyncSpills counts
	// journals that overflowed their bounds and fell back to
	// full-slice resync; ResyncFallbacks counts journal replays that
	// abandoned the batched fast path for the serial one because a
	// status needed a verification lookup (the server already held a
	// prefix of the journal); Migrated counts data bytes re-placed by
	// membership changes (Join/Retire/Bounce); RenameAutoResolves
	// counts in-doubt renames resolved by a later walk over the marked
	// entry rather than an explicit re-drive.
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
// len(sessions)), reads prefer the stripe's primary and fail over to a
// replica when the primary's transport reports a fault, and replicas=1
// degenerates bit-identically to NewCluster. See the package comment
// on replication and faults.
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
		down:     make([]bool, len(sessions)),
		nsEpochs: make([]uint64, len(sessions)),
		downNs:   make([]uint64, len(sessions)),
		sz:       newSizeBook(len(sessions)),
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

// SetLayoutPolicy enables per-file layout classification (DESIGN.md
// §10). Call it once, right after construction and before any traffic:
// placement decisions are cached per inode, so flipping the policy on
// a cluster that already served files would strand their data. Every
// client of the namespace must run the same policy (see LayoutPolicy).
//
// On a one-server cluster the policy is accepted but inert: every
// class degenerates to the same single run on server 0, and keeping
// the machinery off preserves the bit-identity-with-a-plain-Session
// guarantee under every policy.
//
// Mutually exclusive with the sharded namespace: a cluster running
// EnableShardedNamespace returns ErrShardLayoutConflict (sharding
// reuses the create request's Len field, which is where layout hints
// travel — see DESIGN.md §11 and the ROADMAP composition follow-up).
func (cl *Cluster) SetLayoutPolicy(pol LayoutPolicy) error {
	if cl.sharded {
		return fmt.Errorf("%w: EnableShardedNamespace is already on", ErrShardLayoutConflict)
	}
	cl.policy = pol
	cl.policyOn = len(cl.sessions) > 1
	if cl.policyOn && cl.layouts == nil {
		cl.layouts = make(map[kernel.InodeID]LayoutClass)
	}
	return nil
}

// observeResp feeds one server reply into the validated caches: the
// size epoch it carries for the inode it resolves goes to the size book
// (sizeBook.observe — it confirms the cached entry or proves a foreign
// exact size set ran), the layout nibble to the layout cache. Replies
// that resolve no inode are ignored.
func (cl *Cluster) observeResp(resp *Resp) {
	if resp == nil {
		return
	}
	if resp.MemberEpoch > cl.viewEpoch && cl.view == nil {
		// The reply is stamped with a membership epoch this cluster has
		// never seen and — with no attached view — can never adopt. It
		// poisons itself (ErrStaleMembership from the next entry gate)
		// rather than keep routing by a retired geometry.
		cl.staleMember = true
	}
	if resp.Attr.Ino == 0 || resp.Status != StOK && resp.Status != StStale {
		return
	}
	cl.sz.observe(resp.Attr.Ino, resp.Epoch)
	if cl.policyOn {
		// Every reply teaches the layout cache alongside the size cache;
		// with the policy off the nibble is ignored and the map stays
		// empty (no per-reply map cost on the default path).
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
// resync journal recorded during the exclusion — or rebuilds the
// server's slice in full when the journal spilled — before clearing
// the exclusion and dropping the size-cache entries established
// while the server was out.

// markDown records a server as excluded after an observed fault,
// snapshotting the mutation epoch, resetting the slot's resync journal
// — everything the server misses from here on is recorded for
// Reinstate to replay — and ticking the size book's exclusion stamp.
func (cl *Cluster) markDown(i int) {
	if !cl.down[i] {
		cl.down[i] = true
		cl.downNs[i] = cl.nsEpochs[i]
		cl.jn.reset(i)
		cl.sz.excluded(i)
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
// room for the range's runs — capped at the window size, because an
// operation needing more same-server slots than the window exists
// makes progress by retiring its own earlier runs (see StartRead), so
// what it requires from the caller is only that everyone else's slots
// are free. With replication the count covers every alive replica
// target of each run (what a write needs; reads need only one, so the
// answer is conservative — callers retire a little earlier, never
// deadlock). Per-file layouts made slot demand inode-dependent — a
// whole-on-home file needs one slot on its home where a striped file
// spreads — which is why CanStart takes the inode; it consults only
// the layout cache (never the wire), so an unresolved inode is paced
// as standard and corrected by the first reply.
func (cl *Cluster) CanStart(ino kernel.InodeID, off int64, n int) bool {
	if cap(cl.needScratch) < len(cl.sessions) {
		cl.needScratch = make([]int, len(cl.sessions))
	}
	need := cl.needScratch[:len(cl.sessions)]
	for i := range need {
		need[i] = 0
	}
	for _, r := range cl.runs(cl.layoutCached(ino), ino, off, n) {
		for j := 0; j < cl.pl.replicas; j++ {
			if idx := cl.pl.slot(r.owner, j); !cl.down[idx] {
				need[idx]++
			}
		}
	}
	for i, s := range cl.sessions {
		if need[i] == 0 {
			continue
		}
		if need[i] > s.Window() {
			need[i] = s.Window()
		}
		if s.InFlight()+need[i] > s.Window() {
			return false
		}
	}
	return true
}

// ---- placement under faults ----
//
// Where bytes and dentries live is cl.pl's answer (placement.go); what
// the Cluster adds is the exclusion state placement knows nothing of.

// firstUp returns the first non-excluded slot among the span ring
// positions starting at pos, or -1: a replica group's preferred member
// (span R) or a hashed home's stand-in (span N) — the one
// first-alive-of-group loop.
func (cl *Cluster) firstUp(pos, span int) int {
	for j := 0; j < span; j++ {
		if k := cl.pl.slot(pos, j); !cl.down[k] {
			return k
		}
	}
	return -1
}

// readIdx returns the preferred read target for byte off of an inode
// under its layout, as a session slot: the primary when alive, else
// the first alive replica, else -1.
func (cl *Cluster) readIdx(lay LayoutClass, ino kernel.InodeID, off int64) int {
	return cl.firstUp(cl.pl.owner(lay, ino, off), cl.pl.replicas)
}

// layoutCached returns the inode's cached layout class without
// traffic: LayoutStandard when the policy machinery is off or the
// inode has not been resolved yet.
func (cl *Cluster) layoutCached(ino kernel.InodeID) LayoutClass {
	if !cl.policyOn {
		return LayoutStandard
	}
	return cl.layouts[ino]
}

// layoutFor resolves the layout class a data operation must use. With
// the policy on, an inode this client has never resolved costs one
// homed getattr on the control path (the reply teaches both caches);
// every create, lookup or prior data reply already populated the cache
// for the normal open-then-read lifecycle, so the fetch is rare.
func (cl *Cluster) layoutFor(p *sim.Proc, ino kernel.InodeID) (LayoutClass, error) {
	if !cl.policyOn {
		return LayoutStandard, nil
	}
	if lc, ok := cl.layouts[ino]; ok {
		return lc, nil
	}
	resp, err := cl.homedMeta(p, &Req{Op: OpGetattr, Ino: ino}, func() int { return cl.homeIdx(ino) })
	if err != nil {
		return LayoutStandard, err
	}
	return resp.Layout, nil
}

// homeIdx returns the metadata home of an inode: the hashed server, or
// the next alive one when the hashed home is excluded.
func (cl *Cluster) homeIdx(ino kernel.InodeID) int {
	return cl.firstUp(cl.pl.inodeHome(ino), len(cl.pl.members))
}

// pathHomeIdx returns the metadata home of a path component, so
// sibling entries spread across servers. Excluded homes re-route to the
// next alive server, like homeIdx.
func (cl *Cluster) pathHomeIdx(dir kernel.InodeID, name string) int {
	return cl.firstUp(cl.pl.pathHome(dir, name), len(cl.pl.members))
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
// epoch either confirms the cached size or invalidates it.
func (cl *Cluster) metaFirstAlive(p *sim.Proc, req *Req, pick func() int, dead func() error) (*Resp, int, error) {
	resp, idx, err := firstAlive(cl, 0, pick, dead, func(idx int) (*Resp, error) {
		return cl.syncMeta(p, idx, req)
	})
	if resp == nil {
		resp = &Resp{Status: StatusOf(err)}
	}
	cl.observeResp(resp)
	return resp, idx, err
}

// degenerate runs a zero-length data operation against the offset's
// preferred replica, with the shared failover policy.
func (cl *Cluster) degenerate(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, off int64, op func(idx int) (*Resp, error)) (*Resp, error) {
	resp, err := withReplica(cl, lay, ino, off, 0, op)
	if resp == nil && err != nil {
		resp = &Resp{Status: StatusOf(err)}
	}
	cl.observeResp(resp)
	return resp, err
}

// OwnerServer returns the index of the server owning the stripe that
// contains byte offset off (stats, tests, placement-aware callers).
// The primary owner is reported even when that server is excluded
// (reads would route to a replica; see DownServers).
func (cl *Cluster) OwnerServer(off int64) int { return cl.pl.owner(LayoutStandard, 0, off) }

// HomeServer returns the index of the metadata home of an inode. The
// home shifts past excluded servers, so the answer changes as faults
// are observed; it is -1 only when every server is excluded.
func (cl *Cluster) HomeServer(ino kernel.InodeID) int { return cl.homeIdx(ino) }

// runs splits [off, off+n) of an inode into its per-owner runs
// (placement.runs) in the cluster's per-operation scratch: valid until
// the next runs call, so callers that outlive their own issue loop
// (StartRead/StartWrite pendings) must copy it.
func (cl *Cluster) runs(lay LayoutClass, ino kernel.InodeID, off int64, n int) []run {
	cl.runScratch = cl.pl.runs(lay, ino, off, n, cl.runScratch[:0])
	return cl.runScratch
}

// ---- data path ----

// part is one per-server request of a striped operation.
type part struct {
	pd     *Pending
	r      run
	want   int         // expected byte count (writes)
	ridx   int         // index of the run this part belongs to
	target int         // server the request was issued to
	vec    core.Vector // destination slice (reads: kept for failover reissue)
	resp   *Resp
	err    error
	done   bool
}

// retire waits the part once and memoizes its outcome.
func (pt *part) retire(p *sim.Proc) {
	if pt.done {
		return
	}
	pt.resp, pt.err = pt.pd.Wait(p)
	pt.done = true
}

// getPart returns a recycled (zeroed) part from the freelist. Parts
// never escape the cluster — synchronous operations recycle at return,
// pendings at Wait — so the freelist turns the per-run allocation of
// the striped hot path into a steady-state zero.
func (cl *Cluster) getPart() *part {
	if n := len(cl.partFree); n > 0 {
		pt := cl.partFree[n-1]
		cl.partFree = cl.partFree[:n-1]
		*pt = part{}
		return pt
	}
	return &part{}
}

// putParts returns retired parts to the freelist. Callers must drop
// every reference first (results are merged into fresh Resps before
// any part is recycled).
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
		if pt.resp != nil && (attr.Ino == 0 || pt.resp.Attr.Size > attr.Size) {
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

// issueRead starts one run's read on the preferred replica under the
// inode's layout, failing over synchronously when the transport
// rejects the send (dead peer). parts are this operation's earlier
// issues, retired by makeRoom when the target's window is full.
func (cl *Cluster) issueRead(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, r run, vec core.Vector, parts []*part) (*part, error) {
	return withReplica(cl, lay, ino, r.off, r.n, func(idx int) (*part, error) {
		s := cl.sessions[idx]
		makeRoom(p, s, parts)
		pd, err := s.startData(p, OpRead, ino, r.off, vec, true)
		if err != nil {
			return nil, err
		}
		cl.StripeReads.Add(r.n)
		pt := cl.getPart()
		pt.pd, pt.r, pt.target, pt.vec = pd, r, idx, vec
		return pt, nil
	})
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
			pt.resp, pt.err = cl.sessions[idx].c.ctlRead(p, ino, pt.r.off, pt.vec)
			if pt.err == nil {
				cl.StripeReads.Add(pt.r.n)
			}
		}
	}
}

// dataLayout is the shared front of the four data entry points: a
// negative offset is invalid, and the inode's layout class decides
// where its bytes live.
func (cl *Cluster) dataLayout(p *sim.Proc, ino kernel.InodeID, off int64) (LayoutClass, error) {
	if off < 0 {
		return LayoutStandard, ErrInval
	}
	return cl.layoutFor(p, ino)
}

// Read implements Client: StartRead's issue and the pending's Wait,
// back to back on the cluster's own pending (no per-operation
// allocation). The range splits into per-server runs issued in
// parallel through each server's window; data lands directly in the
// caller's vector (each run scatters into its own slice of dst, so
// striping adds no copies). The merged byte count is the contiguous
// prefix before the first server-clipped (EOF) run. A run whose target
// faults is re-read from the stripe's next alive replica; only a run
// with no replicas left fails the read.
func (cl *Cluster) Read(p *sim.Proc, ino kernel.InodeID, off int64, dst core.Vector) (*Resp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	lay, err := cl.dataLayout(p, ino, off)
	if err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	if dst.TotalLen() == 0 {
		// Degenerate read: one attr-only round trip to the offset's
		// preferred replica, failing over like any other data path.
		return cl.degenerate(p, lay, ino, off, func(idx int) (*Resp, error) {
			return cl.sessions[idx].Read(p, ino, off, dst)
		})
	}
	cp := cl.newPending(&cl.syncOp, ino, lay, -1)
	if err := cl.issueReads(p, cp, off, dst); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return cp.Wait(p)
}

// mergeRead folds per-run read responses into one: byte count is the
// contiguous prefix, attributes are the authoritative merge.
func mergeRead(parts []*part) *Resp {
	n := 0
	for _, pt := range parts {
		n += int(pt.resp.N)
		if int(pt.resp.N) < pt.r.n {
			break // EOF inside this run; later runs are past the end
		}
	}
	return &Resp{Status: StOK, Attr: mergeAttr(parts), Epoch: mergeEpoch(parts), N: uint32(n)}
}

// mergeEpoch picks the newest size epoch out of per-server responses
// (they agree except mid-race with a foreign exact size set, where the
// newest is the one to revalidate against).
func mergeEpoch(parts []*part) uint64 {
	var e uint64
	for _, pt := range parts {
		if pt.resp != nil && pt.resp.Epoch > e {
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
// — runs longer than one request are chunked (inside issueWrites), a
// write under way during a migration is logged once it succeeded, and
// after a write that extends the file, grow-only OpSetSize requests
// reconcile every other server's local size (see the package comment
// on size reconciliation). A replica that faults mid-write is
// excluded; the write succeeds as long as every run kept at least one
// clean replica.
func (cl *Cluster) Write(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (*Resp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	lay, err := cl.dataLayout(p, ino, off)
	if err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	total := src.TotalLen()
	if total == 0 {
		// Degenerate write: like the degenerate read, with failover.
		return cl.degenerate(p, lay, ino, off, func(idx int) (*Resp, error) {
			return cl.sessions[idx].Write(p, ino, off, src)
		})
	}
	if lay, err = cl.maybePromote(p, ino, lay, off+int64(total)); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	cp := cl.newPending(&cl.syncOp, ino, lay, total)
	if err := cl.issueWrites(p, cp, off, src); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	// The tail run's own targets already reach the new end of file;
	// the reconciliation below skips them. Collected before Wait
	// recycles the parts.
	tail := cl.tailScratch[:0]
	for _, pt := range cp.parts {
		if pt.ridx == len(cp.runs)-1 && !slices.Contains(tail, pt.target) {
			tail = append(tail, pt.target)
		}
	}
	cl.tailScratch = tail
	// Wait feeds the data replies' size epochs into the validated cache
	// BEFORE the reconciliation decision: a foreign truncate since this
	// client's last reconciliation resets the cached floor there, which
	// is exactly what forces setSizeTo to re-run for an overwrite below
	// the stale cached size.
	resp, err := cp.Wait(p)
	if err != nil {
		return resp, err
	}
	if v := cl.view; v != nil && v.migrating {
		v.logWrite(ino, off, total)
	}
	if err := cl.publishEnd(p, lay, ino, off+int64(total), tail, false); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return resp, nil
}

// publishEnd makes a new end of file known to every alive server: the
// immediate grow-only fan (setSizeTo), or — in batched publish mode
// (SetSizePublishBatch; whole-on-home files and one-server clusters
// have nothing to reconcile either way) — an enqueue, the coalesced
// batch flushing when the publish window fills, at the next metadata
// operation, or right now when the caller's publish is a barrier.
// Every part of a write has retired by the time it publishes, so a
// window-triggered flush never contends with the write's own slots.
func (cl *Cluster) publishEnd(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, end int64, tail []int, barrier bool) error {
	if cl.sz.batching() && lay != LayoutWhole && len(cl.pl.members) > 1 {
		if cl.sz.enqueue(ino, end) || barrier {
			return cl.FlushSizes(p)
		}
		return nil
	}
	return cl.setSizeTo(p, lay, ino, end, tail)
}

// finishWriteParts is the shared epilogue of the two replicated write
// paths (Cluster.Write and clusterPending.Wait); every part must
// already be retired. Transport faults exclude their server; a
// non-fault error or a clean-but-short chunk aborts (a short chunk at
// a fixed offset is a hole, not a prefix, exactly like Session.Write's
// pipelined path — faulted parts carry no response and are judged by
// run coverage instead); otherwise every run must retain one replica
// all of whose chunks are clean. On success the merged response covers
// all `total` logical bytes.
func (cl *Cluster) finishWriteParts(ino kernel.InodeID, runs []run, parts []*part, total int) (*Resp, error) {
	for _, pt := range parts {
		if pt.err != nil && fabric.IsFault(pt.err) {
			cl.markDown(pt.target)
		}
	}
	if err := firstAppError(parts); err != nil {
		return &Resp{Status: StatusOf(err), Attr: mergeAttr(parts)}, err
	}
	for _, pt := range parts {
		if pt.err == nil && int(pt.resp.N) != pt.want {
			err := fmt.Errorf("rfsrv: short striped write (%d of %d) at %d", pt.resp.N, pt.want, pt.r.off)
			return &Resp{Status: StIO, Attr: mergeAttr(parts)}, err
		}
	}
	if err := cl.checkRunCoverage(runs, parts); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	// The write succeeded; record its byte ranges in the resync journal
	// of every excluded replica (skipped at issue or faulted above), so
	// Reinstate can re-copy them.
	cl.journalRunDirty(ino, runs)
	return &Resp{Status: StOK, Attr: mergeAttr(parts), Epoch: mergeEpoch(parts), N: uint32(total)}, nil
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

// setSizeTo reconciles file size after a write ending at end: every
// server except the tail run's own targets (whose local sizes already
// reach end) and the excluded ones gets a grow-only OpSetSize carrying
// this client's observed size epoch. Skipped entirely when this client
// holds a validated size >= end, and always a no-op on a one-server
// cluster. A server that faults during reconciliation is excluded —
// not an error: the alive servers are consistent, which is all the
// cache records. Because the grow mode is idempotent, a retry after a
// transient fault (write re-run, or Reinstate then write) replays it
// safely in any order. Servers refuse a stale observed epoch
// (a foreign exact size set ran since): their StStale replies carry
// the authoritative epoch, the cache entry resets, and the fan
// retries under the fresh epoch.
//
// A whole-on-home file never reconciles: its single data owner is its
// metadata home (the same hash picks both), so the only server anyone
// asks about the file already holds the authoritative size — and with
// replication, every write landed on the same replica set a re-homed
// getattr walks. That class sidesteps the fan by placement (DESIGN.md
// §10); every other layout now has a second way out, batched size
// publishes (SetSizePublishBatch, DESIGN.md §11): instead of fanning
// after every extending write, the cluster coalesces the highest
// pending end per inode and flushes one combined OpSetSize batch per
// server at the publish window, taking the per-write cost from N−1
// round trips to an amortized fraction of one. This function is the
// immediate (unbatched) path; publishEnd diverts to the book's queue
// when a publish window is configured. figures.SmallFile audits the
// whole-on-home zero and figures.SharedFile the amortized fraction.
func (cl *Cluster) setSizeTo(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, end int64, skip []int) error {
	if lay == LayoutWhole {
		return nil
	}
	return publish("size reconciliation", func() (bool, error) {
		size, epoch := cl.sz.floor(ino)
		if size >= end {
			return false, nil
		}
		// One round: OpSetSize to every alive server not in skip (see
		// fan). Faulting servers are excluded — not an error; other
		// application errors win over staleness.
		req := Req{Op: OpSetSize, Ino: ino, Off: end, Len: PackSetSize(false, epoch)}
		f := cl.fan(p, cl.aliveTargets(0, len(cl.pl.members), skip), &req)
		addN(&cl.SetSizes, f.tried)
		if f.err == nil && !f.stale {
			cl.sz.establish(ino, end, epoch)
		}
		// A foreign exact set that raced us may have shrunk the tail
		// targets after our data landed on them, so retries stop
		// skipping anyone.
		skip = nil
		return f.stale, f.err
	})
}

// SetFileSize publishes an externally tracked end-of-file through the
// grow-only reconciliation: every alive server's local size is raised
// to at least size, under the validated cache (a no-op when a cached
// entry already covers it). This is the barrier piece asynchronous
// writers need — ORFS write-behind extends only the servers its dirty
// pages land on, then calls SetFileSize at its sync barrier so homed
// getattr and striped-read EOF clipping agree with the bytes it wrote.
// Under an adaptive layout policy, publishing a size past
// PromoteThreshold is also the async writer's promotion point: the
// caller has retired its pipeline by the time it publishes (that is
// what a sync barrier is), so this is the one safe moment to migrate
// a whole-on-home file that grew past the threshold via StartWrite.
func (cl *Cluster) SetFileSize(p *sim.Proc, ino kernel.InodeID, size int64) error {
	if size < 0 {
		return ErrInval
	}
	lay, err := cl.layoutFor(p, ino)
	if err != nil {
		return err
	}
	if lay, err = cl.maybePromote(p, ino, lay, size); err != nil {
		return err
	}
	// A size publish IS a barrier: in batched mode everything pending
	// flushes with it, so the caller's EOF is on every alive server when
	// this returns (what ORFS write-behind's sync point needs).
	return cl.publishEnd(p, lay, ino, size, nil, true)
}

// ---- adaptive promotion ----

// maybePromote is the adaptive-policy trigger: a whole-on-home file
// about to reach past PromoteThreshold (end is the prospective EOF) is
// migrated to standard striping first, and the caller proceeds under
// the returned class. Promotion runs only from synchronous call sites
// (Write, SetFileSize) — never mid-async-stream, where the caller's
// own unretired pendings could still be landing bytes the migration
// would miss; an async writer's promotion point is the SetFileSize at
// its sync barrier.
func (cl *Cluster) maybePromote(p *sim.Proc, ino kernel.InodeID, lay LayoutClass, end int64) (LayoutClass, error) {
	if !cl.policyOn || !cl.policy.Adaptive || lay != LayoutWhole || end <= PromoteThreshold {
		return lay, nil
	}
	if err := cl.promote(p, ino); err != nil {
		return lay, err
	}
	return LayoutStandard, nil
}

// stagingVec returns an n-byte vector over the cluster's migration
// staging buffer, mapping it on first use (promotion is rare; clusters
// that never promote never pay the mapping).
func (cl *Cluster) stagingVec(n int) (core.Vector, error) {
	c := cl.sessions[0].c
	if cl.migVA == 0 {
		alloc := c.as.Mmap
		if c.kernSide {
			alloc = c.as.MmapContig
		}
		va, err := alloc(MaxWriteChunk, "rfsrv-promote")
		if err != nil {
			return nil, err
		}
		cl.migVA = va
	}
	return core.Of(c.seg(cl.migVA, n)), nil
}

// promote migrates a whole-on-home file to standard striping: its
// bytes are copied from the home to every standard-placement replica
// they belong on, then an OpSetLayout fans the class flip to every
// alive server (epoch-bumping, so every client's validated size cache
// revalidates under the new placement). The copy travels the
// synchronous control paths — never window slots, so promotion cannot
// deadlock against a caller's pipeline. Fragments whose standard
// placement includes the home are not rewritten: whole-on-home stores
// bytes at their global offsets, which is exactly where standard
// striping expects them.
func (cl *Cluster) promote(p *sim.Proc, ino kernel.InodeID) error {
	src := cl.pl.slot(cl.pl.inodeHome(ino), 0)
	resp, err := cl.homedMeta(p, &Req{Op: OpGetattr, Ino: ino}, func() int { return cl.homeIdx(ino) })
	if err != nil {
		return err
	}
	size := resp.Attr.Size
	for off := int64(0); off < size; {
		n := int(size - off)
		if n > MaxWriteChunk {
			n = MaxWriteChunk
		}
		vec, err := cl.stagingVec(n)
		if err != nil {
			return err
		}
		rresp, err := withReplica(cl, LayoutWhole, ino, off, n, func(idx int) (*Resp, error) {
			return cl.sessions[idx].c.ctlRead(p, ino, off, vec)
		})
		if err != nil {
			return err
		}
		if int(rresp.N) != n {
			return fmt.Errorf("rfsrv: promote inode %d: short read (%d of %d) at %d", ino, rresp.N, n, off)
		}
		// Scatter the chunk to its standard-placement replicas, one
		// stripe fragment at a time.
		for _, r := range cl.runs(LayoutStandard, ino, off, n) {
			okReplicas := 0
			for j := 0; j < cl.pl.replicas; j++ {
				idx := cl.pl.slot(r.owner, j)
				if cl.down[idx] {
					cl.journalDirty(idx, ino, r.off, r.n)
					continue
				}
				if idx == src {
					okReplicas++ // the home already holds these bytes
					continue
				}
				wresp, werr := cl.sessions[idx].c.ctlWrite(p, ino, r.off, vec.Slice(int(r.off-off), r.n))
				if werr != nil {
					if fabric.IsFault(werr) {
						cl.markDown(idx)
						cl.journalDirty(idx, ino, r.off, r.n)
						continue
					}
					return werr
				}
				if int(wresp.N) != r.n {
					return fmt.Errorf("rfsrv: promote inode %d: short copy (%d of %d) at %d", ino, wresp.N, r.n, r.off)
				}
				okReplicas++
			}
			if okReplicas == 0 {
				return cl.allReplicasDown(r.off)
			}
		}
		off += int64(n)
	}
	if _, err := cl.fanout(p, &Req{Op: OpSetLayout, Ino: ino, Len: uint32(LayoutStandard)}); err != nil {
		return err
	}
	cl.layouts[ino] = LayoutStandard
	cl.Promotions.Add(int(size))
	return nil
}

// ---- pipelined data path (Async) ----

// clusterPending is one striped in-flight operation: the per-server
// parts of a single logical read or write.
type clusterPending struct {
	cl     *Cluster
	ino    kernel.InodeID
	lay    LayoutClass
	parts  []*part
	runs   []run // the logical runs (writes: replica coverage check)
	want   int   // expected total (writes; -1 for reads)
	issued sim.Time

	done bool
	resp *Resp
	err  error

	gated bool // counted in the view's pending until Wait
}

// newPending resets cp for a new striped operation on ino, keeping its
// parts/runs backing arrays (want < 0 marks a read).
func (cl *Cluster) newPending(cp *clusterPending, ino kernel.InodeID, lay LayoutClass, want int) *clusterPending {
	*cp = clusterPending{cl: cl, ino: ino, lay: lay, want: want, parts: cp.parts[:0], runs: cp.runs[:0]}
	return cp
}

// seal records the issue time once every part is out: the first part's
// window-entry instant — the same instant a Session would report,
// keeping latency accounting bit-identical in the one-server
// configuration — so Issued keeps answering after Wait recycles the
// parts.
func (cp *clusterPending) seal() { cp.issued = cp.parts[0].pd.fl.issued }

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
// validated caches. The parts return to the cluster's freelist once
// merged — the memoized (resp, err) is all a second Wait needs.
func (cp *clusterPending) Wait(p *sim.Proc) (*Resp, error) {
	if cp.done {
		return cp.resp, cp.err
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
		cp.cl.observeResp(pt.resp)
	}
	if cp.want < 0 {
		if err := firstError(cp.parts); err != nil {
			cp.resp, cp.err = &Resp{Status: StatusOf(err), Attr: mergeAttr(cp.parts)}, err
		} else {
			cp.resp = mergeRead(cp.parts)
		}
	}
	cp.cl.notePendingDone(cp)
	cp.cl.putParts(cp.parts)
	cp.parts = cp.parts[:0]
	return cp.resp, cp.err
}

// Issued implements PendingOp: the time the first per-server request
// entered its window (see seal).
func (cp *clusterPending) Issued() sim.Time { return cp.issued }

// issueReads starts one read per run of [off, off+len(dst)) into cp.
// An operation spanning more same-server stripes than that server's
// window retires its own earlier runs to make room (inside issueRead)
// — it must never depend on the caller, who cannot retire a pending it
// has not been handed yet.
func (cl *Cluster) issueReads(p *sim.Proc, cp *clusterPending, off int64, dst core.Vector) error {
	for _, r := range cl.runs(cp.lay, cp.ino, off, dst.TotalLen()) {
		pt, err := cl.issueRead(p, cp.lay, cp.ino, r, dst.Slice(int(r.off-off), r.n), cp.parts)
		if err != nil {
			return cp.abandon(p, err)
		}
		cp.parts = append(cp.parts, pt)
	}
	cp.seal()
	return nil
}

// issueWrites starts the striped write of src at off into cp, in run →
// replica → chunk order: each run goes to its primary and, with
// replication, to the next R-1 alive servers, pipelined across the
// per-server windows; a run longer than one request (a merged
// single-server range or a wide stripe — synchronous writes only,
// StartWrite caps the whole operation at one request) is chunked at
// MaxWriteChunk exactly like Session.Write. A replica whose transport
// faults at issue is excluded and the others carry the run; a run no
// replica accepted fails the operation.
func (cl *Cluster) issueWrites(p *sim.Proc, cp *clusterPending, off int64, src core.Vector) error {
	// The pending outlives this call, so it gets its own copy of the
	// runs (cl.runs returns per-operation scratch).
	cp.runs = append(cp.runs, cl.runs(cp.lay, cp.ino, off, src.TotalLen())...)
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
				pd, err := s.startData(p, OpWrite, cp.ino, at, src.Slice(int(at-off), chunk), true)
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
				cp.parts = append(cp.parts, pt)
				done += chunk
			}
		}
		if live == 0 {
			return cp.abandon(p, cl.allReplicasDown(r.off))
		}
	}
	cp.seal()
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
	lay, err := cl.dataLayout(p, ino, off)
	if err != nil {
		return nil, err
	}
	cp := cl.newPending(new(clusterPending), ino, lay, -1)
	if dst.TotalLen() == 0 {
		// Zero-length read: one attr-only request to the offset's
		// preferred replica, like the synchronous Read path — with the
		// same issue-time failover (Wait-time faults fail over through
		// failoverReads like any other part).
		r := run{owner: cl.pl.owner(lay, ino, off), off: off}
		err = cl.issueZero(p, cp, r, OpRead, dst)
	} else {
		err = cl.issueReads(p, cp, off, dst)
	}
	if err != nil {
		return nil, err
	}
	cl.notePendingStart(cp)
	return cp, nil
}

// issueZero starts a zero-length operation's single request on the
// offset's preferred replica (so the RPC trace and the returned
// attributes match the Session's) as cp's only part.
func (cl *Cluster) issueZero(p *sim.Proc, cp *clusterPending, r run, op Op, vec core.Vector) error {
	pt, err := withReplica(cl, cp.lay, cp.ino, r.off, 0, func(idx int) (*part, error) {
		pd, err := cl.sessions[idx].startData(p, op, cp.ino, r.off, vec, true)
		if err != nil {
			return nil, err
		}
		pt := cl.getPart()
		pt.pd, pt.r, pt.target, pt.vec = pd, r, idx, vec
		return pt, nil
	})
	if err != nil {
		return err
	}
	cp.parts = append(cp.parts, pt)
	cp.seal()
	return nil
}

// StartWrite implements Async: one striped write request of at most
// MaxWriteChunk, issued without waiting. Unlike the synchronous Write
// it does not reconcile sizes across servers — asynchronous writers
// (ORFS write-behind) track EOF themselves and their dirty data is
// re-readable from the servers that own it. For the same reason it
// never promotes a whole-on-home file mid-stream: the caller's
// unretired pendings could still be landing bytes a migration would
// miss, so adaptive promotion waits for the SetFileSize at the
// writer's sync barrier.
func (cl *Cluster) StartWrite(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (PendingOp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return nil, err
	}
	defer cl.exitOp()
	lay, err := cl.dataLayout(p, ino, off)
	if err != nil {
		return nil, err
	}
	total := src.TotalLen()
	if total > MaxWriteChunk {
		return nil, fmt.Errorf("rfsrv: StartWrite of %d bytes exceeds one %d-byte request", total, MaxWriteChunk)
	}
	cp := cl.newPending(new(clusterPending), ino, lay, total)
	if total == 0 {
		// Zero-length write: one real request, like the synchronous
		// degenerate path. The synthetic run makes finishWriteParts'
		// coverage check see a Wait-time fault instead of vacuously
		// succeeding.
		r := run{owner: cl.pl.owner(lay, ino, off), off: off}
		cp.runs = append(cp.runs, r)
		err = cl.issueZero(p, cp, r, OpWrite, src)
	} else {
		err = cl.issueWrites(p, cp, off, src)
	}
	if err != nil {
		return nil, err
	}
	cl.notePendingStart(cp)
	if v := cl.view; v != nil && v.migrating {
		v.logWrite(ino, off, total)
	}
	// The size cache is deliberately NOT updated here: sizes[ino]
	// records "every server reconciled to this size", and an async
	// write extends only the servers its runs touch. The next
	// synchronous Write past this end runs setSizeTo as usual; callers
	// with their own EOF tracking publish it through SetFileSize.
	return cp, nil
}

// ---- metadata path ----

// syncMeta is one synchronous metadata round trip on server idx's
// control path (FabricClient.startCtl — never a window slot).
func (cl *Cluster) syncMeta(p *sim.Proc, idx int, req *Req) (*Resp, error) {
	c := cl.sessions[idx].c
	fl, err := c.startCtl(p, req)
	if err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return c.waitCtl(p, &fl)
}

// fanFlight is one control-path request of a fan in flight.
type fanFlight struct {
	target int
	fl     flight
}

// fanned is what one control-path fan produced.
type fanned struct {
	// resps holds the answer of every target that gave one — application
	// statuses included; faulted targets and stale refusals are not in
	// it — in target order. It is cluster scratch, valid until the next
	// fan.
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

// fan is the one control-path fan: req goes out on the control path of
// every target in order, all in flight together (each server's own
// ctl slot — see FabricClient.startCtl — so a fan never waits on the
// data windows), then each is waited in order. A target whose
// transport faults, at issue or at wait, is excluded — a degraded-mode
// fact, never an error or divergence. Every answer feeds the validated
// caches. An ErrStaleEpoch refusal is classified by sizeBook.behind: a
// refuser BEHIND the cache missed an exact size set while dead in
// another client's view, no retry epoch can satisfy it and the
// coherent members at once, so it is excluded like a fault; one ahead
// of the cache reports stale. What the answers mean — agreement,
// in-doubt windows, which counter a request bumps — is the caller's
// verdict. One reusable request serves the whole fan: startCtl stamps
// and encodes it into the target's control buffer before returning,
// so the next target may overwrite it (per-server clones would only
// feed the garbage collector); results live in cluster scratch (fans
// never nest — each runs to completion before returning).
func (cl *Cluster) fan(p *sim.Proc, targets []int, req *Req) fanned {
	var f fanned
	flights := cl.fanFlights[:0]
	for _, i := range targets {
		f.tried++
		if len(flights) > 0 {
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
		flights = append(flights, fanFlight{target: i, fl: fl})
	}
	resps := cl.respScratch[:0]
	for k := range flights {
		i := flights[k].target
		resp, err := cl.sessions[i].c.waitCtl(p, &flights[k].fl)
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
	f.resps = resps
	return f
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

// Meta implements Client. Read-only operations go to the home server
// (re-homed past excluded servers, and failed over when the home
// faults mid-request); mutations replicate to every alive server in
// server order, and the per-server answers must agree (same status,
// same inode) or the cluster reports namespace divergence — a faulting
// server is excluded, never counted as divergent. OpTruncate is
// translated to the exact mode of OpSetSize — same wire size, but it
// carries this client's observed size epoch, so servers refuse it when
// the view is stale and the cluster revalidates and retries; OpSetSize
// requests get their observed epoch stamped the same way.
func (cl *Cluster) Meta(p *sim.Proc, req *Req) (*Resp, error) {
	if err := ValidateReq(req); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	if req.Op == OpRead || req.Op == OpWrite {
		return &Resp{Status: StInval}, ErrInval
	}
	mut := true
	switch req.Op {
	case OpLookup, OpGetattr, OpReaddir:
		mut = false
	}
	if err := cl.enterOp(p, mut); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	// Pending size publishes flush before any metadata operation, so a
	// getattr after a batched write observes the written size and a
	// namespace mutation never reorders ahead of the publishes that
	// preceded it. (Data reads don't flush: an unpublished size only
	// makes reads short, never wrong.)
	if err := cl.FlushSizes(p); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	if cl.sharded {
		return cl.shardMeta(p, req)
	}
	switch req.Op {
	case OpLookup:
		// Read-only answers feed only the EPOCH side of the size cache
		// (observeResp): sizes[ino].size means "every alive server
		// reconciled to this size", and a single server's view (e.g.
		// the home after an async StartWrite that extended only its own
		// stripes) cannot establish that — caching it would silently
		// disable the next write's setSizeTo.
		return cl.homedMeta(p, req, func() int { return cl.pathHomeIdx(req.Ino, req.Name) })
	case OpGetattr, OpReaddir:
		return cl.homedMeta(p, req, func() int { return cl.homeIdx(req.Ino) })
	case OpTruncate:
		return cl.setSizeMeta(p, req.Ino, req.Off, true)
	case OpSetSize:
		exact, _ := UnpackSetSize(req.Len)
		return cl.setSizeMeta(p, req.Ino, req.Off, exact)
	case OpCreate:
		return cl.fanout(p, cl.hintCreate(req))
	default:
		return cl.fanout(p, req)
	}
}

// hintCreate injects the adaptive policy's default layout class into an
// unhinted create: new files start whole-on-home and are promoted when
// they outgrow PromoteThreshold. Explicit hints (a caller that knows
// the file will be huge asks for LayoutWide up front) pass through
// untouched, as does everything when the policy is off — the request
// is then byte-identical to the pre-layout protocol.
func (cl *Cluster) hintCreate(req *Req) *Req {
	if !cl.policyOn || !cl.policy.Adaptive || req.Len != 0 {
		return req
	}
	r := *req
	r.Len = uint32(LayoutWhole)
	return &r
}

// setSizeMeta fans an OpSetSize to every alive server — exact mode
// (shrink-capable, epoch-bumping: the cluster face of truncate) or
// grow mode — revalidating and retrying when the observed epoch
// proves stale, so callers never see a spurious ErrStaleEpoch from a
// racing foreign size set.
func (cl *Cluster) setSizeMeta(p *sim.Proc, ino kernel.InodeID, size int64, exact bool) (resp *Resp, err error) {
	if rerr := publish("size set", func() (bool, error) {
		_, epoch := cl.sz.floor(ino)
		resp, err = cl.fanout(p, &Req{Op: OpSetSize, Ino: ino, Off: size, Len: PackSetSize(exact, epoch)})
		// The refusals refreshed the cached epoch (observeResp in
		// fanout); the next round carries the authoritative one.
		return errors.Is(err, ErrStaleEpoch), nil
	}); rerr != nil {
		err = rerr
	}
	return resp, err
}

// homedMeta runs a read-only metadata request against its home server,
// excluding the home and re-homing (the hash walks to the next alive
// server) whenever the transport faults.
func (cl *Cluster) homedMeta(p *sim.Proc, req *Req, home func() int) (*Resp, error) {
	resp, _, err := cl.metaFirstAlive(p, req, home, func() error {
		return fmt.Errorf("rfsrv: %v: every server excluded: %w", req.Op, fabric.ErrPeerDead)
	})
	return resp, err
}

// fanout replicates a namespace mutation to every alive server (fan)
// and verifies the answers agree. With one server it is exactly one
// synchronous metadata round trip. A server that faults mid-mutation
// is excluded — its missing answer is a degraded-mode fact, not
// namespace divergence; it must re-sync before Reinstate.
func (cl *Cluster) fanout(p *sim.Proc, req *Req) (*Resp, error) {
	if len(cl.pl.members) == 1 {
		resp, err := cl.syncMeta(p, cl.pl.members[0], req)
		cl.observeResp(resp)
		cl.noteMutation(req, resp, err)
		return resp, err
	}
	f := cl.fan(p, cl.aliveTargets(0, len(cl.pl.members), nil), req)
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
			f.err = fmt.Errorf("rfsrv: %v: every server excluded: %w", req.Op, fabric.ErrPeerDead)
		}
		return &Resp{Status: StatusOf(f.err)}, f.err
	}
	base := f.resps[0]
	if r := disagree(f.resps); r != nil {
		err := fmt.Errorf("rfsrv: cluster namespace diverged on %v %q (status %d/ino %d vs %d/%d)",
			req.Op, req.Name, base.Status, base.Attr.Ino, r.Status, r.Attr.Ino)
		return &Resp{Status: StIO}, err
	}
	cl.noteMutation(req, base, f.err)
	return base, f.err
}

// bumpAllNs records a mutation every server was (or should have been)
// told about: every per-server mutation count advances, INCLUDING the
// excluded servers' — a down server missed the fan, which is exactly
// why its Reinstate must be refused. Used by the replicated (unsharded)
// fan-out and by the global operations that still fan under sharding
// (exact size sets, truncate, layout flips).
func (cl *Cluster) bumpAllNs() {
	for _, i := range cl.pl.members {
		cl.nsEpochs[i]++
	}
}

// bumpGroupNs records a mutation of the namespace slice owned by the
// given residue: the R servers of its owner group advance, including
// excluded members (they missed it and must resync before Reinstate);
// everyone else's slice is untouched and their counts stay put.
func (cl *Cluster) bumpGroupNs(owner int) {
	for j := 0; j < cl.pl.replicas; j++ {
		cl.nsEpochs[cl.pl.slot(owner, j)]++
	}
}

// noteMutation updates the size cache and the per-server mutation
// counts after a replicated mutation succeeded on every alive server.
// Exact size sets and namespace mutations advance the counts — they
// are exactly the operations an excluded server misses unrecoverably
// (Reinstate refuses when any ran); grow-only reconciliation is
// replayable and advances nothing.
func (cl *Cluster) noteMutation(req *Req, resp *Resp, err error) {
	if err != nil || resp == nil {
		return
	}
	switch req.Op {
	case OpCreate:
		cl.bumpAllNs()
		cl.sz.establish(resp.Attr.Ino, resp.Attr.Size, resp.Epoch)
		cl.journalMutationAll(*req, resp.Attr.Ino, resp.Epoch)
	case OpMkdir, OpUnlink, OpRmdir, OpRenameLocal:
		cl.bumpAllNs()
		cl.journalMutationAll(*req, resp.Attr.Ino, resp.Epoch)
	case OpSetLayout:
		// A layout flip bumps the size epoch on every server (that is
		// what revalidates other clients' placement); a server that
		// missed it is desynchronized like any missed exact size set.
		cl.bumpAllNs()
		cl.journalMutationAll(*req, req.Ino, resp.Epoch)
	case OpTruncate:
		// Defensive: Meta translates truncates to exact OpSetSize, but a
		// raw fan-out (MetaBatch carrying one) records the same facts.
		cl.bumpAllNs()
		cl.sz.establish(req.Ino, req.Off, resp.Epoch)
		cl.journalMutationAll(Req{Op: OpSetSize, Ino: req.Ino, Off: req.Off, Len: PackSetSize(true, 0)}, req.Ino, resp.Epoch)
	case OpSetSize:
		if exact, _ := UnpackSetSize(req.Len); exact {
			cl.bumpAllNs()
			cl.sz.establish(req.Ino, req.Off, resp.Epoch)
			cl.journalMutationAll(*req, req.Ino, resp.Epoch)
		} else if size, epoch := cl.sz.floor(req.Ino); epoch == resp.Epoch && req.Off > size {
			// (The reply was observed on its way here, so the book holds
			// an entry under an epoch at least as new as the reply's.)
			cl.sz.establish(req.Ino, req.Off, resp.Epoch)
		}
		// Grow-mode publishes are deliberately NOT journaled: they are
		// idempotent lower-bound facts the replayed data re-establishes,
		// and journaling every publish would spill constantly under
		// streaming writes.
	}
}

// ---- combined batches ----

// share is one server's part of a combined batch: the requests bound
// for session slot, in original order, and how far the run has got.
type share struct {
	slot int
	reqs []*Req
	idx  []int // each request's position in the caller's batch; empty when every share carries the whole list (a flush)
	done int   // requests answered, or given up on
	end  int   // where the flight on the wire ends
	fl   *batchFlight
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
// completion in parallel rounds — one combined flight per server per
// round (startBatchFlight: up to a window of requests, one fabric
// send), all in flight together, then all waited; a started flight is
// always waited, so no path leaks a window slot. A server whose
// transport faults, at start or at wait, is excluded and its share
// ends. Every reply feeds the validated caches; one that refuses an
// observed size epoch from BEHIND the book excludes its server like a
// fault (sizeBook.behind: no retry can satisfy it).
//
// Two callers, two policies. A caller's batch (out non-nil) merges the
// replies into out by position — replicated requests must agree on
// (status, inode) — and does not retry: the first error, a fault and a
// stale refusal included, ends the run with the round it surfaced in,
// and the caller re-issues around whoever was excluded. A size flush
// (out nil; the first npub requests of every share are the book's grow
// publishes, tallied on SetSizes per flight) stands on the survivors:
// faults are not errors, a refusal from ahead of the book reports stale
// for the flush to revalidate and retry, a publish answered StNotFound
// is moot rather than failed (sizeBook.settle), and an application
// error is reported once every share has run out.
//
// allocfree
func (cl *Cluster) runShares(p *sim.Proc, shares []share, out []*Resp, npub int) (stale bool, err error) {
	strict := out != nil
	for {
		started := false
		for k := range shares {
			sh := &shares[k]
			if sh.done >= len(sh.reqs) || cl.down[sh.slot] {
				continue
			}
			fl, end, serr := cl.sessions[sh.slot].startBatchFlight(p, sh.reqs, sh.done)
			if serr != nil {
				sh.done = len(sh.reqs)
				fault := fabric.IsFault(serr)
				if fault {
					cl.markDown(sh.slot)
				}
				if err == nil && (strict || !fault) {
					err = serr
				}
				continue
			}
			if pubs := min(end, npub) - min(sh.done, npub); pubs > 0 {
				cl.SetSizes.Add(pubs)
			}
			sh.fl, sh.end, started = fl, end, true
		}
		if !started {
			return stale, err
		}
		for k := range shares {
			sh := &shares[k]
			if sh.fl == nil {
				continue
			}
			resps, werr := sh.fl.wait(p, cl.respScratch[:0])
			sh.fl, cl.respScratch = nil, resps[:0]
			for _, r := range resps {
				cl.observeResp(r)
			}
			// rerr is the flight's first error once the refusals and moot
			// answers a flush absorbs are set aside.
			var rerr error
			lagging := false
			for ri, r := range resps {
				pos := sh.done + ri
				if len(sh.idx) > 0 {
					pos = sh.idx[pos]
				}
				var e error
				switch {
				case r == nil:
					e = werr // never arrived: the flight's transport error
				case r.Status == StStale && cl.sz.behind(r.Attr.Ino, r.Epoch):
					lagging, e = true, ErrStaleEpoch
				case r.Status == StStale && !strict:
					stale = true
				case !strict:
					if !cl.sz.answered(pos, r.Status) {
						e = ErrOf(r.Status)
					}
				case out[pos] != nil && r.Status != StStale && out[pos].Status != StStale &&
					(r.Status != out[pos].Status || r.Attr.Ino != out[pos].Attr.Ino):
					e = errDiverged
				default:
					e = ErrOf(r.Status)
				}
				if strict && out[pos] == nil {
					out[pos] = r
				}
				if e != nil && rerr == nil {
					rerr = e
				}
			}
			sh.done = sh.end
			fault := lagging || werr != nil && fabric.IsFault(werr)
			if fault {
				cl.markDown(sh.slot)
				sh.done = len(sh.reqs)
			}
			if err == nil && (strict || !fault) {
				err = rerr
			}
		}
		if strict && err != nil {
			return stale, err
		}
	}
}

// errDiverged reports replicas of one batched request that answered
// differently: the replicated namespace (or an owner group) diverged.
var errDiverged = errors.New("rfsrv: cluster namespace diverged in batch")

// MetaBatch implements Async: requests route like Meta (read-only to
// their homes, mutations to every server) and each server's share is
// issued as one combined batch in original order, so the §3.3-style
// combining survives striping. Server batches run one server at a
// time; with one server this is exactly Session.MetaBatch. Unlike
// Meta, batches flow through the per-server windows (that is what
// combines them), so callers must not hold unretired data pendings
// across a MetaBatch call. Batches route around already-excluded
// servers but do not retry mid-batch faults — a fault surfaces as the
// batch's error and the caller re-issues (Meta retries per request).
func (cl *Cluster) MetaBatch(p *sim.Proc, reqs []*Req) ([]*Resp, error) {
	if err := validateBatch(reqs); err != nil {
		return nil, err
	}
	if err := cl.enterOp(p, true); err != nil {
		return nil, err
	}
	defer cl.exitOp()
	if err := cl.FlushSizes(p); err != nil {
		return nil, err
	}
	if len(cl.aliveTargets(0, len(cl.pl.members), nil)) == 0 {
		return nil, fmt.Errorf("rfsrv: MetaBatch: every server excluded: %w", fabric.ErrPeerDead)
	}
	if cl.sharded {
		return cl.shardMetaBatch(p, reqs)
	}
	if len(cl.pl.members) == 1 {
		return cl.sessions[cl.pl.members[0]].MetaBatch(p, reqs)
	}
	shares := cl.newShares()
	track := make([]*Req, len(reqs)) // mutations: the request actually fanned (post-translation)
	// bumps counts the exact size sets already packed for each inode
	// earlier in THIS batch: the servers apply the batch in order and
	// bump the epoch after each exact set, so a later size mutation of
	// the same inode must observe the epoch it will find, not the
	// pre-batch one — otherwise a truncate-then-truncate batch would
	// refuse itself with StStale forever.
	bumps := make(map[kernel.InodeID]uint64)
	for i, r := range reqs {
		switch r.Op {
		case OpLookup:
			shares[cl.pathHomeIdx(r.Ino, r.Name)].add(i, r)
		case OpGetattr, OpReaddir:
			shares[cl.homeIdx(r.Ino)].add(i, r)
		default:
			// Size mutations translate and get their observed epoch
			// stamped like Meta's (batches do not retry staleness — a
			// StStale reply surfaces as the batch error and the caller
			// re-issues with the cache already revalidated).
			w := r
			switch r.Op {
			case OpCreate:
				w = cl.hintCreate(r)
			case OpTruncate, OpSetSize:
				exact := r.Op == OpTruncate
				if !exact {
					exact, _ = UnpackSetSize(r.Len)
				}
				_, epoch := cl.sz.floor(r.Ino)
				w = &Req{Op: OpSetSize, Ino: r.Ino, Off: r.Off, Len: PackSetSize(exact, epoch+bumps[r.Ino])}
				if exact {
					bumps[r.Ino]++
				}
			}
			track[i] = w
			// Server batches run one at a time, and startBatchFlight
			// stamps and encodes every request before returning, so the
			// shares can share one *Req — no per-server clones.
			for k, s := range cl.aliveTargets(0, len(cl.pl.members), nil) {
				if k > 0 {
					cl.MetaFanout.Add(1)
				}
				shares[s].add(i, w)
			}
		}
	}
	out := make([]*Resp, len(reqs))
	for s := range shares {
		// One share at a time (the documented order); a faulting server
		// is excluded like on every other path, so the caller's
		// re-issued batch routes around it.
		if _, err := cl.runShares(p, shares[s:s+1], out, 0); err != nil {
			return out, err
		}
	}
	// Apply cache updates in request order: a batch may carry several
	// mutations of one inode (grow then truncate), and the LAST one
	// must win, exactly as the servers applied them.
	for pos, r := range track {
		if r != nil && out[pos] != nil && out[pos].Status == StOK {
			cl.noteMutation(r, out[pos], nil)
		}
	}
	return out, nil
}

var _ Client = (*Cluster)(nil)
