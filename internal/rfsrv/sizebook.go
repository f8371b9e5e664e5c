package rfsrv

// sizeBook is the cluster client's size coherence (DESIGN.md §9, §11):
// the validated (size, epoch) cache and the queue of deferred grow-only
// size publishes, with every rule about what a cached size proves. The
// Cluster owns the wire — which servers a publish fans to, who faulted —
// and tells the book what it saw; the book is pure bookkeeping (no
// simulation, no traffic), so its rules are table-tested in
// sizebook_test.go.
//
// The cache. sizes[ino] = (size, epoch) means: every alive server's
// local size of ino is at least size, established while the inode's
// size epoch was epoch. Every reply carries the epoch of the inode it
// resolves (observe); an epoch NEWER than the cached one proves a
// foreign exact size set ran, and the floor resets to zero under it so
// the next overwrite re-reconciles. An OLDER one proves the replying
// server, not the cache, is stale (behind).
//
// Exclusion stamps. An entry is only as good as the fan that
// established it, and that fan skipped the servers excluded at the
// time — so when one of them is readmitted, exactly the entries
// established during its exclusion must go. tick counts exclusions,
// downSince[slot] is the tick at which slot was excluded, and every
// entry carries the tick it was (last) established under: readmit(slot)
// drops the entries with stamp >= downSince[slot]. One comparison per
// entry, nothing per write, and no bound on the number of servers (the
// bitmask of excluded servers this replaces capped clusters at 64).
//
// The publish queue (SetSizePublishBatch). pend holds the highest
// pending end-of-file per inode, order their insertion order (flushes
// are deterministic), scrubs the unlinked inodes whose cluster-wide
// OpScrub rides the next flush. since counts enqueues toward the batch
// window. A flush asks the book for requests — publishes first, so a
// scrubbed inode is never re-grown by a publish queued before its
// unlink — reports what each publish was answered, and settles: a
// publish every target answered StNotFound is moot (the inode was
// unlinked behind this client's back, the rule journal replay applies
// too) and is forgotten; the rest are established.

import (
	"fmt"
	"slices"

	"repro/internal/kernel"
)

// sizeEntry is one validated size-cache record (see sizeBook).
type sizeEntry struct {
	size  int64
	epoch uint64
	stamp uint64 // the book's exclusion tick at establishment
}

type sizeBook struct {
	sizes map[kernel.InodeID]sizeEntry

	tick      uint64
	downSince []uint64 // per session slot

	batch, since int
	pend         map[kernel.InodeID]int64
	order        []kernel.InodeID
	scrubs       []kernel.InodeID

	// The current flush (requests → answered → settle), in reused
	// backing: the request list, how many of its leading entries are
	// publishes, and what each publish has been told so far.
	store []Req
	reqs  []*Req
	npub  int
	heard []uint8
}

// What a publish of the current flush has been answered.
const (
	heardGone uint8 = 1 + iota // StNotFound, and nothing else
	heardLive                  // anything else, from anyone
)

func newSizeBook(slots int) sizeBook {
	return sizeBook{sizes: make(map[kernel.InodeID]sizeEntry), downSince: make([]uint64, slots)}
}

// observe feeds the size epoch a reply carried for ino into the cache.
// Adoption is strictly newest-wins: epochs only ever advance (exact
// sets bump, inodes are never reused), so a newer epoch resets the
// floor to zero under it, and an OLDER one is ignored — adopting it
// would corrupt the cache backward and make every retry loop ping-pong
// between divergent members' epochs forever; the fans detect the
// lagging member with behind and exclude it.
//
// allocfree
func (b *sizeBook) observe(ino kernel.InodeID, epoch uint64) {
	if e, ok := b.sizes[ino]; !ok || epoch > e.epoch {
		b.establish(ino, 0, epoch)
	}
}

// behind reports whether a reply proves the replying server missed an
// exact size set this client already observed: its epoch for ino is
// strictly behind the cached one. Such a server's size state is
// incoherent (it was down, in the truncating client's view, when the
// epoch advanced — and grow publishes are epoch-checked precisely so it
// cannot silently resurrect the pre-truncate size). No single observed
// epoch satisfies a group whose members disagree, so retrying a refused
// fan against it can never converge: the caller must exclude the
// lagging member and let the coherent survivors carry the group.
func (b *sizeBook) behind(ino kernel.InodeID, epoch uint64) bool {
	e, ok := b.sizes[ino]
	return ok && epoch < e.epoch
}

// floor returns the validated size of ino — every alive server holds at
// least that much — and the epoch it is valid under; (0, 0) for an
// inode never resolved.
//
// allocfree
func (b *sizeBook) floor(ino kernel.InodeID) (int64, uint64) {
	e := b.sizes[ino]
	return e.size, e.epoch
}

// establish records that every alive server now holds at least size
// bytes of ino under epoch, stamped with the current exclusion tick.
//
// allocfree
func (b *sizeBook) establish(ino kernel.InodeID, size int64, epoch uint64) {
	b.sizes[ino] = sizeEntry{size: size, epoch: epoch, stamp: b.tick}
}

// forget drops everything cached about ino.
func (b *sizeBook) forget(ino kernel.InodeID) { delete(b.sizes, ino) }

// excluded notes that slot was just marked down: entries established
// from here on were reconciled without it.
func (b *sizeBook) excluded(slot int) {
	b.tick++
	b.downSince[slot] = b.tick
}

// readmit drops the entries established while slot was excluded — the
// ones whose reconciliation fans skipped it — so the next write to an
// affected file replays the grow-only reconciliation.
func (b *sizeBook) readmit(slot int) {
	for ino, e := range b.sizes {
		if e.stamp >= b.downSince[slot] {
			delete(b.sizes, ino)
		}
	}
}

// setBatch turns deferred publishes on with a window of k enqueues.
func (b *sizeBook) setBatch(k int) {
	b.batch = k
	if b.pend == nil {
		b.pend = make(map[kernel.InodeID]int64)
	}
}

// batching reports whether grow publishes are deferred at all.
func (b *sizeBook) batching() bool { return b.batch > 0 }

// pending reports whether a flush has anything to send.
func (b *sizeBook) pending() bool { return len(b.order)+len(b.scrubs) > 0 }

// due counts one enqueue toward the batch window and reports whether
// the window is full.
func (b *sizeBook) due() bool {
	b.since++
	return b.since >= b.batch
}

// enqueue queues a publish of end for ino — a no-op under a validated
// size that already covers it, coalescing to the highest pending end,
// keeping first-insertion order — and reports whether the window is
// full (the caller flushes).
//
// allocfree
func (b *sizeBook) enqueue(ino kernel.InodeID, end int64) bool {
	if b.sizes[ino].size < end {
		if cur, ok := b.pend[ino]; !ok {
			b.pend[ino] = end
			b.order = append(b.order, ino)
		} else if end > cur {
			b.pend[ino] = end
		}
	}
	return b.due()
}

// drop removes everything the book holds for an unlinked inode — a
// queued publish must never resurrect the file's object on servers that
// already scrubbed it — and reports whether there was anything: a
// cached size or epoch, or a publish.
func (b *sizeBook) drop(victim kernel.InodeID) bool {
	e := b.sizes[victim]
	delete(b.sizes, victim)
	_, queued := b.pend[victim]
	if queued {
		delete(b.pend, victim)
		b.order = slices.DeleteFunc(b.order, func(ino kernel.InodeID) bool { return ino == victim })
	}
	return queued || e.size != 0 || e.epoch != 0
}

// scrub queues the lazy cluster-wide OpScrub of a dead inode and
// reports whether the window is full.
func (b *sizeBook) scrub(victim kernel.InodeID) bool {
	b.scrubs = append(b.scrubs, victim)
	return b.due()
}

// requests assembles the flush's request list: publishes in insertion
// order under the currently cached epochs, then scrubs; npub is the
// number of publishes. The requests are shared across every server's
// batch — startBatchFlight stamps and encodes each before returning.
func (b *sizeBook) requests() (reqs []*Req, npub int) {
	b.store = b.store[:0]
	for _, ino := range b.order {
		b.store = append(b.store, Req{Op: OpSetSize, Ino: ino, Off: b.pend[ino], Len: PackSetSize(false, b.sizes[ino].epoch)})
	}
	b.npub = len(b.store)
	for _, victim := range b.scrubs {
		b.store = append(b.store, Req{Op: OpScrub, Ino: victim})
	}
	b.reqs, b.heard = b.reqs[:0], b.heard[:0]
	for i := range b.store {
		b.reqs = append(b.reqs, &b.store[i])
		b.heard = append(b.heard, 0)
	}
	return b.reqs, b.npub
}

// answered tallies one target's reply to request pos of the current
// flush and reports whether it is a moot-so-far answer: StNotFound to a
// publish, which is never an error (see settle).
func (b *sizeBook) answered(pos int, status int32) bool {
	if pos >= b.npub {
		return false
	}
	if status != StNotFound {
		b.heard[pos] = heardLive
		return false
	}
	if b.heard[pos] == 0 {
		b.heard[pos] = heardGone
	}
	return true
}

// settle closes a flush that went through: every publish is now the
// validated size under the (possibly refreshed) cached epoch — except
// the moot ones, which every target answered StNotFound: the inode is
// gone, and so is what the book knew of it. The queue empties.
func (b *sizeBook) settle() {
	for k := range b.store[:b.npub] {
		ino := b.store[k].Ino
		if b.heard[k] == heardGone {
			b.forget(ino)
		} else {
			b.establish(ino, b.store[k].Off, b.sizes[ino].epoch)
		}
	}
	clear(b.pend)
	b.order, b.scrubs, b.since = b.order[:0], b.scrubs[:0], 0
	b.store, b.npub = b.store[:0], 0
}

// publish is the one stale-revalidate-retry loop: round fans a size set
// under the cached epoch and reports stale when some server refused it
// from AHEAD of the cache — the refusals refreshed the entry (observe),
// so the next round carries the authoritative epoch. The cap only
// guards against a pathological foreign truncate storm.
func publish(what string, round func() (stale bool, err error)) error {
	for attempt := 0; ; attempt++ {
		stale, err := round()
		if err != nil || !stale {
			return err
		}
		if attempt >= 3 {
			return fmt.Errorf("rfsrv: %s kept racing foreign size sets: %w", what, ErrStaleEpoch)
		}
	}
}
