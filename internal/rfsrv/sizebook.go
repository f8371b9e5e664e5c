package rfsrv

// sizeBook is the cluster client's size coherence (DESIGN.md §9): the
// validated (size, epoch) cache, with every rule about what a cached
// size proves. The Cluster owns the wire — which servers a publish
// fans to, who faulted — and tells the book what it saw; the book is
// pure bookkeeping (no simulation, no traffic), so its rules are
// table-tested in sizebook_test.go.
//
// The cache. sizes[ino] = (size, epoch) means: every alive server's
// local size of ino is at least size, established while the inode's
// size epoch was epoch. Every reply carries the epoch of the inode it
// resolves (observe); an epoch NEWER than the cached one proves a
// foreign exact size set ran, and the floor resets to zero under it so
// the next overwrite re-reconciles. An OLDER one proves the replying
// server, not the cache, is stale (behind).
//
// Readmission drops nothing. An entry's fan skipped the servers
// excluded at the time, but Reinstate re-images a returning server at
// the newest merged sizes, so every floor set while it was out holds
// for it too.

import (
	"fmt"

	"repro/internal/kernel"
)

// sizeEntry is one validated size-cache record (see sizeBook).
type sizeEntry struct {
	size  int64
	epoch uint64
}

type sizeBook struct {
	sizes map[kernel.InodeID]sizeEntry
}

func newSizeBook() sizeBook {
	return sizeBook{sizes: make(map[kernel.InodeID]sizeEntry)}
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
// bytes of ino under epoch.
//
// allocfree
func (b *sizeBook) establish(ino kernel.InodeID, size int64, epoch uint64) {
	b.sizes[ino] = sizeEntry{size: size, epoch: epoch}
}

// drop removes everything the book holds for an unlinked inode and
// reports whether there was anything: a cached size or epoch.
func (b *sizeBook) drop(victim kernel.InodeID) bool {
	e := b.sizes[victim]
	delete(b.sizes, victim)
	return e.size != 0 || e.epoch != 0
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
