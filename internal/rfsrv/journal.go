package rfsrv

// The resync journal (DESIGN.md §13): the namespace verbs and dirty
// data ranges each excluded server slot missed, for Reinstate to
// replay. Sizes are not journaled: Reinstate re-images them. The
// Cluster decides WHO missed a mutation (placement says which slots it
// was meant for, the exclusion state which of them are out — the
// journal* hooks in elastic.go); the journal type here owns the
// records and the one rule about their growth: a slot's dirty ranges
// merge at record time, so they never exceed the bytes the server
// holds. Host-level bookkeeping: no simulated time.

import (
	"slices"
	"sort"

	"repro/internal/kernel"
)

// journalOp is one namespace mutation an excluded server missed: the
// request to replay, plus the inode the cluster observed the fan mint
// for creates (verified after replay, since an idempotent re-execution
// must converge on the same number).
type journalOp struct {
	req     Req
	wantIno kernel.InodeID
}

// dirtyRange is a byte range of one file written while a server that
// holds (part of) it was excluded.
type dirtyRange struct {
	off int64
	n   int
}

func (r dirtyRange) end() int64 { return r.off + int64(r.n) }

// resyncJournal accumulates what one excluded server missed. ops
// replay in order (namespace mutations are order-sensitive); dirty
// data is a state copy — re-read from live replicas and re-written —
// so it needs no ordering, only coverage: each inode's ranges are
// sorted and disjoint, every write merging into the ranges it overlaps
// or touches, so replay copies each missed byte once. order lists the
// dirty inodes as first written.
type resyncJournal struct {
	ops   []journalOp
	dirty map[kernel.InodeID][]dirtyRange
	order []kernel.InodeID
}

// journal holds one resyncJournal per session slot — empty while the
// server is up, reset at exclusion and at readmission.
type journal struct {
	slots []resyncJournal
}

func newJournal(slots int) journal {
	return journal{slots: make([]resyncJournal, slots)}
}

// slot returns slot i's journal.
func (jn *journal) slot(i int) *resyncJournal { return &jn.slots[i] }

// reset empties slot i's journal.
func (jn *journal) reset(i int) { jn.slots[i] = resyncJournal{} }

// record appends one missed mutation to slot i's journal.
func (jn *journal) record(i int, req Req, wantIno kernel.InodeID) {
	j := &jn.slots[i]
	j.ops = append(j.ops, journalOp{req: req, wantIno: wantIno})
}

// dirty records that [off, off+n) of ino was written while slot i was
// excluded, merging it with every range of ino it overlaps or touches.
func (jn *journal) dirty(i int, ino kernel.InodeID, off int64, n int) {
	if n <= 0 {
		return
	}
	j := &jn.slots[i]
	if j.dirty == nil {
		j.dirty = make(map[kernel.InodeID][]dirtyRange)
	}
	rs, seen := j.dirty[ino]
	if !seen {
		j.order = append(j.order, ino)
	}
	r := dirtyRange{off: off, n: n}
	// rs[lo:hi] are the ranges r overlaps or touches.
	lo := sort.Search(len(rs), func(k int) bool { return rs[k].end() >= r.off })
	hi := lo
	for hi < len(rs) && rs[hi].off <= r.end() {
		hi++
	}
	if lo < hi {
		from, to := min(r.off, rs[lo].off), max(r.end(), rs[hi-1].end())
		r = dirtyRange{off: from, n: int(to - from)}
	}
	j.dirty[ino] = slices.Replace(rs, lo, hi, r)
}
