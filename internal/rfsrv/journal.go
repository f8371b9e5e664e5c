package rfsrv

// The resync journal (DESIGN.md §13): the namespace verbs and dirty
// data ranges each excluded server slot missed, for Reinstate to
// replay. Sizes are not journaled: Reinstate re-images them. The
// Cluster decides WHO missed a mutation (placement says which slots it
// was meant for, the exclusion state which of them are out — the
// journal* hooks in elastic.go); the journal type here owns the
// records. Dirty data is kept in a dirtySet, the one record of bytes
// that must be re-copied: the same type is a running migration's log
// (MemberView) and a readmission's copy plan (replayJournal).
// Host-level bookkeeping: no simulated time.

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

// dirtyRange is a byte range of one file that must be re-copied.
type dirtyRange struct {
	off int64
	n   int
}

func (r dirtyRange) end() int64 { return r.off + int64(r.n) }

// dirtySet is a set of file byte ranges to re-copy. Each inode's
// ranges are sorted and disjoint: every range added merges into the
// ranges it overlaps or touches, so the set never exceeds the bytes
// written and a copy of it moves each byte once. order lists the
// inodes as first added. The zero value is empty.
type dirtySet struct {
	ranges map[kernel.InodeID][]dirtyRange
	order  []kernel.InodeID
}

// add records [off, off+n) of ino, merging it with every range of ino
// it overlaps or touches.
func (d *dirtySet) add(ino kernel.InodeID, off int64, n int) {
	if n <= 0 {
		return
	}
	if d.ranges == nil {
		d.ranges = make(map[kernel.InodeID][]dirtyRange)
	}
	rs, seen := d.ranges[ino]
	if !seen {
		d.order = append(d.order, ino)
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
	d.ranges[ino] = slices.Replace(rs, lo, hi, r)
}

// each calls f on every range, inode by inode in order and ascending
// within an inode, until f fails.
func (d *dirtySet) each(f func(ino kernel.InodeID, r dirtyRange) error) error {
	for _, ino := range d.order {
		for _, r := range d.ranges[ino] {
			if err := f(ino, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// resyncJournal accumulates what one excluded server missed. ops
// replay in order (namespace mutations are order-sensitive); dirty
// data is a state copy — re-read from live replicas and re-written —
// so it needs no ordering, only coverage.
type resyncJournal struct {
	ops   []journalOp
	dirty dirtySet
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
