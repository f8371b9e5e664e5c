package rfsrv

// The resync journal (DESIGN.md §13): what each excluded server slot
// missed, bounded, for Reinstate to replay. The Cluster decides WHO
// missed a mutation (placement says which slots it was meant for, the
// exclusion state which of them are out — the journal* hooks in
// elastic.go); the journal type here owns the records and the one rule
// about their growth: past either cap a slot's journal spills — it
// empties, records nothing further, and Reinstate rebuilds the server's
// whole slice instead. Host-level bookkeeping: no simulated time.

import "repro/internal/kernel"

const (
	// DefaultJournalOps is the default bound on journaled mutations
	// per excluded server before the journal spills to full-slice
	// resync.
	DefaultJournalOps = 4096

	// DefaultJournalBytes is the default bound on journaled dirty data
	// bytes per excluded server before the journal spills.
	DefaultJournalBytes = 8 << 20
)

// journalOp is one namespace mutation an excluded server missed: the
// request to replay, plus what the cluster observed the fan produce —
// the minted inode for creates (verified after replay, since an
// idempotent re-execution must converge on the same number) and the
// resulting size epoch for epoch-bumping ops (replay aligns the
// returning server to wantEpoch−1 with OpSyncEpoch first, so the
// replayed bump lands exactly at wantEpoch).
type journalOp struct {
	req       Req
	wantIno   kernel.InodeID
	wantEpoch uint64
}

// dirtyRange is a byte range of one file written while a server that
// holds (part of) it was excluded.
type dirtyRange struct {
	off int64
	n   int
}

// resyncJournal accumulates what one excluded server missed. ops
// replay in order (namespace mutations are order-sensitive); dirty
// data is a state copy — re-read from live replicas and re-written —
// so it needs no ordering, only coverage, and coalesces adjacent
// writes. Once spilled the journal records nothing further; Reinstate
// then rebuilds the server's whole slice instead.
type resyncJournal struct {
	ops     []journalOp
	dirty   map[kernel.InodeID][]dirtyRange
	order   []kernel.InodeID
	bytes   int64
	spilled bool
}

// empty reports that the slot missed nothing (and did not spill).
func (j *resyncJournal) empty() bool { return !j.spilled && len(j.ops) == 0 && len(j.order) == 0 }

// journal holds one resyncJournal per session slot — empty while the
// server is up, reset at exclusion and at readmission — and the caps
// that bound each.
type journal struct {
	slots   []resyncJournal
	opCap   int
	byteCap int64
}

func newJournal(slots int) journal {
	return journal{slots: make([]resyncJournal, slots), opCap: DefaultJournalOps, byteCap: DefaultJournalBytes}
}

// limit sets the caps (a non-positive value keeps the current one).
func (jn *journal) limit(ops int, bytes int64) {
	if ops > 0 {
		jn.opCap = ops
	}
	if bytes > 0 {
		jn.byteCap = bytes
	}
}

// slot returns slot i's journal.
func (jn *journal) slot(i int) *resyncJournal { return &jn.slots[i] }

// reset empties slot i's journal.
func (jn *journal) reset(i int) { jn.slots[i] = resyncJournal{} }

// record appends one missed mutation to slot i's journal; it reports
// whether this record spilled it (the op cap was already reached).
func (jn *journal) record(i int, req Req, wantIno kernel.InodeID, wantEpoch uint64) (spilled bool) {
	j := &jn.slots[i]
	if j.spilled {
		return false
	}
	if len(j.ops) >= jn.opCap {
		*j = resyncJournal{spilled: true}
		return true
	}
	j.ops = append(j.ops, journalOp{req: req, wantIno: wantIno, wantEpoch: wantEpoch})
	return false
}

// dirty records that [off, off+n) of ino was written while slot i was
// excluded, coalescing with the inode's previous range when adjacent;
// it reports whether this write spilled the journal (the byte cap
// would be exceeded).
func (jn *journal) dirty(i int, ino kernel.InodeID, off int64, n int) (spilled bool) {
	j := &jn.slots[i]
	if n <= 0 || j.spilled {
		return false
	}
	if j.bytes+int64(n) > jn.byteCap {
		*j = resyncJournal{spilled: true}
		return true
	}
	if j.dirty == nil {
		j.dirty = make(map[kernel.InodeID][]dirtyRange)
	}
	rs := j.dirty[ino]
	if len(rs) == 0 {
		j.order = append(j.order, ino)
	}
	if k := len(rs) - 1; k >= 0 && rs[k].off+int64(rs[k].n) == off {
		rs[k].n += n
	} else {
		rs = append(rs, dirtyRange{off: off, n: n})
	}
	j.dirty[ino] = rs
	j.bytes += int64(n)
	return false
}
