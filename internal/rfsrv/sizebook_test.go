package rfsrv

// Table tests of the two pure owners the Cluster composes — the size
// book (what a cached size proves) and the resync journal (what an
// excluded server missed) — with no simulation: each case is a script
// of book/journal calls and the state it must leave.

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/kernel"
)

// TestSizeBookEpochAdoption: observe is newest-wins — a newer epoch
// resets the floor under it, an equal one confirms, an older one is
// ignored and flags its sender as behind.
func TestSizeBookEpochAdoption(t *testing.T) {
	const ino = kernel.InodeID(7)
	for _, tc := range []struct {
		name      string
		cached    *sizeEntry // nil: never resolved
		observed  uint64
		wantSize  int64
		wantEpoch uint64
		behind    bool
	}{
		{"first sight adopts the epoch at floor zero", nil, 3, 0, 3, false},
		{"first sight of epoch zero", nil, 0, 0, 0, false},
		{"the same epoch confirms the floor", &sizeEntry{size: 100, epoch: 3}, 3, 100, 3, false},
		{"a newer epoch resets the floor under it", &sizeEntry{size: 100, epoch: 3}, 5, 0, 5, false},
		{"an older epoch is ignored: the sender is behind", &sizeEntry{size: 100, epoch: 3}, 2, 100, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newSizeBook(2)
			if tc.cached != nil {
				b.establish(ino, tc.cached.size, tc.cached.epoch)
			}
			if got := b.behind(ino, tc.observed); got != tc.behind {
				t.Errorf("behind(%d) = %v, want %v", tc.observed, got, tc.behind)
			}
			b.observe(ino, tc.observed)
			if size, epoch := b.floor(ino); size != tc.wantSize || epoch != tc.wantEpoch {
				t.Errorf("floor = (%d, %d), want (%d, %d)", size, epoch, tc.wantSize, tc.wantEpoch)
			}
		})
	}
}

// TestSizeBookExclusionStamps pins readmit to the semantics of the
// bitmask it replaced: an entry goes exactly when the readmitted slot
// was excluded at the entry's (last) establishment — across exclude →
// establish → reinstate → re-exclude, with overlapping exclusions, and
// for a slot index no 64-bit mask could hold.
func TestSizeBookExclusionStamps(t *testing.T) {
	const slots, far = 80, 70
	type step struct {
		op   string // "down", "up" (readmit), "est" (establish), "see" (observe)
		slot int
		ino  kernel.InodeID
	}
	for _, tc := range []struct {
		name  string
		steps []step
		kept  []kernel.InodeID // entries that must survive, ascending
	}{
		{"an entry established before the exclusion survives the readmission",
			[]step{{op: "est", ino: 1}, {op: "down", slot: 2}, {op: "up", slot: 2}}, []kernel.InodeID{1}},
		{"an entry established during the exclusion goes",
			[]step{{op: "down", slot: 2}, {op: "est", ino: 1}, {op: "up", slot: 2}}, nil},
		{"an entry merely observed during the exclusion goes too",
			[]step{{op: "down", slot: 2}, {op: "see", ino: 1}, {op: "up", slot: 2}}, nil},
		{"re-establishing during the exclusion re-stamps an old entry",
			[]step{{op: "est", ino: 1}, {op: "down", slot: 2}, {op: "est", ino: 1}, {op: "up", slot: 2}}, nil},
		{"another slot's readmission leaves the entry alone",
			[]step{{op: "down", slot: 2}, {op: "est", ino: 1}, {op: "down", slot: 3}, {op: "up", slot: 3}}, []kernel.InodeID{1}},
		{"overlapping exclusions: the entry goes with the slot that was down at establishment",
			[]step{{op: "down", slot: 2}, {op: "est", ino: 1}, {op: "down", slot: 3}, {op: "est", ino: 2},
				{op: "up", slot: 3}}, []kernel.InodeID{1}},
		{"overlapping exclusions: the earlier slot takes both",
			[]step{{op: "down", slot: 2}, {op: "est", ino: 1}, {op: "down", slot: 3}, {op: "est", ino: 2},
				{op: "up", slot: 2}}, nil},
		{"exclude → establish → reinstate → re-exclude: what was established in between survives the second readmission",
			[]step{{op: "down", slot: 2}, {op: "est", ino: 1}, {op: "up", slot: 2}, {op: "est", ino: 2},
				{op: "down", slot: 2}, {op: "est", ino: 3}, {op: "up", slot: 2}}, []kernel.InodeID{2}},
		{"a slot index past 64",
			[]step{{op: "est", ino: 1}, {op: "down", slot: far}, {op: "est", ino: 2}, {op: "down", slot: 5},
				{op: "est", ino: 3}, {op: "up", slot: far}}, []kernel.InodeID{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newSizeBook(slots)
			for _, s := range tc.steps {
				switch s.op {
				case "down":
					b.excluded(s.slot)
				case "up":
					b.readmit(s.slot)
				case "est":
					b.establish(s.ino, 4096, 1)
				case "see":
					b.observe(s.ino, 1)
				}
			}
			var kept []kernel.InodeID
			for ino := range b.sizes {
				kept = append(kept, ino)
			}
			slices.Sort(kept)
			if !slices.Equal(kept, tc.kept) {
				t.Errorf("entries left: %v, want %v", kept, tc.kept)
			}
		})
	}
}

// TestPublishRetriesStaleRounds: the one retry loop goes around while a
// round reports stale, stops at the first clean or failed round, and
// gives up with ErrStaleEpoch after four.
func TestPublishRetriesStaleRounds(t *testing.T) {
	for _, tc := range []struct {
		staleRounds int
		fail        bool // the round after the stale ones fails
		rounds      int
		err         error
	}{
		{0, false, 1, nil},
		{2, false, 3, nil},
		{3, false, 4, nil},
		{4, false, 4, ErrStaleEpoch},
		{1, true, 2, ErrBusy},
	} {
		n := 0
		err := publish("test publish", func() (bool, error) {
			n++
			if n <= tc.staleRounds {
				return true, nil
			}
			if tc.fail {
				return false, ErrBusy
			}
			return false, nil
		})
		if n != tc.rounds || !errors.Is(err, tc.err) {
			t.Errorf("%d stale round(s), fail %v: ran %d round(s) with %v, want %d with %v",
				tc.staleRounds, tc.fail, n, err, tc.rounds, tc.err)
		}
	}
}

// TestJournalCaps: a slot's journal spills at either cap — emptying and
// recording nothing further — records coalesce adjacent dirty ranges,
// and reset (markDown, Reinstate) starts it over; other slots are
// untouched.
func TestJournalCaps(t *testing.T) {
	jn := newJournal(3)
	if jn.opCap != DefaultJournalOps || jn.byteCap != DefaultJournalBytes {
		t.Fatalf("default caps (%d, %d)", jn.opCap, jn.byteCap)
	}
	jn.limit(2, 0) // bytes: 0 keeps the default
	jn.limit(0, 100)
	if jn.opCap != 2 || jn.byteCap != 100 {
		t.Fatalf("caps after limit = (%d, %d), want (2, 100)", jn.opCap, jn.byteCap)
	}
	j := jn.slot(1)
	if !j.empty() {
		t.Fatal("a fresh journal is not empty")
	}

	// The op cap: two records fit, the third spills, the fourth is a no-op.
	for k, want := range []bool{false, false, true, false} {
		if got := jn.record(1, Req{Op: OpUnlink, Name: "f"}, kernel.InodeID(k), 0); got != want {
			t.Errorf("record %d: spilled-now %v, want %v", k, got, want)
		}
	}
	if !j.spilled || len(j.ops) != 0 || j.empty() {
		t.Errorf("after the op spill: spilled %v, %d ops, empty %v", j.spilled, len(j.ops), j.empty())
	}
	if jn.dirty(1, 5, 0, 10) || j.bytes != 0 {
		t.Error("a spilled journal recorded a dirty range")
	}
	if !jn.slot(0).empty() || !jn.slot(2).empty() {
		t.Error("slot 1's spill touched its neighbours")
	}

	// Reset (what markDown does at the next exclusion) starts over.
	jn.reset(1)
	if !j.empty() || j.spilled {
		t.Fatal("reset left the journal spilled or non-empty")
	}

	// The byte cap: adjacent writes coalesce, a zero-length write is
	// nothing, the write that would pass the cap spills.
	for _, w := range []struct {
		ino     kernel.InodeID
		off     int64
		n       int
		spilled bool
	}{
		{5, 0, 40, false},
		{5, 40, 20, false}, // adjacent: extends the range
		{6, 0, 0, false},
		{5, 200, 40, false},
		{6, 0, 1, true},
	} {
		if got := jn.dirty(1, w.ino, w.off, w.n); got != w.spilled {
			t.Errorf("dirty(%d, %d, %d): spilled-now %v, want %v", w.ino, w.off, w.n, got, w.spilled)
		}
		if !w.spilled && w.ino == 5 && w.off == 200 {
			if rs := j.dirty[5]; !slices.Equal(rs, []dirtyRange{{0, 60}, {200, 40}}) || j.bytes != 100 || !slices.Equal(j.order, []kernel.InodeID{5}) {
				t.Errorf("dirty map %v, %d bytes, order %v; want [{0 60} {200 40}], 100, [5]", rs, j.bytes, j.order)
			}
		}
	}
	if !j.spilled || j.bytes != 0 || len(j.order) != 0 {
		t.Errorf("after the byte spill: spilled %v, %d bytes, order %v", j.spilled, j.bytes, j.order)
	}
	if jn.record(1, Req{Op: OpUnlink}, 0, 0) || len(j.ops) != 0 {
		t.Error("a spilled journal recorded a mutation")
	}
}
