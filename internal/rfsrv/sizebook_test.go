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
			b := newSizeBook()
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

// TestJournalCaps: the journal has no caps — each inode's dirty
// ranges merge at record time into a sorted, disjoint set (adjacent,
// overlapping and contained writes fold into the ranges they touch,
// disjoint ones stay apart), order lists inodes as first written, and
// reset (markDown, Reinstate) starts the slot over without touching
// its neighbours.
func TestJournalCaps(t *testing.T) {
	type write struct {
		ino kernel.InodeID
		off int64
		n   int
	}
	for _, tc := range []struct {
		name   string
		writes []write
		want   map[kernel.InodeID][]dirtyRange
		order  []kernel.InodeID
	}{
		{"adjacent", []write{{5, 0, 40}, {5, 40, 20}, {5, 60, 5}},
			map[kernel.InodeID][]dirtyRange{5: {{0, 65}}}, []kernel.InodeID{5}},
		{"adjacent before", []write{{5, 40, 20}, {5, 0, 40}},
			map[kernel.InodeID][]dirtyRange{5: {{0, 60}}}, []kernel.InodeID{5}},
		{"overlapping", []write{{5, 0, 40}, {5, 30, 30}, {5, 50, 20}},
			map[kernel.InodeID][]dirtyRange{5: {{0, 70}}}, []kernel.InodeID{5}},
		{"contained", []write{{5, 0, 100}, {5, 10, 20}, {5, 0, 100}},
			map[kernel.InodeID][]dirtyRange{5: {{0, 100}}}, []kernel.InodeID{5}},
		{"covers several", []write{{5, 10, 5}, {5, 30, 5}, {5, 50, 5}, {5, 0, 40}},
			map[kernel.InodeID][]dirtyRange{5: {{0, 40}, {50, 5}}}, []kernel.InodeID{5}},
		{"bridges a gap", []write{{5, 0, 10}, {5, 20, 10}, {5, 10, 10}},
			map[kernel.InodeID][]dirtyRange{5: {{0, 30}}}, []kernel.InodeID{5}},
		{"disjoint", []write{{5, 200, 40}, {5, 0, 40}, {5, 100, 10}, {5, 0, 0}},
			map[kernel.InodeID][]dirtyRange{5: {{0, 40}, {100, 10}, {200, 40}}}, []kernel.InodeID{5}},
		{"first-seen inode order", []write{{9, 0, 10}, {3, 0, 10}, {9, 10, 10}, {7, 5, 5}, {3, 50, 1}},
			map[kernel.InodeID][]dirtyRange{9: {{0, 20}}, 3: {{0, 10}, {50, 1}}, 7: {{5, 5}}},
			[]kernel.InodeID{9, 3, 7}},
		{"zero-length", []write{{6, 0, 0}}, nil, nil},
	} {
		jn := newJournal(3)
		jn.record(1, Req{Op: OpUnlink, Name: "f"}, 4)
		for _, w := range tc.writes {
			jn.dirty(1, w.ino, w.off, w.n)
		}
		j := jn.slot(1)
		if len(j.dirty) != len(tc.want) || !slices.Equal(j.order, tc.order) {
			t.Errorf("%s: dirty %v order %v, want %v order %v", tc.name, j.dirty, j.order, tc.want, tc.order)
			continue
		}
		for ino, want := range tc.want {
			if got := j.dirty[ino]; !slices.Equal(got, want) {
				t.Errorf("%s: inode %d ranges %v, want %v", tc.name, ino, got, want)
			}
		}
		if len(j.ops) != 1 || j.ops[0].wantIno != 4 {
			t.Errorf("%s: ops %v, want the one recorded unlink", tc.name, j.ops)
		}
		for _, k := range []int{0, 2} {
			if n := jn.slot(k); len(n.ops) != 0 || len(n.dirty) != 0 || len(n.order) != 0 {
				t.Errorf("%s: slot 1's records touched slot %d", tc.name, k)
			}
		}

		// Reset (what markDown does at the next exclusion) starts over.
		jn.reset(1)
		if len(j.ops) != 0 || len(j.dirty) != 0 || len(j.order) != 0 {
			t.Errorf("%s: reset left %d ops, dirty %v, order %v", tc.name, len(j.ops), j.dirty, j.order)
		}
	}
}
