package rfsrv

// Tests of the pure placement value — no simulation: runs partition a
// range into maximal same-owner pieces, a replica group is R distinct
// slots, delta is exactly what a membership change must copy, and the
// server's ownership check is the client's owner group. Residues and
// groups are cross-checked against refResidue/refGroup, the formulas of
// the torture oracle's residueOf/groupOf (internal/torture/rig.go — an
// in-package test cannot import it: torture imports rfsrv). The same
// invariants run over arbitrary geometries in FuzzPlacement.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
)

// refResidue is the torture oracle's residueOf.
func refResidue(ino kernel.InodeID, n int) int {
	if ino <= 1 {
		return 0
	}
	return int((uint64(ino) - 2) % uint64(n))
}

// refGroup is the torture oracle's groupOf: ring positions, which are
// the slots of an identity ring.
func refGroup(res, n, r int) []int {
	out := make([]int, 0, r)
	for j := 0; j < r; j++ {
		out = append(out, (res+j)%n)
	}
	return out
}

// permuted returns n distinct slots (base..base+n-1) in an order drawn
// from seed, so a test that confuses ring positions with slots fails.
func permuted(n, base int, seed uint64) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = base + i
	}
	for i := n - 1; i > 0; i-- {
		seed = mix(seed + 1)
		j := int(seed % uint64(i+1))
		m[i], m[j] = m[j], m[i]
	}
	return m
}

// group collects the R slots of a position's replica group.
func (pl placement) group(pos int) []int {
	out := make([]int, 0, pl.replicas)
	for j := 0; j < pl.replicas; j++ {
		out = append(out, pl.slot(pos, j))
	}
	return out
}

// holders collects the slots holding the standard-layout stripe at off.
func (pl placement) holders(off int64) []int {
	return pl.group(pl.owner(LayoutStandard, 0, off))
}

// checkGroups: every position's group is R distinct member slots that
// rank and holds agree with, and nobody else holds it.
func checkGroups(t *testing.T, pl placement) {
	t.Helper()
	for pos := range pl.members {
		g := pl.group(pos)
		for j, s := range g {
			if slices.Index(g, s) != j {
				t.Fatalf("%v: group of position %d repeats slot %d: %v", pl, pos, s, g)
			}
			if pl.pos(s) < 0 || pl.rank(pos, s) != j || !pl.holds(s, pos) {
				t.Fatalf("%v: slot %d of group %d: pos %d rank %d holds %v", pl, s, pos, pl.pos(s), pl.rank(pos, s), pl.holds(s, pos))
			}
		}
		for _, s := range pl.members {
			if !slices.Contains(g, s) && (pl.holds(s, pos) || pl.rank(pos, s) >= 0) {
				t.Fatalf("%v: slot %d is outside group %d (%v) yet holds it", pl, s, pos, g)
			}
		}
	}
}

// checkRuns: runs partitions [off, off+n) exactly, in order, into
// pieces whose every byte has the piece's owner, adjacent pieces having
// different owners.
func checkRuns(t *testing.T, pl placement, lay LayoutClass, ino kernel.InodeID, off int64, n int) {
	t.Helper()
	rs := pl.runs(lay, ino, off, n, nil)
	at := off
	for i, r := range rs {
		if r.off != at || r.n <= 0 && n > 0 {
			t.Fatalf("%v lay %d [%d,+%d): run %d = %+v, want it to start at %d", pl, lay, off, n, i, r, at)
		}
		w := pl.width(lay)
		for _, probe := range []int64{r.off, r.off + int64(r.n) - 1, (r.off/max(w, 1) + 1) * max(w, 1)} {
			if probe >= r.off && probe < r.off+int64(r.n) && pl.owner(lay, ino, probe) != r.owner {
				t.Fatalf("%v lay %d [%d,+%d): byte %d of run %+v is owned by %d", pl, lay, off, n, probe, r, pl.owner(lay, ino, probe))
			}
		}
		if i > 0 && rs[i-1].owner == r.owner {
			t.Fatalf("%v lay %d [%d,+%d): runs %d and %d share owner %d: not maximal", pl, lay, off, n, i-1, i, r.owner)
		}
		at += int64(r.n)
	}
	if n > 0 && at != off+int64(n) || n == 0 && lay != LayoutWhole && len(rs) != 0 {
		t.Fatalf("%v lay %d [%d,+%d): runs %+v end at %d", pl, lay, off, n, rs, at)
	}
}

// checkDelta: over [off, off+n), delta's fragments are in order and
// disjoint, and at every stripe old.delta(next) ∪ (old holders ∩ next
// holders) = next holders, with delta disjoint from the old holders.
func checkDelta(t *testing.T, old, next placement, off, n int64) {
	t.Helper()
	moves := old.delta(next, off, n)
	for cur := off; cur < off+n; cur = (cur/old.stripe + 1) * old.stripe {
		var to []int
		if len(moves) > 0 && moves[0].off == cur {
			to = moves[0].to
			if want := min((cur/old.stripe+1)*old.stripe, off+n) - cur; int64(moves[0].n) != want {
				t.Fatalf("%v -> %v: fragment at %d is %d bytes, want %d", old, next, cur, moves[0].n, want)
			}
			moves = moves[1:]
		}
		was, now := old.holders(cur), next.holders(cur)
		got := slices.Clone(to)
		for _, s := range to {
			if slices.Contains(was, s) {
				t.Fatalf("%v -> %v: delta at %d copies to %d, which already holds it (%v)", old, next, cur, s, was)
			}
		}
		for _, s := range now {
			if slices.Contains(was, s) {
				got = append(got, s)
			}
		}
		slices.Sort(got)
		slices.Sort(now)
		if !slices.Equal(got, now) {
			t.Fatalf("%v -> %v: stripe at %d: delta %v ∪ kept = %v, want the new holders %v (old %v)", old, next, cur, to, got, now, was)
		}
	}
	if len(moves) != 0 {
		t.Fatalf("%v -> %v: delta has fragments outside [%d,+%d) or out of order: %+v", old, next, off, n, moves)
	}
}

// offsets are the stripe-boundary ±1 probes of a width.
func offsets(w int64) []int64 {
	return []int64{0, 1, w - 1, w, w + 1, 3*w - 1, 3 * w, 7*w + 1}
}

func TestPlacementRunsAndGroups(t *testing.T) {
	const stripe = 2 * mem.PageSize
	for n := 1; n <= 8; n++ {
		for r := 1; r <= n; r++ {
			pl := placement{members: permuted(n, 3, uint64(n*8+r)), stripe: stripe, replicas: r}
			checkGroups(t, pl)
			for lay := LayoutStandard; lay <= layoutMax; lay++ {
				w := max(pl.width(lay), stripe)
				for _, ino := range []kernel.InodeID{2, 7, 1 << 33} {
					for _, off := range offsets(w) {
						for _, ln := range []int{0, 1, int(w) - 1, int(w), int(w) + 1, 9*int(w) + 5} {
							checkRuns(t, pl, lay, ino, off, ln)
						}
					}
				}
			}
		}
	}
}

func TestPlacementDelta(t *testing.T) {
	const stripe = 2 * mem.PageSize
	for n := 1; n <= 8; n++ {
		for r := 1; r <= n; r++ {
			old := placement{members: permuted(n, 0, uint64(n*8+r)), stripe: stripe, replicas: r}
			span := int64(3*n+2) * stripe
			if m := old.delta(old, 0, span); len(m) != 0 {
				t.Fatalf("%v: delta with itself = %+v, want nothing", old, m)
			}
			for pos := 0; pos <= n; pos++ { // join a new slot at every position
				next := old.withMembers(slices.Insert(slices.Clone(old.members), pos, n))
				for _, off := range offsets(stripe) {
					checkDelta(t, old, next, off, span)
				}
			}
			for pos := 0; pos < n && n > r; pos++ { // retire every position
				next := old.withMembers(slices.Delete(slices.Clone(old.members), pos, pos+1))
				for _, off := range offsets(stripe) {
					checkDelta(t, old, next, off, span)
				}
			}
			for pos := 0; pos < n; pos++ { // a vacated position is what its member's rebuild copies back
				checkDelta(t, old.vacate(pos), old, 0, span)
			}
		}
	}
}

// TestPlacementServerAgreesWithClient commits every (pos, n, r)
// geometry on a server the way OpMember does and requires its ownsDir to
// be membership in the client's owner group — and both to match the
// torture oracle's reference formulas.
func TestPlacementServerAgreesWithClient(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for r := 1; r <= n; r++ {
			client := ringPlacement(n, r)
			for pos := 0; pos < n; pos++ {
				srv := &Server{sfs: (*memfs.FS)(nil)}
				if err := srv.handleMember(nil, &Req{Op: OpMember, Off: 1, Len: PackMember(pos, n, r, true)}); err != nil {
					t.Fatal(err)
				}
				for ino := kernel.InodeID(0); ino < kernel.InodeID(3*n+4); ino++ {
					res := client.residue(ino)
					if res != refResidue(ino, n) || !slices.Equal(client.group(res), refGroup(res, n, r)) {
						t.Fatalf("N=%d R=%d ino %d: residue %d group %v, oracle says %d %v", n, r, ino, res, client.group(res), refResidue(ino, n), refGroup(res, n, r))
					}
					if got, want := srv.ownsDir(ino), slices.Contains(client.group(res), pos); got != want {
						t.Fatalf("N=%d R=%d: server %d ownsDir(%d) = %v, the client's group is %v", n, r, pos, ino, got, client.group(res))
					}
				}
			}
		}
	}
}

// FuzzPlacement runs the table tests' invariants over arbitrary
// geometries: a permuted ring of 1..8 members, any R, stripe width,
// layout class and byte range, and one membership change (a join or a
// retire at a fuzzed position).
func FuzzPlacement(f *testing.F) {
	f.Add(uint64(0), uint8(2), uint8(1), uint8(1), uint8(0), uint64(2), int64(0), uint32(3*mem.PageSize), uint8(3))
	f.Add(uint64(7), uint8(3), uint8(1), uint8(15), uint8(2), uint64(9), int64(WideStripeSize-1), uint32(2*WideStripeSize+2), uint8(0))
	f.Add(uint64(1<<40), uint8(7), uint8(7), uint8(0), uint8(1), uint64(1<<33), int64(1<<39), uint32(1), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, members, replicas, stripePages, layout uint8, ino uint64, off int64, length uint32, change uint8) {
		n := 1 + int(members%8)
		pl := placement{
			members:  permuted(n, 0, seed),
			stripe:   int64(1+stripePages%16) * mem.PageSize,
			replicas: 1 + int(replicas)%n,
		}
		if off < 0 {
			off = -(off + 1)
		}
		off %= 1 << 40
		ln := int(length % (4 << 20))
		checkGroups(t, pl)
		checkRuns(t, pl, LayoutClass(layout%uint8(layoutMax+1)), kernel.InodeID(ino), off, ln)
		if pl.residue(kernel.InodeID(ino)) != refResidue(kernel.InodeID(ino), n) {
			t.Fatalf("%v: residue(%d) = %d, oracle says %d", pl, ino, pl.residue(kernel.InodeID(ino)), refResidue(kernel.InodeID(ino), n))
		}
		next := pl.withMembers(slices.Insert(slices.Clone(pl.members), int(change)%(n+1), n))
		if change&0x80 != 0 && n > pl.replicas {
			pos := int(change) % n
			next = pl.withMembers(slices.Delete(slices.Clone(pl.members), pos, pos+1))
		}
		checkDelta(t, pl, next, off, int64(ln))
		checkDelta(t, pl, pl, off, int64(ln))
	})
}

// String makes failing geometries readable.
func (pl placement) String() string {
	return fmt.Sprintf("{members %v stripe %d R=%d}", pl.members, pl.stripe, pl.replicas)
}
