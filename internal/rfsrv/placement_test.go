package rfsrv

// Tests of the pure placement value — no simulation: runs partition a
// range into maximal same-owner pieces, a replica group is R distinct
// slots, delta is exactly what a membership change must copy, and the
// server's ownership check is the client's owner group. Residues and
// groups are cross-checked against refResidue/refGroup, the formulas of
// the torture oracle's residueOf/groupOf (internal/torture/rig.go — an
// in-package test cannot import it: torture imports rfsrv), and every
// stripe's read slices cover it in rank order, under any exclusion set
// served by alive members with the load spread. The same invariants
// run over arbitrary geometries and exclusion sets in FuzzPlacement.

import (
	"fmt"
	"math"
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

// holders collects the slots holding byte off of an inode of class lay.
func (pl placement) holders(lay LayoutClass, ino kernel.InodeID, off int64) []int {
	return pl.group(pl.owner(lay, ino, off))
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
	rs := pl.runs(nil, lay, ino, off, n, false, nil)
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

// checkReaders checks the read slices under the exclusion set down
// (indexed by slot): table-wide through checkSliceTable, then the read
// slices of the stripe holding off cover it in rank order — every byte
// has exactly one reading rank in [0, R), constant over a page, each
// rank's bytes one page-aligned range that reader's end closes, every
// rank a share once the stripe has R pages — and the sliced runs of
// [off, off+n) partition it into pieces that each lie in one slice of
// one stripe. With one replica, or a class that does not stripe, the
// owner reads everything and the sliced runs are the runs.
func checkReaders(t *testing.T, pl placement, down []bool, lay LayoutClass, ino kernel.InodeID, off int64, n int) {
	t.Helper()
	checkSliceTable(t, pl, down)
	sliced := pl.runs(down, lay, ino, off, n, true, nil)
	w := pl.width(lay)
	if w == 0 || pl.replicas == 1 {
		for _, probe := range []int64{off, off + int64(n)/2, off + int64(n)} {
			if rank, end := pl.reader(down, lay, probe); rank != 0 || end != math.MaxInt64 {
				t.Fatalf("%v lay %d: byte %d read by rank %d up to %d, want the owner, unsliced", pl, lay, probe, rank, end)
			}
		}
		if want := pl.runs(down, lay, ino, off, n, false, nil); !slices.Equal(sliced, want) {
			t.Fatalf("%v lay %d [%d,+%d): sliced runs %+v, runs %+v", pl, lay, off, n, sliced, want)
		}
		return
	}
	base := off / w * w
	seen := -1
	for at := base; at < base+w; at += mem.PageSize {
		rank, end := pl.reader(down, lay, at)
		if last, lastEnd := pl.reader(down, lay, at+mem.PageSize-1); last != rank || lastEnd != end {
			t.Fatalf("%v: page at %d is read by ranks %d and %d", pl, at, rank, last)
		}
		if rank < 0 || rank >= pl.replicas || rank < seen {
			t.Fatalf("%v: page at %d is read by rank %d after rank %d", pl, at, rank, seen)
		}
		if end%mem.PageSize != 0 || end <= at || end > base+w {
			t.Fatalf("%v: slice of page at %d ends at %d, outside (%d, %d] or off a page", pl, at, end, at, base+w)
		}
		if next, _ := pl.reader(down, lay, end); end < base+w && next == rank {
			t.Fatalf("%v: slice of rank %d ends at %d, where rank %d still reads", pl, rank, end, next)
		}
		if rank > seen+1 && w/mem.PageSize >= int64(pl.replicas) {
			t.Fatalf("%v: stripe of %d pages skips rank %d", pl, w/mem.PageSize, seen+1)
		}
		seen = rank
	}
	if w/mem.PageSize >= int64(pl.replicas) && seen != pl.replicas-1 {
		t.Fatalf("%v: stripe of %d pages is read by ranks up to %d only", pl, w/mem.PageSize, seen)
	}
	at := off
	for _, r := range sliced {
		rank, end := pl.reader(down, lay, r.off)
		if r.off != at || r.n <= 0 || r.off+int64(r.n) > end || r.owner != pl.owner(lay, ino, r.off) ||
			r.off/w != (r.off+int64(r.n)-1)/w {
			t.Fatalf("%v lay %d [%d,+%d): sliced run %+v (rank %d, slice end %d) at %d", pl, lay, off, n, r, rank, end, at)
		}
		at += int64(r.n)
	}
	if at != off+int64(n) {
		t.Fatalf("%v lay %d [%d,+%d): sliced runs %+v end at %d", pl, lay, off, n, sliced, at)
	}
}

// checkSliceTable checks the table-wide half of checkReaders for the
// exclusion set down, page by page through reader and firstUp: with
// nothing excluded every slice is the even cut ⌊j·P/R⌋; every page is
// read by an alive member of its group unless the whole group is out;
// no member reads more pages, summed over the ring, than the most
// loaded one under the even cuts with each excluded rank's slice on the
// group's next alive member; and every slice the even cuts give pages
// keeps some. One replica has one slice per stripe: nothing to cut.
func checkSliceTable(t *testing.T, pl placement, down []bool) {
	t.Helper()
	if pl.replicas == 1 {
		return
	}
	pages, r := pl.stripe/mem.PageSize, int64(pl.replicas)
	load, evenLoad := make([]int64, len(down)), make([]int64, len(down))
	for pos := range pl.members {
		base := int64(pos) * pl.stripe
		issued, evenIssued := 0, 0 // non-empty slices: the requests a stripe read issues
		for page := int64(0); page < pages; page++ {
			at := base + page*mem.PageSize
			rank, end := pl.reader(down, LayoutStandard, at)
			evenRank, evenEnd := pl.reader(nil, LayoutStandard, at)
			if j := (page+1)*r - 1; evenRank != int(j/pages) || evenEnd != base+(j/pages+1)*pages/r*mem.PageSize {
				t.Fatalf("%v: with nothing excluded page %d of position %d is slice %d up to %d, want the even cut's %d", pl, page, pos, evenRank, evenEnd, j/pages)
			}
			if !slices.Contains(down, true) && (rank != evenRank || end != evenEnd) {
				t.Fatalf("%v down %v: page %d of position %d is slice %d up to %d, want the even cut's %d up to %d", pl, down, page, pos, rank, end, evenRank, evenEnd)
			}
			if at+mem.PageSize == end {
				issued++
			}
			if at+mem.PageSize == evenEnd {
				evenIssued++
			}
			k := pl.firstUp(down, pos, rank, pl.replicas)
			if k < 0 {
				continue // the whole group is out: nobody reads it
			}
			if down[k] || !pl.holds(k, pos) {
				t.Fatalf("%v down %v: page %d of position %d is read by slot %d, not an alive member of its group", pl, down, page, pos, k)
			}
			load[k]++
			evenLoad[pl.firstUp(down, pos, evenRank, pl.replicas)]++
		}
		if issued != evenIssued {
			t.Fatalf("%v down %v: a stripe of position %d has %d non-empty read slices, %d under the even cuts", pl, down, pos, issued, evenIssued)
		}
	}
	if slices.Max(load) > slices.Max(evenLoad) {
		t.Fatalf("%v down %v: loads %v peak above the even cuts' %v", pl, down, load, evenLoad)
	}
}

// TestPlacementReadSlices checks the read slice rule over every ring of
// 1..6 members, every R and stripes of 1..17 pages, with nothing
// excluded, each slot excluded and two slots excluded. Then it pins
// the default stripe at R=2 on four servers, by the cut of each ring
// position's stripes in pages: a half each, the primary first, with
// nothing excluded; with one slot out, its 32 pages of each ring round
// spread over the chain of the other three, which read 22, 21 and 21
// pages where the even cuts gave 24, 24 and 16. Slot 1 out, the chain
// 2 → 3 → 0 moves stripe 2's cut from page 8 to 5 and stripe 3's from 8
// to 10. A change to these tables moves the failover benchmark at the
// seeds that kill that slot: slot 1 at seeds 3, 5, 6 and 10, slot 2 at
// 4, 7 and 9, slot 3 at 1, 2 and 8 (slot 0 is never its victim, but is
// the degraded figure's).
func TestPlacementReadSlices(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for r := 1; r <= n; r++ {
			for pages := int64(1); pages <= 17; pages++ {
				pl := placement{members: permuted(n, 0, uint64(n*8+r)), stripe: pages * mem.PageSize, replicas: r}
				for _, down := range exclusionSets(n) {
					for lay := LayoutStandard; lay <= layoutMax; lay++ {
						w := max(pl.width(lay), pl.stripe)
						for _, off := range offsets(w) {
							for _, ln := range []int{0, 1, int(w) - 1, int(w), 3*int(w) + 5} {
								checkReaders(t, pl, down, lay, 7, off, ln)
							}
						}
					}
				}
			}
		}
	}
	pl := placement{members: []int{0, 1, 2, 3}, stripe: DefaultStripeSize, replicas: 2}
	for victim, want := range map[int][4]int{
		-1: {8, 8, 8, 8},
		0:  {8, 5, 10, 8},
		1:  {8, 8, 5, 10},
		2:  {10, 8, 8, 5},
		3:  {5, 10, 8, 8},
	} {
		down := make([]bool, 4)
		if victim >= 0 {
			down[victim] = true
		}
		for pos, cut := range want {
			base := int64(pos) * DefaultStripeSize
			for _, c := range []struct {
				off       int64
				rank      int
				sliceEnds int64
			}{
				{base, 0, base + int64(cut)*mem.PageSize},
				{base + int64(cut)*mem.PageSize - 1, 0, base + int64(cut)*mem.PageSize},
				{base + int64(cut)*mem.PageSize, 1, base + DefaultStripeSize},
				{base + DefaultStripeSize - 1, 1, base + DefaultStripeSize},
			} {
				if rank, end := pl.reader(down, LayoutStandard, c.off); rank != c.rank || end != c.sliceEnds {
					t.Fatalf("%v down %v byte %d: rank %d slice end %d, want %d %d", pl, down, c.off, rank, end, c.rank, c.sliceEnds)
				}
			}
		}
	}
}

// TestPlacementReadSlicesExhaustive runs the read slice rule over
// every permuted ring of 2..8 members at R = 2 and 3, every stripe of
// 1..17 pages and every exclusion set that leaves a member alive:
// checkSliceTable's rules hold; at R=2 every member of a maximal run of
// alive ring positions reads ⌊L/m⌋ or ⌈L/m⌉ pages, L being what the
// run's m members read together — which certifies the least peak load
// and the fewest members at it, for a run's total is fixed by the
// groups at its ends, each read whole by its one alive member — and a
// brute force over every table of cuts for rings of up to 5 members
// and stripes of up to 6 pages finds none below the rule; at R=3 the
// slices are the even ones.
func TestPlacementReadSlicesExhaustive(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for r := 2; r <= min(3, n); r++ {
			for pages := 1; pages <= 17; pages++ {
				pl := placement{members: permuted(n, 0, uint64(n*8+r)), stripe: int64(pages) * mem.PageSize, replicas: r}
				for mask := 0; mask < 1<<n-1; mask++ {
					down := make([]bool, n)
					for k := range down {
						down[k] = mask>>k&1 == 1
					}
					checkSliceTable(t, pl, down)
					if r == 3 {
						for at := int64(0); at < int64(n)*pl.stripe; at += mem.PageSize {
							rank, end := pl.reader(down, LayoutStandard, at)
							if evenRank, evenEnd := pl.reader(nil, LayoutStandard, at); rank != evenRank || end != evenEnd {
								t.Fatalf("%v down %v: byte %d is slice %d up to %d, want the even %d up to %d", pl, down, at, rank, end, evenRank, evenEnd)
							}
						}
						continue
					}
					cuts := make([]int, n)
					for pos := range cuts {
						if rank, end := pl.reader(down, LayoutStandard, int64(pos)*pl.stripe); rank == 0 {
							cuts[pos] = int(end/mem.PageSize) - pos*pages
						}
					}
					load := chainLoads(pl, down, cuts)
					checkChainsBalanced(t, pl, down, load)
					if n <= 5 && pages <= 6 {
						checkNoTableBeats(t, pl, down, load)
					}
				}
			}
		}
	}
}

// chainLoads returns, per slot, the pages of one ring round an R=2
// placement reads from it when ring position pos's stripes are cut at
// page cuts[pos] and each excluded rank's slice is read from the
// group's other member.
func chainLoads(pl placement, down []bool, cuts []int) []int {
	pages := int(pl.stripe / mem.PageSize)
	load := make([]int, len(down))
	for pos, c := range cuts {
		for j, n := range []int{c, pages - c} {
			if k := pl.firstUp(down, pos, j, 2); k >= 0 {
				load[k] += n
			}
		}
	}
	return load
}

// checkChainsBalanced requires every member of each maximal run of
// alive ring positions to read ⌊L/m⌋ or ⌈L/m⌉ pages, L being the run's
// m members' total.
func checkChainsBalanced(t *testing.T, pl placement, down []bool, load []int) {
	t.Helper()
	n := len(pl.members)
	alive := func(pos int) bool { return !down[pl.slot(pos, 0)] }
	for start := 0; start < n; start++ {
		if !alive(start) || alive(start+n-1) && (start > 0 || slices.Contains(down, true)) {
			continue // not where a run starts; with nothing out the ring is one run from position 0
		}
		var run []int
		total := 0
		for k := 0; k < n && alive(start+k); k++ {
			run = append(run, load[pl.slot(start, k)])
			total += run[k]
		}
		lo, hi := total/len(run), (total+len(run)-1)/len(run)
		for _, l := range run {
			if l < lo || l > hi {
				t.Fatalf("%v down %v: the run from position %d reads %v pages, want each %d or %d", pl, down, start, run, lo, hi)
			}
		}
	}
}

// checkNoTableBeats tries every table of cuts of an R=2 placement and
// fails if one reaches a lower peak load than load, or the same peak
// on fewer members.
func checkNoTableBeats(t *testing.T, pl placement, down []bool, load []int) {
	t.Helper()
	pages := int(pl.stripe / mem.PageSize)
	peak, at := peakOf(load)
	cuts := make([]int, len(pl.members))
	for {
		if p, a := peakOf(chainLoads(pl, down, cuts)); p < peak || p == peak && a < at {
			t.Fatalf("%v down %v: cuts %v reach peak %d on %d members, the rule's loads %v peak %d on %d", pl, down, cuts, p, a, load, peak, at)
		}
		k := 0
		for ; k < len(cuts) && cuts[k] == pages; k++ {
			cuts[k] = 0
		}
		if k == len(cuts) {
			return
		}
		cuts[k]++
	}
}

// peakOf returns the largest load and how many slots carry it.
func peakOf(load []int) (peak, at int) {
	peak = slices.Max(load)
	for _, l := range load {
		if l == peak {
			at++
		}
	}
	return peak, at
}

// exclusionSets lists, for a ring of slots 0..n-1, nothing excluded,
// every slot excluded alone and, from 3 slots on, slots 0 and 2 both.
func exclusionSets(n int) [][]bool {
	out := [][]bool{make([]bool, n)}
	for k := 0; k < n; k++ {
		down := make([]bool, n)
		down[k] = true
		out = append(out, down)
	}
	if n >= 3 {
		down := make([]bool, n)
		down[0], down[2] = true, true
		out = append(out, down)
	}
	return out
}

// checkDelta: over [off, off+n) of a file of class lay, delta's
// fragments are in order and disjoint — one per stripe, or the whole
// range for a whole-on-home file — and at every fragment
// old.delta(next) ∪ (old holders ∩ next holders) = next holders, with
// delta disjoint from the old holders: a whole file's new home-group
// slots that did not hold it take the whole range, and nothing moves
// when its group is unchanged.
func checkDelta(t *testing.T, old, next placement, lay LayoutClass, ino kernel.InodeID, off, n int64) {
	t.Helper()
	moves := old.delta(next, lay, ino, off, n)
	for cur := off; cur < off+n; {
		end := off + n
		if w := old.width(lay); w > 0 {
			end = min((cur/w+1)*w, end)
		}
		var to []int
		if len(moves) > 0 && moves[0].off == cur {
			to = moves[0].to
			if int64(moves[0].n) != end-cur {
				t.Fatalf("%v -> %v lay %d: fragment at %d is %d bytes, want %d", old, next, lay, cur, moves[0].n, end-cur)
			}
			moves = moves[1:]
		}
		was, now := old.holders(lay, ino, cur), next.holders(lay, ino, cur)
		got := slices.Clone(to)
		for _, s := range to {
			if slices.Contains(was, s) {
				t.Fatalf("%v -> %v lay %d: delta at %d copies to %d, which already holds it (%v)", old, next, lay, cur, s, was)
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
			t.Fatalf("%v -> %v lay %d: fragment at %d: delta %v ∪ kept = %v, want the new holders %v (old %v)", old, next, lay, cur, to, got, now, was)
		}
		cur = end
	}
	if len(moves) != 0 {
		t.Fatalf("%v -> %v lay %d: delta has fragments outside [%d,+%d) or out of order: %+v", old, next, lay, off, n, moves)
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
			for _, sharded := range []bool{false, true} {
				old := placement{members: permuted(n, 0, uint64(n*8+r)), stripe: stripe, replicas: r, sharded: sharded}
				span := int64(3*n+2) * stripe
				for lay := LayoutStandard; lay <= layoutMax; lay++ {
					if m := old.delta(old, lay, 7, 0, span); len(m) != 0 {
						t.Fatalf("%v: delta with itself = %+v, want nothing", old, m)
					}
				}
				var nexts []placement
				for pos := 0; pos <= n; pos++ { // join a new slot at every position
					nexts = append(nexts, old.withMembers(slices.Insert(slices.Clone(old.members), pos, n)))
				}
				for pos := 0; pos < n && n > r; pos++ { // retire every position
					nexts = append(nexts, old.withMembers(slices.Delete(slices.Clone(old.members), pos, pos+1)))
				}
				for _, next := range nexts {
					for _, off := range offsets(stripe) {
						checkDelta(t, old, next, LayoutStandard, 0, off, span)
						for _, ino := range []kernel.InodeID{2, 7, 1 << 33} {
							checkDelta(t, old, next, LayoutWhole, ino, off, span)
						}
					}
				}
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
// layout class (bit 0 of layout) and namespace (bit 1: sharded homes a
// whole file on its residue), byte range, read slices with nothing
// excluded and under an exclusion set drawn from the seed, and one
// membership change (a join or a retire at a fuzzed position) — delta
// checked for the fuzzed class and, always, for a whole-on-home file.
func FuzzPlacement(f *testing.F) {
	f.Add(uint64(0), uint8(2), uint8(1), uint8(1), uint8(0), uint64(2), int64(0), uint32(3*mem.PageSize), uint8(3))
	f.Add(uint64(7), uint8(3), uint8(1), uint8(15), uint8(2), uint64(9), int64(1<<20-1), uint32(2<<20+2), uint8(0))
	f.Add(uint64(1<<40), uint8(7), uint8(7), uint8(0), uint8(1), uint64(1<<33), int64(1<<39), uint32(1), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, members, replicas, stripePages, layout uint8, ino uint64, off int64, length uint32, change uint8) {
		n := 1 + int(members%8)
		pl := placement{
			members:  permuted(n, 0, seed),
			stripe:   int64(1+stripePages%16) * mem.PageSize,
			replicas: 1 + int(replicas)%n,
			sharded:  layout&2 != 0,
		}
		if off < 0 {
			off = -(off + 1)
		}
		off %= 1 << 40
		ln := int(length % (4 << 20))
		checkGroups(t, pl)
		lay := LayoutClass(layout & 1)
		checkRuns(t, pl, lay, kernel.InodeID(ino), off, ln)
		checkReaders(t, pl, make([]bool, n), lay, kernel.InodeID(ino), off, ln)
		if x := mix(^seed); x&3 != 0 { // three cases in four: a random exclusion set
			down := make([]bool, n)
			for k := range down {
				down[k] = x>>(2+k)&1 == 1
			}
			checkReaders(t, pl, down, lay, kernel.InodeID(ino), off, ln)
		}
		if pl.residue(kernel.InodeID(ino)) != refResidue(kernel.InodeID(ino), n) {
			t.Fatalf("%v: residue(%d) = %d, oracle says %d", pl, ino, pl.residue(kernel.InodeID(ino)), refResidue(kernel.InodeID(ino), n))
		}
		checkNsGroup(t, pl, kernel.InodeID(ino))
		next := pl.withMembers(slices.Insert(slices.Clone(pl.members), int(change)%(n+1), n))
		if change&0x80 != 0 && n > pl.replicas {
			pos := int(change) % n
			next = pl.withMembers(slices.Delete(slices.Clone(pl.members), pos, pos+1))
		}
		for _, lc := range []LayoutClass{lay, LayoutWhole} {
			checkDelta(t, pl, next, lc, kernel.InodeID(ino), off, int64(ln))
			checkDelta(t, pl, pl, lc, kernel.InodeID(ino), off, int64(ln))
		}
	})
}

// checkNsGroup checks which members hold an inode's namespace entry
// against the rule: sharded, its residue's replica group, ranked as
// the group ranks them; replicated, every member, ranked by ring
// position.
func checkNsGroup(t *testing.T, pl placement, ino kernel.InodeID) {
	t.Helper()
	for _, slot := range pl.members {
		want := pl.pos(slot)
		if pl.sharded {
			want = pl.rank(refResidue(ino, len(pl.members)), slot)
		}
		if got := pl.nsRank(ino, slot); got != want {
			t.Fatalf("%v: nsRank(%d, slot %d) = %d, want %d", pl, ino, slot, got, want)
		}
	}
}

// String makes failing geometries readable.
func (pl placement) String() string {
	return fmt.Sprintf("{members %v stripe %d R=%d sharded=%v}", pl.members, pl.stripe, pl.replicas, pl.sharded)
}
