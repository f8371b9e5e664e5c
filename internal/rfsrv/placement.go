package rfsrv

// placement is where bytes and dentries live (DESIGN.md "Placement"):
// a pure value — the member ring, the stripe width, the replication
// factor and whether the namespace is sharded — that answers the five
// placement questions for every consumer: which ring position owns a
// byte (owner, runs), which R slots form a position's replica group
// (slot, rank, holds), which position a name hashes to (residue,
// inodeHome, pathHome, home), which members hold a name's namespace
// entry (nsGroup, nsRank), and which replica serves a byte's reads
// (reader, runs). It tracks no faults and knows nothing of sessions or
// the wire: the Cluster keeps the exclusion set and hands it to the
// questions that depend on it, a group's first alive member (firstUp)
// and the read slices (reader, a sliced runs), computed afresh on every
// call, so no answer can go stale.
// The ring arithmetic lives here and nowhere else: the client data
// path, the sharded namespace, the journal hooks, elastic migration
// (delta) and the server's ownership check (a ringPlacement built from
// OpMember's geometry) all ask this value.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/mem"
)

type placement struct {
	// members maps ring position → session slot.
	members  []int
	stripe   int64
	replicas int
	// sharded: the namespace is sharded, so an inode's home is its
	// residue's owner group rather than its hash (home).
	sharded bool
}

// ringPlacement is the geometry of n servers whose slots are their ring
// positions — a server's view of itself (EnableSharding, OpMember).
func ringPlacement(n, replicas int) placement {
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return placement{members: members, replicas: replicas}
}

// mix is the splitmix64 finalizer: a cheap, well-distributed hash for
// home-server selection.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// slot returns the j-th member (0 = primary) of the replica group that
// starts at ring position pos, wrapping.
//
// allocfree
func (pl placement) slot(pos, j int) int { return pl.members[(pos+j)%len(pl.members)] }

// pos returns the ring position of a session slot, or -1.
func (pl placement) pos(slot int) int {
	for pos, s := range pl.members {
		if s == slot {
			return pos
		}
	}
	return -1
}

// rank returns which replica of position pos's group the slot is (0 =
// primary), or -1 when the group does not include it.
func (pl placement) rank(pos, slot int) int {
	for j := 0; j < pl.replicas; j++ {
		if pl.slot(pos, j) == slot {
			return j
		}
	}
	return -1
}

// holds reports whether the slot stores what position pos owns — stripe
// replicas and owned dentries alike.
func (pl placement) holds(slot, pos int) bool { return pl.rank(pos, slot) >= 0 }

// firstUp returns the first slot among the span ring positions
// starting at pos that down (indexed by slot) does not exclude, trying
// them from rank from on and wrapping, or -1: a replica group's
// preferred member (span R) or a hashed home's stand-in (span N) — the
// one first-alive-of-group loop.
//
// allocfree
func (pl placement) firstUp(down []bool, pos, from, span int) int {
	for j := 0; j < span; j++ {
		if k := pl.slot(pos, (from+j)%span); !down[k] {
			return k
		}
	}
	return -1
}

// nsGroup returns the ring positions that hold an inode's namespace
// entry — its attributes and, for a directory, its dentries: span
// positions from pos. That is the residue's owner group in the sharded
// namespace and the whole ring in the replicated one.
//
// allocfree
func (pl placement) nsGroup(ino kernel.InodeID) (pos, span int) {
	if pl.sharded {
		return pl.residue(ino), pl.replicas
	}
	return 0, len(pl.members)
}

// nsRank returns the slot's rank in an inode's namespace group (0 =
// the group's first position), or -1 when the slot holds at most a
// stub of it (what a data write or size publish leaves outside the
// group).
func (pl placement) nsRank(ino kernel.InodeID, slot int) int {
	pos, span := pl.nsGroup(ino)
	for j := 0; j < span; j++ {
		if pl.slot(pos, j) == slot {
			return j
		}
	}
	return -1
}

// residue returns the position owning an inode's namespace slice:
// (ino-2) mod N, the root (and the pre-root 0 alias) on 0 — the mirror
// of memfs.SetInodePartition minting.
func (pl placement) residue(ino kernel.InodeID) int {
	if ino <= 1 {
		return 0
	}
	return int((uint64(ino) - 2) % uint64(len(pl.members)))
}

// inodeHome returns the hashed position of an inode: its home in the
// replicated namespace.
//
// allocfree
func (pl placement) inodeHome(ino kernel.InodeID) int {
	return int(mix(uint64(ino)) % uint64(len(pl.members)))
}

// home returns the position of an inode's home — where its getattr is
// answered and, so one group answers both, where a whole-on-home file's
// bytes live: the hashed inodeHome in the replicated namespace, the
// residue in the sharded one.
//
// allocfree
func (pl placement) home(ino kernel.InodeID) int {
	if pl.sharded {
		return pl.residue(ino)
	}
	return pl.inodeHome(ino)
}

// pathHome returns the hashed position of a path component (FNV-1a over
// the name, chained on the directory's inode): a lookup's home in the
// replicated namespace, a fresh directory's residue in the sharded one.
func (pl placement) pathHome(dir kernel.InodeID, name string) int {
	h := mix(uint64(dir))
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return int(h % uint64(len(pl.members)))
}

// width is the stripe width of a layout class (0: the class does not
// stripe).
//
// allocfree
func (pl placement) width(lay LayoutClass) int64 {
	if lay == LayoutWhole {
		return 0
	}
	return pl.stripe
}

// owner returns the position owning byte off of an inode under its
// layout class — the primary; replicas follow on the next R-1
// positions for every class.
//
// allocfree
func (pl placement) owner(lay LayoutClass, ino kernel.InodeID, off int64) int {
	w := pl.width(lay)
	if w == 0 {
		return pl.home(ino)
	}
	return int((off / w) % int64(len(pl.members)))
}

// reader returns which replica of byte off's group serves its reads —
// its rank, 0 being the primary — and the end of the read slice that
// holds off, under the exclusion set down (indexed by slot): slice j of
// a stripe is the pages from cut j up to cut j+1, read from rank j, so
// every client reads a given byte from the same replica while the
// exclusion sets agree. The cuts of a stripe of P pages are the even
// ⌊j·P/R⌋, so every member of a group serves a fixed share of its reads
// (none is empty once P ≥ R) — except at R=2 in a group that an
// exclusion leaves linked into a chain (chainCut). A class that does
// not stripe and a placement of one replica have one slice, read from
// the primary, that never ends.
//
// allocfree
func (pl placement) reader(down []bool, lay LayoutClass, off int64) (rank int, end int64) {
	w := pl.width(lay)
	if w == 0 || pl.replicas == 1 {
		return 0, math.MaxInt64
	}
	r, pages := pl.replicas, int(w/mem.PageSize)
	base := off / w * w
	page := int((off - base) / mem.PageSize)
	if c, ok := pl.chainCut(down, int(off/w%int64(len(pl.members))), pages); ok {
		if page < c {
			return 0, base + int64(c)*mem.PageSize
		}
		return 1, base + w
	}
	j := ((page+1)*r - 1) / pages // the last slice starting at or before page
	return j, base + int64((j+1)*pages/r)*mem.PageSize
}

// chainCut returns the first page of the second read slice of ring
// position pos's stripes, P = pages long, when R=2 and the exclusion
// set down leaves both members of the group alive but not every ring
// position: the group is then a link of a chain (chained declustering,
// Hsiao & DeWitt, ICDE 1990) — the maximal run of m alive ring
// positions holding it, the primary the run's i-th, counting from 1.
// Each end of a run also serves all P pages of the group it shares
// with an excluded member, so the run's total is fixed, and cutting at
// ⌊i·P/m⌋ gives every member of the run ⌊P/m⌋ or ⌈P/m⌉ pages on top of
// P: the least peak load any cut reaches. The cut is kept within
// [1, P−1] for P ≥ 2, so a stripe read issues as many requests as
// under the even cuts. ok is false, for the even cuts, in every other
// case: at R ≥ 3 an exclusion leaves the alive members of a group
// joined in one cycle rather than cut into chains, and a group with an
// excluded member reads every page from its one alive member anyway.
// It walks the ring only while something is excluded.
//
// allocfree
func (pl placement) chainCut(down []bool, pos, pages int) (cut int, ok bool) {
	n := len(pl.members)
	if pl.replicas != 2 || !excludes(down) || down[pl.slot(pos, 0)] || down[pl.slot(pos, 1)] {
		return 0, false
	}
	i := 1
	for i < n-1 && !down[pl.slot(pos, n-i)] { // back from the primary to the run's start
		i++
	}
	if i == n-1 { // every ring position is alive
		return 0, false
	}
	m := i + 1
	for !down[pl.slot(pos, m-i+1)] { // on from the second replica to the run's end
		m++
	}
	return min(max(i*pages/m, 1), pages-1), true
}

// excludes reports whether the exclusion set down holds anybody. It is
// slices.Contains(down, true) written out: the allocfree analyzer takes
// a generic call's slice argument for one boxed into its constraint.
//
// allocfree
func excludes(down []bool) bool {
	for _, d := range down {
		if d {
			return true
		}
	}
	return false
}

// run is one contiguous byte range owned by a single position.
type run struct {
	owner int
	off   int64 // global file offset
	n     int
}

// runs appends to out the maximal contiguous same-owner ranges of
// [off, off+n) under the inode's layout class, in offset order: one run
// for a whole-on-home file or a one-member ring, one per stripe
// fragment otherwise. sliced also cuts the runs at the read slice
// boundaries the exclusion set down leaves (reader), so one replica
// serves each: the runs a read issues.
//
// allocfree
func (pl placement) runs(down []bool, lay LayoutClass, ino kernel.InodeID, off int64, n int, sliced bool, out []run) []run {
	w := pl.width(lay)
	if w == 0 {
		return append(out, run{owner: pl.home(ino), off: off, n: n})
	}
	for end := off + int64(n); off < end; {
		cut := end
		if len(pl.members) > 1 { // on a one-member ring every stripe has the same owner
			cut = min((off/w+1)*w, end)
		}
		if sliced {
			if _, e := pl.reader(down, lay, off); e < cut {
				cut = e
			}
		}
		out = append(out, run{owner: pl.owner(lay, ino, off), off: off, n: int(cut - off)})
		off = cut
	}
	return out
}

// withMembers returns the placement over a different member ring.
func (pl placement) withMembers(members []int) placement {
	pl.members = members
	return pl
}

// standby returns the placement over the first active of the slots
// session slots, the rest standing by for a later Join. A sharded ring
// is the servers' inode partition — each construction-time server
// mints its own residue — so only a replicated ring narrows without
// committing the change on the servers.
func (pl placement) standby(active, slots int) (placement, error) {
	if pl.sharded {
		return pl, errors.New("rfsrv: SetMembers: sharded clusters enumerate all sessions as members")
	}
	if active < pl.replicas || active > slots {
		return pl, fmt.Errorf("rfsrv: SetMembers: %d outside %d..%d", active, pl.replicas, slots)
	}
	return pl.withMembers(pl.members[:active]), nil
}

// move is one fragment of a file and the slots a geometry change must
// copy it to.
type move struct {
	off int64
	n   int
	to  []int
}

// delta lists, per fragment of [off, off+n) of a file of class lay —
// one per stripe for a striped file, the whole range for a whole-on-home
// one — the slots that hold the fragment under next but not under pl:
// exactly what a change from pl to next has to copy, whoever copies it.
// Fragments no new slot holds are omitted.
func (pl placement) delta(next placement, lay LayoutClass, ino kernel.InodeID, off, n int64) []move {
	var out []move
	for end := off + n; off < end; {
		cut := end
		if w := pl.width(lay); w > 0 {
			cut = min((off/w+1)*w, end)
		}
		was, now := pl.owner(lay, ino, off), next.owner(lay, ino, off)
		var to []int
		for j := 0; j < next.replicas; j++ {
			if s := next.slot(now, j); !pl.holds(s, was) {
				to = append(to, s)
			}
		}
		if len(to) > 0 {
			out = append(out, move{off: off, n: int(cut - off), to: to})
		}
		off = cut
	}
	return out
}
