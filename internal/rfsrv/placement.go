package rfsrv

// placement is where bytes and dentries live (DESIGN.md "Placement"):
// a pure value — the member ring, the stripe width, the replication
// factor and whether the namespace is sharded — that answers the five
// placement questions for every consumer: which ring position owns a
// byte (owner, runs), which R slots form a position's replica group
// (slot, rank, holds), which position a name hashes to (residue,
// inodeHome, pathHome, home), which members hold a name's namespace
// entry (nsGroup, nsRank), and which replica serves a byte's reads
// (reader, over the read slice table recut builds). It tracks no
// faults and knows nothing of sessions or the wire: the Cluster keeps
// the exclusion set and hands it to the two questions that depend on
// it, a group's first alive member (firstUp) and the read slice table
// (recut).
// The ring arithmetic lives here and nowhere else: the client data
// path, the sharded namespace, the journal hooks, elastic migration
// (delta) and the server's ownership check (a ringPlacement built from
// OpMember's geometry) all ask this value.

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
	// cuts is the read slice table (recut, reader): R+1 page indices
	// per ring position, cuts[pos*(R+1)+j] being the first page of
	// read slice j of that position's stripes and cuts[pos*(R+1)+R]
	// the stripe's page count.
	cuts []int
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
// holds off: slice j of a stripe is the pages from the table's cut j
// (recut) up to cut j+1, read from rank j, so every client reads a
// given byte from the same replica while the exclusion sets agree. A
// class that does not stripe and a placement of one replica have one
// slice, read from the primary, that never ends.
//
// allocfree
func (pl placement) reader(lay LayoutClass, off int64) (rank int, end int64) {
	w := pl.width(lay)
	if w == 0 || pl.replicas == 1 {
		return 0, math.MaxInt64
	}
	r := pl.replicas
	base := off / w * w
	page := int((off - base) / mem.PageSize)
	pos := int(off / w % int64(len(pl.members)))
	c := pl.cuts[pos*(r+1) : (pos+1)*(r+1)]
	j := r - 1
	for c[j] > page { // the last slice starting at or before page
		j--
	}
	return j, base + int64(c[j+1])*mem.PageSize
}

// recut rebuilds the read slice table in place for the exclusion set
// down (indexed by slot), using load (returned, one entry per slot) as
// scratch. It starts from the even cuts — slice j of every stripe of P
// pages starts at page ⌊j·P/R⌋, so every member of a group serves a
// fixed share of its reads (none is empty once P ≥ R) — with an
// excluded rank's slice served by the group's next alive member
// (firstUp), as the read path routes it. Then, until nothing moves, it
// shifts every cut between two non-empty slices served by different
// alive members one page at a time toward the less loaded of them
// while that lowers the larger load, a member's load being the pages
// it serves summed over every group of the ring. With nothing excluded
// every member serves each rank once and nothing moves; with a member
// out, its load spreads down the chain of groups (chained
// declustering) instead of landing on its neighbours alone. Every
// slice keeps at least one page and an empty one (P < R) stays empty,
// so a stripe read issues as many requests as under the even cuts, and
// no member's load ever rises above the largest load of the even cuts.
func (pl *placement) recut(down []bool, load []int) []int {
	n, r, pages := len(pl.members), pl.replicas, int(pl.stripe/mem.PageSize)
	load = append(load[:0], make([]int, len(down))...)
	pl.cuts = slices.Grow(pl.cuts[:0], n*(r+1))
	for pos := 0; pos < n; pos++ {
		for j := 0; j <= r; j++ {
			pl.cuts = append(pl.cuts, j*pages/r)
		}
		c := pl.cuts[pos*(r+1):]
		for j := 0; j < r; j++ {
			if k := pl.firstUp(down, pos, j, r); k >= 0 {
				load[k] += c[j+1] - c[j]
			}
		}
	}
	for moved := true; moved; {
		moved = false
		for pos := 0; pos < n; pos++ {
			c := pl.cuts[pos*(r+1) : (pos+1)*(r+1)]
			for j := 1; j < r; j++ {
				a, b := pl.firstUp(down, pos, j-1, r), pl.firstUp(down, pos, j, r)
				if a == b || c[j-1] == c[j] || c[j] == c[j+1] {
					continue
				}
				for ; load[a] > load[b]+1 && c[j]-1 > c[j-1]; c[j]-- {
					load[a], load[b], moved = load[a]-1, load[b]+1, true
				}
				for ; load[b] > load[a]+1 && c[j]+1 < c[j+1]; c[j]++ {
					load[a], load[b], moved = load[a]+1, load[b]-1, true
				}
			}
		}
	}
	return load
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
// fragment otherwise. sliced also cuts the runs at read slice
// boundaries (reader), so one replica serves each: the runs a read
// issues.
//
// allocfree
func (pl placement) runs(lay LayoutClass, ino kernel.InodeID, off int64, n int, sliced bool, out []run) []run {
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
			if _, e := pl.reader(lay, off); e < cut {
				cut = e
			}
		}
		out = append(out, run{owner: pl.owner(lay, ino, off), off: off, n: int(cut - off)})
		off = cut
	}
	return out
}

// withMembers returns the placement over a different member ring. Its
// read slice table stays the old ring's until recut.
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
