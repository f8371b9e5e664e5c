package rfsrv

// placement is where bytes and dentries live (DESIGN.md "Placement"):
// a pure value — the member ring, the stripe width and the replication
// factor — that answers the three placement questions for every
// consumer: which ring position owns a byte (owner, runs), which R
// slots form a position's replica group (slot, rank, holds), and which
// position a name hashes to (residue, inodeHome, pathHome). It knows
// nothing of exclusion, sessions or the wire; fault state stays with
// the Cluster, which walks a group with slot and skips what is down.
// The ring arithmetic lives here and nowhere else: the client data
// path, the sharded namespace, the journal hooks, elastic migration
// (delta) and the server's ownership check (a ringPlacement built from
// OpMember's geometry) all ask this value.

import "repro/internal/kernel"

type placement struct {
	// members maps ring position → session slot.
	members  []int
	stripe   int64
	replicas int
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

// residue returns the position owning an inode's namespace slice:
// (ino-2) mod N, the root (and the pre-root 0 alias) on 0 — the mirror
// of memfs.SetInodePartition minting.
func (pl placement) residue(ino kernel.InodeID) int {
	if ino <= 1 {
		return 0
	}
	return int((uint64(ino) - 2) % uint64(len(pl.members)))
}

// inodeHome returns the hashed position of an inode: its metadata home
// in the replicated namespace and the data owner of a whole-on-home
// file, so one server answers both.
//
// allocfree
func (pl placement) inodeHome(ino kernel.InodeID) int {
	return int(mix(uint64(ino)) % uint64(len(pl.members)))
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
		return pl.inodeHome(ino)
	}
	return int((off / w) % int64(len(pl.members)))
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
// fragment otherwise.
//
// allocfree
func (pl placement) runs(lay LayoutClass, ino kernel.InodeID, off int64, n int, out []run) []run {
	w := pl.width(lay)
	if w == 0 {
		return append(out, run{owner: pl.inodeHome(ino), off: off, n: n})
	}
	for end := off + int64(n); off < end; {
		cut := end
		if len(pl.members) > 1 { // on a one-member ring every stripe has the same owner
			cut = min((off/w+1)*w, end)
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

// move is one standard-layout stripe fragment and the slots a geometry
// change must copy it to.
type move struct {
	off int64
	n   int
	to  []int
}

// delta lists, per stripe fragment of [off, off+n), the slots that hold
// the fragment under next but not under pl — exactly what a change from
// pl to next has to copy, whoever copies it. Fragments no new slot
// holds are omitted.
func (pl placement) delta(next placement, off, n int64) []move {
	var out []move
	for end := off + n; off < end; {
		cut := min((off/pl.stripe+1)*pl.stripe, end)
		was, now := pl.owner(LayoutStandard, 0, off), next.owner(LayoutStandard, 0, off)
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
