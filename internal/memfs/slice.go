// Slice export/import: the bulk-resync channel of the elastic
// membership layer (DESIGN.md §13). A Slice is a point-in-time copy of
// the namespace metadata a server holds — inode attributes, directory
// entries, and the mint cursor — without data blocks; migration and
// full-slice resync move it between servers directly (the simulation's
// stand-in for an out-of-band bulk transfer), then re-copy data
// stripes separately.
package memfs

import (
	"maps"
	"slices"

	"repro/internal/kernel"
	"repro/internal/mem"
)

// SliceNode is one inode of an exported Slice: its attributes plus,
// for directories, a copy of the entry map.
type SliceNode struct {
	Attr    kernel.Attr
	Entries map[string]kernel.InodeID
}

// Slice is a point-in-time export of (part of) a filesystem's
// metadata, plus the mint cursor so an importer can keep minting
// without colliding with inodes the exporter already assigned.
type Slice struct {
	Next  kernel.InodeID
	Seq   uint64
	Nodes []SliceNode
}

// ExportSlice copies the metadata of every inode owns admits (the
// whole store with owns nil): attributes and directory entries, no
// data blocks. The export is a host-level memory copy — it costs no
// simulated time, modeling a bulk channel outside the request path.
func (fs *FS) ExportSlice(owns func(kernel.InodeID) bool) *Slice {
	s := &Slice{Next: fs.next, Seq: fs.seq}
	for id, ino := range fs.inodes {
		if owns != nil && !owns(id) {
			continue
		}
		n := SliceNode{Attr: ino.attr}
		if ino.dir != nil {
			n.Entries = make(map[string]kernel.InodeID, len(ino.dir))
			for name, child := range ino.dir {
				n.Entries[name] = child
			}
		}
		s.Nodes = append(s.Nodes, n)
	}
	return s
}

// ImportSlice makes the local metadata of every inode owns admits
// exactly match the slice: present nodes are adopted (attributes
// replaced — by default a file's size keeps the local value if larger,
// since a sparse local copy may hold a tail stripe the exporter never
// saw — and directory entry maps replaced wholesale), missing nodes
// are created empty, and local inodes owns admits that the slice does
// not name are deleted with their blocks. Inodes outside owns (foreign
// data stripes, stale stubs) are left untouched, as is the root when
// the slice does not carry it. The mint cursor advances to at least
// the exporter's so future sequential mints cannot collide.
//
// With exact set, the slice's sizes are authoritative rather than a
// lower bound: a file's local size is adopted verbatim and any local
// blocks past it are released, so a returning server cannot serve
// stale tail bytes a shrink removed while it was away. Rebuilds from
// an authoritative snapshot (full-slice resync, membership changes)
// use exact; incremental merges keep the max rule.
func (fs *FS) ImportSlice(s *Slice, owns func(kernel.InodeID) bool, exact bool) {
	named := make(map[kernel.InodeID]bool, len(s.Nodes))
	for _, n := range s.Nodes {
		named[n.Attr.Ino] = true
		ino := fs.inodes[n.Attr.Ino]
		if ino == nil {
			ino = &inode{attr: n.Attr}
			fs.inodes[n.Attr.Ino] = ino
		} else if n.Attr.Kind == kernel.RegularFile && exact {
			attr := n.Attr
			fs.shrinkTo(ino, attr.Size)
			ino.attr = attr
		} else {
			if n.Attr.Kind == kernel.RegularFile && ino.attr.Size > n.Attr.Size {
				local := ino.attr.Size
				ino.attr = n.Attr
				ino.attr.Size = local
			} else {
				ino.attr = n.Attr
			}
		}
		if ino.blocks == nil {
			ino.blocks = make(map[int64]*mem.Frame)
		}
		if n.Attr.Kind == kernel.Directory {
			ino.dir = make(map[string]kernel.InodeID, len(n.Entries))
			for name, child := range n.Entries {
				ino.dir[name] = child
			}
		}
	}
	for _, id := range slices.Sorted(maps.Keys(fs.inodes)) { // frames are freed: not in map order
		if id == 1 || named[id] || (owns != nil && !owns(id)) {
			continue
		}
		fs.freeBlocks(fs.inodes[id], 0)
		delete(fs.inodes, id)
	}
	if s.Next > fs.next {
		fs.next = s.Next
	}
	if s.Seq > fs.seq {
		fs.seq = s.Seq
	}
}

// MaxIno returns the highest inode number the store holds (at least
// the root). Membership changes use it to raise every server's mint
// floor past anything any geometry ever assigned.
func (fs *FS) MaxIno() kernel.InodeID {
	max := kernel.InodeID(1)
	for id := range fs.inodes {
		if id > max {
			max = id
		}
	}
	return max
}

// SetInodePartitionFloor re-partitions the minter to (index, count)
// like SetInodePartition, then advances the mint sequence so every
// future inode number exceeds floor. Geometry changes re-base every
// server's minting this way: (ino−2) mod count routes correctly for
// new inodes, and numbers minted under the old geometry are never
// reassigned.
func (fs *FS) SetInodePartitionFloor(index, count int, floor kernel.InodeID) {
	fs.partIdx, fs.partN = index, count
	n := uint64(count)
	if n < 1 {
		n = 1
	}
	var seq uint64
	if uint64(floor) >= 2 {
		// Smallest seq with 2 + (seq·n + index)·n > floor for residue 0.
		per := (uint64(floor) - 2) / n
		if per >= uint64(index) {
			seq = (per-uint64(index))/n + 1
		}
	}
	if seq > fs.seq {
		fs.seq = seq
	}
	if kernel.InodeID(floor)+1 > fs.next {
		fs.next = floor + 1
	}
}

// ReadRange copies [off, off+n) of a file's bytes out of the block
// store (holes and bytes past the last block read as zero), clipped to
// the local size. Host-level: no simulated time, no CPU cost — the
// migration bulk channel again.
func (fs *FS) ReadRange(id kernel.InodeID, off int64, n int) []byte {
	ino := fs.inodes[id]
	if ino == nil || off >= ino.attr.Size {
		return nil
	}
	if int64(n) > ino.attr.Size-off {
		n = int(ino.attr.Size - off)
	}
	return fs.readBytes(ino, off, n)
}

// WriteRange stores data at off, extending the file's local size, as
// a host-level copy. An absent inode is created as a bare file stub —
// data stripes land on servers that never saw the file's metadata,
// exactly like the lazy materialization of the sharded write path.
func (fs *FS) WriteRange(id kernel.InodeID, off int64, data []byte) error {
	ino, err := fs.get(id)
	if err != nil {
		if err != kernel.ErrNotFound || id <= 1 {
			return err
		}
		ino = &inode{
			attr:   kernel.Attr{Ino: id, Kind: kernel.RegularFile},
			blocks: make(map[int64]*mem.Frame),
		}
		fs.inodes[id] = ino
	}
	fs.writeBytes(ino, off, data)
	return nil
}

// LocalSize returns the store's local size for an inode (0 when
// absent). Sparse per-server copies make this a lower bound on the
// file's global size.
func (fs *FS) LocalSize(id kernel.InodeID) int64 {
	if ino := fs.inodes[id]; ino != nil {
		return ino.attr.Size
	}
	return 0
}
