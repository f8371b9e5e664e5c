// Slice export/import: the namespace image of a store (DESIGN.md §13).
// A Slice is a point-in-time copy of the namespace metadata a server
// holds — inode attributes, directory entries, and the mint cursor —
// without data blocks. The file server ships it over the wire (rfsrv's
// OpExport and OpImport) for full-slice resync and membership changes;
// data stripes never travel this way: the cluster re-copies them with
// ordinary reads and writes.
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

// Slice is a point-in-time export of a filesystem's metadata, plus the
// mint cursor so an importer can keep minting without colliding with
// inodes the exporter already assigned.
type Slice struct {
	Next  kernel.InodeID
	Nodes []SliceNode
}

// ExportSlice copies the metadata of every inode: attributes and
// directory entries, no data blocks. The export is a host-level memory
// copy; whoever ships it charges the cost.
func (fs *FS) ExportSlice() *Slice {
	s := &Slice{Next: fs.next}
	for _, ino := range fs.inodes {
		n := SliceNode{Attr: ino.attr}
		if ino.dir != nil {
			n.Entries = maps.Clone(ino.dir)
		}
		s.Nodes = append(s.Nodes, n)
	}
	return s
}

// ImportSlice makes the local metadata exactly match the slice: present
// nodes are adopted (attributes replaced and directory entry maps
// replaced wholesale), missing nodes are created empty, and local
// inodes the slice does not name are deleted with their blocks — all
// but the root, which stays when the slice does not carry it. A file's
// size is authoritative: it is adopted verbatim and any local blocks
// past it are released, so a returning server cannot serve stale tail
// bytes a shrink removed while it was away. The mint cursor advances to
// at least the exporter's so future sequential mints cannot collide.
func (fs *FS) ImportSlice(s *Slice) {
	named := make(map[kernel.InodeID]bool, len(s.Nodes))
	for _, n := range s.Nodes {
		named[n.Attr.Ino] = true
		ino := fs.inodes[n.Attr.Ino]
		if ino == nil {
			ino = &inode{}
			fs.inodes[n.Attr.Ino] = ino
		} else if n.Attr.Kind == kernel.RegularFile {
			fs.shrinkTo(ino, n.Attr.Size)
		}
		if ino.blocks == nil {
			ino.blocks = make(map[int64]*mem.Frame)
		}
		ino.attr, ino.dir = n.Attr, nil
		if n.Attr.Kind == kernel.Directory {
			ino.dir = maps.Clone(n.Entries)
			if ino.dir == nil {
				ino.dir = make(map[string]kernel.InodeID)
			}
		}
	}
	for _, id := range slices.Sorted(maps.Keys(fs.inodes)) { // frames are freed: not in map order
		if id == 1 || named[id] {
			continue
		}
		fs.freeBlocks(fs.inodes[id], 0)
		delete(fs.inodes, id)
	}
	if s.Next > fs.next {
		fs.next = s.Next
	}
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
// the local size. Host-level: no simulated time, no CPU cost — an
// audit's view of what one server holds.
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

// LocalSize returns the store's local size for an inode (0 when
// absent). Sparse per-server copies make this a lower bound on the
// file's global size.
func (fs *FS) LocalSize(id kernel.InodeID) int64 {
	if ino := fs.inodes[id]; ino != nil {
		return ino.attr.Size
	}
	return 0
}
