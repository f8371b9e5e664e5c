package rfsrv

// Namespace images (DESIGN.md §13): the one encoding a server's
// namespace state travels in. OpExport reads a server's image as a
// read's data — encoded whole at one instant — and OpImport writes one
// as a write's payload, under the one write-receive rule
// (inlinePayload, postPayload/landPayload). An image is one message: a larger one
// is refused with ErrImageTooLarge. The encoding is canonical (every
// list strictly ascending), so whatever decodes re-encodes to the same
// bytes, and the server decodes an import whole before it touches
// anything: a malformed image is StInval and changes nothing.
//
// An import applies when it is served, or — staged for a membership
// epoch — when the OpMember that commits that epoch and names the
// server a member arrives (handleMember). Any other OpMember discards
// it, so a change that fails before its commit leaves no image behind
// that a later commit could apply.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"maps"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/sim"
)

// ErrImageTooLarge refuses a namespace image that does not fit one
// message of MaxWriteChunk bytes (StTooLarge on the wire).
var ErrImageTooLarge = errors.New("rfsrv: namespace image exceeds one message")

// errBadImage is what decodeImage reports for bytes that are not a
// canonical image.
var errBadImage = errors.New("rfsrv: malformed namespace image")

// imageNode is one inode of an image: its attributes (a regular file's
// size is the holder's local size) and, for a directory, its entries.
type imageNode = memfs.SliceNode

// image is one server's namespace state: its store's nodes and mint
// cursor, its rename marks and, when soft is set, its size epochs,
// layouts and membership epoch. An import without soft leaves the
// server's own.
type image struct {
	// stage is an import's commit point: 0 applies the image when it is
	// served, an epoch stages it for the OpMember that commits it.
	stage uint64
	memfs.Slice
	marks   map[renameKey]renameMark
	soft    bool
	epochs  map[kernel.InodeID]uint64
	layouts map[kernel.InodeID]LayoutClass
	member  uint64
}

// imageSoft is the flag bit of an image that carries soft state.
const imageSoft = 1

// imageFS is a backing store that can export and import its namespace
// image (memfs.FS can).
type imageFS interface {
	ExportSlice() *memfs.Slice
	ImportSlice(*memfs.Slice)
}

// maxIno returns the highest inode number the image holds (at least
// the root).
func (img *image) maxIno() kernel.InodeID {
	top := kernel.InodeID(1)
	for _, nd := range img.Nodes {
		top = max(top, nd.Attr.Ino)
	}
	return top
}

// encode serializes the image canonically, refusing one that does not
// fit a message.
func (img *image) encode() ([]byte, error) {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, img.stage)
	b = le.AppendUint64(b, uint64(img.Next))
	b = le.AppendUint64(b, img.member)
	var flags byte
	if img.soft {
		flags = imageSoft
	}
	b = append(b, flags)
	nodes := slices.SortedFunc(slices.Values(img.Nodes), func(x, y imageNode) int { return cmp.Compare(x.Attr.Ino, y.Attr.Ino) })
	b = le.AppendUint32(b, uint32(len(nodes)))
	for _, nd := range nodes {
		b = le.AppendUint64(b, uint64(nd.Attr.Ino))
		b = append(b, byte(nd.Attr.Kind))
		b = le.AppendUint64(b, uint64(nd.Attr.Size))
		b = le.AppendUint64(b, nd.Attr.Version)
		b = le.AppendUint32(b, uint32(len(nd.Entries)))
		for _, name := range slices.Sorted(maps.Keys(nd.Entries)) {
			b = appendName(b, name)
			b = le.AppendUint64(b, uint64(nd.Entries[name]))
		}
	}
	keys := slices.SortedFunc(maps.Keys(img.marks), func(x, y renameKey) int {
		return cmp.Or(cmp.Compare(x.dir, y.dir), strings.Compare(x.name, y.name))
	})
	b = le.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		m := img.marks[k]
		b = le.AppendUint64(b, uint64(k.dir))
		b = appendName(b, k.name)
		b = le.AppendUint64(b, uint64(m.dst))
		b = le.AppendUint64(b, uint64(m.child))
		b = append(b, byte(m.kind))
	}
	b = le.AppendUint32(b, uint32(len(img.epochs)))
	for _, ino := range slices.Sorted(maps.Keys(img.epochs)) {
		b = le.AppendUint64(b, uint64(ino))
		b = le.AppendUint64(b, img.epochs[ino])
	}
	b = le.AppendUint32(b, uint32(len(img.layouts)))
	for _, ino := range slices.Sorted(maps.Keys(img.layouts)) {
		b = le.AppendUint64(b, uint64(ino))
		b = append(b, byte(img.layouts[ino]))
	}
	if len(b) > MaxWriteChunk {
		return nil, ErrImageTooLarge
	}
	return b, nil
}

// appendName appends a length-prefixed name. Names reach a store only
// through requests, so every one fits MaxNameLen.
func appendName(b []byte, name string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	return append(b, name...)
}

// imageReader consumes an encoded image; bad latches the first fault.
type imageReader struct {
	b   []byte
	bad bool
}

func (r *imageReader) take(n int) []byte {
	if r.bad || len(r.b) < n {
		r.bad = true
		return make([]byte, n)
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *imageReader) u8() byte    { return r.take(1)[0] }
func (r *imageReader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *imageReader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// name reads a length-prefixed name: non-empty and at most MaxNameLen.
func (r *imageReader) name() string {
	n := int(binary.LittleEndian.Uint16(r.take(2)))
	if n == 0 || n > MaxNameLen {
		r.bad = true
		return ""
	}
	return string(r.take(n))
}

// count reads a list length, refusing one the remaining bytes cannot
// hold at size bytes per element — so no count allocates past the
// image it came in.
func (r *imageReader) count(size int) int {
	n := int(r.u32())
	if n > len(r.b)/size {
		r.bad = true
		return 0
	}
	return n
}

// validKind reports whether k is a kind a store holds.
func validKind(k kernel.FileKind) bool { return k == kernel.RegularFile || k == kernel.Directory }

// decodeImage parses a canonical image: every list strictly ascending,
// inode numbers non-zero, kinds and layouts defined, sizes non-negative,
// entries only in directories, the root a directory, no trailing bytes.
// Every map of the result is allocated, empty or not.
func decodeImage(raw []byte) (*image, error) {
	r := &imageReader{b: raw}
	img := &image{stage: r.u64()}
	img.Next = kernel.InodeID(r.u64())
	img.member = r.u64()
	flags := r.u8()
	img.soft = flags == imageSoft
	r.bad = r.bad || flags&^imageSoft != 0

	n := r.count(8 + 1 + 8 + 8 + 4)
	img.Nodes = make([]imageNode, 0, n)
	var prev kernel.InodeID
	for range n {
		nd := imageNode{Attr: kernel.Attr{Ino: kernel.InodeID(r.u64()), Kind: kernel.FileKind(r.u8())}}
		nd.Attr.Size, nd.Attr.Version = int64(r.u64()), r.u64()
		a := nd.Attr
		r.bad = r.bad || a.Ino <= prev || !validKind(a.Kind) || a.Size < 0 || a.Ino == 1 && a.Kind != kernel.Directory
		prev = a.Ino
		entries := r.count(2 + 1 + 8)
		if a.Kind == kernel.Directory {
			nd.Entries = make(map[string]kernel.InodeID, entries)
		} else if entries > 0 {
			r.bad = true
		}
		last := ""
		for range entries {
			name, child := r.name(), kernel.InodeID(r.u64())
			r.bad = r.bad || name <= last || child == 0
			last = name
			if !r.bad {
				nd.Entries[name] = child
			}
		}
		if r.bad {
			return nil, errBadImage
		}
		img.Nodes = append(img.Nodes, nd)
	}

	n = r.count(8 + 2 + 1 + 8 + 8 + 1)
	img.marks = make(map[renameKey]renameMark, n)
	var last renameKey
	for k := range n {
		key := renameKey{dir: kernel.InodeID(r.u64()), name: r.name()}
		mark := renameMark{dst: kernel.InodeID(r.u64()), child: kernel.InodeID(r.u64()), kind: kernel.FileKind(r.u8())}
		r.bad = r.bad || !validKind(mark.kind) || k > 0 && cmp.Or(cmp.Compare(key.dir, last.dir), strings.Compare(key.name, last.name)) <= 0
		last = key
		img.marks[key] = mark
	}

	n = r.count(8 + 8)
	img.epochs = make(map[kernel.InodeID]uint64, n)
	prev = 0
	for range n {
		ino := kernel.InodeID(r.u64())
		r.bad = r.bad || ino <= prev
		prev = ino
		img.epochs[ino] = r.u64()
	}

	n = r.count(8 + 1)
	img.layouts = make(map[kernel.InodeID]LayoutClass, n)
	prev = 0
	for range n {
		ino, lc := kernel.InodeID(r.u64()), LayoutClass(r.u8())
		r.bad = r.bad || ino <= prev || !ValidLayout(lc)
		prev = ino
		img.layouts[ino] = lc
	}

	if r.bad || len(r.b) != 0 {
		return nil, errBadImage
	}
	return img, nil
}

// ---- the server's half ----

// exportImage encodes the server's whole namespace image at one
// instant — its store's nodes with their local sizes, entries and mint
// cursor, plus its rename marks, size epochs, layouts and membership
// epoch — refusing one larger than room, the receive the client posted.
func (s *Server) exportImage(room int) ([]byte, error) {
	ifs, ok := s.fs.(imageFS)
	if !ok {
		return nil, ErrInval
	}
	img := &image{Slice: *ifs.ExportSlice(), marks: s.renames, soft: true, epochs: s.epochs, layouts: s.layouts, member: s.member}
	raw, err := img.encode()
	if err == nil && len(raw) > room {
		return nil, ErrImageTooLarge
	}
	return raw, err
}

// serveExport serves an OpExport like a read: the image goes out as
// the data message, from a pooled buffer the CPU copies it into, and
// the answer it returns, with the image's length, follows.
func (s *Server) serveExport(p *sim.Proc, t fabric.Transport, w *work) *Resp {
	resp := &Resp{Seq: w.req.Seq}
	raw, err := []byte(nil), error(ErrInval) // an export is never answered in pieces
	if takePieces(&w.req, t.Caps().EagerMax) == 1 {
		raw, err = s.exportImage(int(w.req.Len))
	}
	resp.Status, resp.N = StatusOf(err), uint32(len(raw))
	var data core.Vector
	var held stagedSend
	if len(raw) > 0 {
		s.node.CPU.Copy(p, len(raw))
		buf, err := fabric.PoolOf(s.node).Get(len(raw))
		if err != nil {
			panic(err)
		}
		if err := s.node.Kernel.WriteBytes(buf.VA(), raw); err != nil {
			panic(err)
		}
		held.buf, data = buf, buf.PhysVec(len(raw))
	}
	s.sendData(p, t, w, data, 1, held)
	return resp
}

// serveImport applies or stages the image w's OpImport carried (the
// CPU copies it out of the frames it landed in and decodes it first),
// then gives the frames back.
func (s *Server) serveImport(p *sim.Proc, w *work) *Resp {
	resp := &Resp{Seq: w.req.Seq, Status: StInval}
	if _, ok := s.fs.(imageFS); ok && w.ok {
		s.node.CPU.Copy(p, int(w.req.Len))
		raw := make([]byte, w.req.Len)
		mem.ReadFrames(w.frames, w.at, raw)
		if img, err := decodeImage(raw); err == nil {
			if resp.Status = StOK; img.stage != 0 {
				s.stage = img
			} else {
				s.applyImage(img)
			}
		}
	}
	s.dropFrames(w)
	return resp
}

// applyImage makes the server hold exactly the image: its store, its
// rename marks and, when the image carries them, its size epochs,
// layouts and membership epoch.
func (s *Server) applyImage(img *image) {
	s.fs.(imageFS).ImportSlice(&img.Slice)
	s.renames = img.marks
	if img.soft {
		s.epochs, s.layouts, s.member = img.epochs, img.layouts, img.member
	}
}
