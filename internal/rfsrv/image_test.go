package rfsrv

// Namespace images: the codec never panics on bytes from the network
// and is canonical, and a staged import applies only at the commit of
// its epoch.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/sim"
)

// sampleImage encodes a small image with every section filled: a root
// holding a file and a directory, a rename mark, a size epoch and a
// layout.
func sampleImage(stage uint64) []byte {
	img := &image{stage: stage, soft: true, member: 4,
		marks:   map[renameKey]renameMark{{dir: 1, name: "g"}: {dst: 5, child: 9, kind: kernel.RegularFile}},
		epochs:  map[kernel.InodeID]uint64{9: 3},
		layouts: map[kernel.InodeID]LayoutClass{9: LayoutWhole}}
	img.Next = 12
	img.Nodes = []imageNode{
		{Attr: kernel.Attr{Ino: 9, Kind: kernel.RegularFile, Size: 70000, Version: 2}},
		{Attr: kernel.Attr{Ino: 1, Kind: kernel.Directory, Version: 3}, Entries: map[string]kernel.InodeID{"sub": 5, "g": 9}},
		{Attr: kernel.Attr{Ino: 5, Kind: kernel.Directory, Version: 1}, Entries: map[string]kernel.InodeID{}},
	}
	raw, err := img.encode()
	if err != nil {
		panic(err)
	}
	return raw
}

// malformedImages derives the decoder's hard cases from an encoded
// image: truncated, a node count no image could hold, trailing bytes.
func malformedImages(raw []byte) [][]byte {
	huge := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(huge[8+8+8+1:], 0xffffffff)
	return [][]byte{raw[:len(raw)-3], huge, append(bytes.Clone(raw), 0)}
}

// FuzzDecodeImage: arbitrary bytes never panic decodeImage, and the
// encoding is canonical — whatever decodes re-encodes to the same bytes.
func FuzzDecodeImage(f *testing.F) {
	for _, raw := range append(malformedImages(sampleImage(0)), sampleImage(0), sampleImage(7), nil) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		img, err := decodeImage(raw)
		if err != nil {
			return
		}
		enc, err := img.encode()
		if err != nil || !bytes.Equal(enc, raw) {
			t.Fatalf("re-encoding %+v gives %x (%v), decoded from %x", img, enc, err, raw)
		}
		again, err := decodeImage(enc)
		if err != nil || !reflect.DeepEqual(again, img) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", img, again, err)
		}
	})
}

// importBytes serves payload as an OpImport's payload the way serve
// does once landPayload has collected it in fresh frames (none when the
// header is refused).
func importBytes(p *sim.Proc, s *Server, req *Req, payload []byte) *Resp {
	w := s.getWork()
	defer s.putWork(w)
	w.req = *req
	if w.ok = s.payloadFrames(w); w.ok {
		xs, err := w.vec.Extents()
		if err != nil {
			panic(err)
		}
		s.node.Mem.Scatter(xs, payload)
	}
	return s.serveImport(p, w)
}

// TestImageAppliesAtItsCommit stages images on a server and requires
// each to change nothing until an OpMember commits its epoch with the
// server as a member; a commit of another epoch or a retiree's stamp
// discards it, and an image staged for no epoch applies when served.
func TestImageAppliesAtItsCommit(t *testing.T) {
	env := sim.NewEngine()
	node := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD).AddNode("server")
	fs := memfs.New("backing", node, 0)
	s := NewServer(node, fs)
	done := false
	env.Spawn("test", func(p *sim.Proc) {
		if _, err := fs.Create(p, fs.Root(), "f"); err != nil {
			t.Fatal(err)
		}
		has := func(name string) bool {
			_, err := fs.Lookup(p, fs.Root(), name)
			return err == nil
		}
		stage := func(epoch uint64) {
			t.Helper()
			raw := sampleImage(epoch)
			if resp := importBytes(p, s, &Req{Op: OpImport, Len: uint32(len(raw))}, raw); resp.Status != StOK {
				t.Fatalf("import staged for %d: status %d", epoch, resp.Status)
			}
		}
		commit := func(epoch uint64, pos int) {
			t.Helper()
			if err := s.handleMember(p, &Req{Op: OpMember, Off: int64(epoch), Len: PackMember(pos, 2, 1, false)}); err != nil {
				t.Fatalf("commit of epoch %d: %v", epoch, err)
			}
		}

		stage(2)
		if !has("f") || has("g") || !s.StagedImage() {
			t.Fatal("a staged image changed the store, or was not kept")
		}
		commit(1, 0)
		if !has("f") || s.StagedImage() {
			t.Fatal("the commit of another epoch applied the staged image, or kept it")
		}
		stage(2)
		commit(2, 2) // a retiree's stamp
		if !has("f") || s.StagedImage() {
			t.Fatal("a retiree's stamp applied the staged image, or kept it")
		}
		stage(3)
		commit(3, 1)
		if has("f") || !has("g") || s.StagedImage() || s.MemberEpoch() != 3 || s.epochs[9] != 3 || s.layouts[9] != LayoutWhole {
			t.Fatal("the commit of its epoch did not apply the staged image")
		}
		if err := fs.Unlink(p, fs.Root(), "g"); err != nil {
			t.Fatal(err)
		}
		stage(0)
		if !has("g") || s.StagedImage() || s.MemberEpoch() != 4 {
			t.Fatal("an image staged for no epoch did not apply when served")
		}
		done = true
	})
	env.Run(0)
	if !done {
		t.Fatal("the test body deadlocked")
	}
}
