package rfsrv

// Native fuzz targets for the hand-packed wire format and the server's
// handlers: bytes from the network never panic a decoder, and whatever
// decodes is served with a defined status. The seed corpus lives under
// testdata/fuzz/ and runs as ordinary tests in tier-1.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/sim"
)

// FuzzDecodeReq: arbitrary bytes never panic DecodeReq, and
// encode∘decode is the identity on whatever decodes.
func FuzzDecodeReq(f *testing.F) {
	f.Add(EncodeReqInto(nil, &Req{Op: OpLookup, Seq: 7, EP: 2, Ino: 1, Name: "f"}))
	f.Add(EncodeReqInto(nil, &Req{Op: OpWrite, Seq: 1 << 40, EP: 255, Ino: 9, Off: -1, Len: MaxWriteChunk}))
	f.Add(EncodeReqInto(nil, &Req{Op: OpRenameLocal, Ino: 3, Off: 4, Name: PackRenameNames("a", "b")}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, consumed, err := DecodeReq(raw)
		if err != nil {
			return
		}
		enc := EncodeReqInto(nil, req)
		if !bytes.Equal(enc, raw[:consumed]) {
			t.Fatalf("re-encoding %+v gives %x, decoded from %x", req, enc, raw[:consumed])
		}
		again, n, err := DecodeReq(enc)
		if err != nil || n != consumed || !reflect.DeepEqual(again, req) {
			t.Fatalf("decode(encode(%+v)) = %+v, %d, %v", req, again, n, err)
		}
	})
}

// FuzzDecodeResp: arbitrary bytes never panic DecodeResp, and whatever
// decodes and re-encodes (a decoded listing may exceed what a server
// would ever send) decodes to itself.
func FuzzDecodeResp(f *testing.F) {
	for _, resp := range []*Resp{
		{Seq: 3, Status: StNotFound},
		{Seq: 1 << 50, Attr: kernel.Attr{Ino: 5, Kind: kernel.RegularFile, Size: 1 << 40}, Epoch: 9, MemberEpoch: 5, Layout: LayoutWhole, N: 4096},
		{Seq: 4, Attr: kernel.Attr{Ino: 1, Kind: kernel.Directory}, Entries: []kernel.DirEntry{{Ino: 2, Kind: kernel.RegularFile, Name: "f"}, {Ino: 3, Kind: kernel.Directory, Name: ""}}},
	} {
		enc, err := EncodeResp(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		resp, err := DecodeResp(raw)
		if err != nil {
			return
		}
		enc, err := EncodeResp(resp)
		if err != nil {
			return
		}
		again, err := DecodeResp(enc)
		if err != nil || !reflect.DeepEqual(again, resp) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", resp, again, err)
		}
	})
}

// FuzzServeBytes feeds arbitrary bytes as a request head to a server
// over a small partitioned memfs, unsharded and sharded, exactly as
// serve does after the receive — DecodeReq, then the data handlers or
// handleMeta plus everything unpack finds behind a metadata request —
// and checks every reply is well formed and the store stays sane.
func FuzzServeBytes(f *testing.F) {
	batch := EncodeReqInto(nil, &Req{Op: OpCreate, Ino: 1, Name: "new"})
	batch = EncodeReqInto(batch, &Req{Op: OpTruncate, Ino: 3, Off: -5})
	batch = EncodeReqInto(batch, &Req{Op: OpReaddir, Ino: 1})
	for _, sharded := range []bool{false, true} {
		f.Add(batch, sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpRead, Ino: 3, Off: 4000, Len: 1 << 16}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpRead, Ino: 77, Off: -1, Len: 1}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpWrite, Ino: 3, Off: 1 << 40, Len: 512}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpWrite, Ino: 3, Off: 1000, Len: 3 * 4096}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpWrite, Ino: 77, Off: 8192, Len: 64 << 10}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpWrite, Ino: 1, Off: 0, Len: MaxWriteChunk + 1}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpSetSize, Ino: 3, Off: 1 << 50, Len: PackSetSize(true, 0)}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpMember, Ino: 100, Off: 3, Len: PackMember(1, 2, 1, true)}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpRenameLocal, Ino: 1, Off: 1, Name: PackRenameNames("f", "g")}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpRenamePrepare, Ino: 1, Off: 4, Name: PackRenameNames("f", "g")}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpLink, Ino: 1, Off: 3, Len: 99, Name: "again"}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: Op(200), Ino: 1}), sharded)
	}
	f.Fuzz(func(t *testing.T, raw []byte, sharded bool) {
		raw = raw[:min(len(raw), 4096)] // the head serve decodes
		req, consumed, err := DecodeReq(raw)
		if err != nil || req.Op == OpRead && req.Len > 1<<20 {
			return // (a huge sparse read is legal, and only slow to fuzz)
		}
		env := sim.NewEngine()
		node := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD).AddNode("server")
		fs := memfs.New("backing", node, 0)
		fs.SetInodePartition(0, 2)
		s := NewServer(node, fs)
		if sharded {
			if err := s.EnableSharding(0, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		done := false
		env.Spawn("fuzz", func(p *sim.Proc) {
			file, _ := fs.Create(p, fs.Root(), "f")
			fs.Truncate(p, file.Ino, 10000)
			fs.Mkdir(p, fs.Root(), "d")
			check := func(req *Req, resp *Resp) {
				if resp.Seq != req.Seq || resp.Status < StOK || resp.Status > StNotOwner {
					t.Fatalf("%+v answered %+v", req, resp)
				}
			}
			switch req.Op {
			case OpRead:
				resp, xs := s.readExtents(p, req)
				check(req, resp)
				if int(resp.N) != mem.TotalLen(xs) || resp.N > req.Len {
					t.Fatalf("read %+v: N=%d over %d extent bytes", req, resp.N, mem.TotalLen(xs))
				}
			case OpWrite:
				// serve admits only a payload of exactly req.Len bytes, in
				// fresh frames the receiver allocated for it or inline in
				// the bounce; drive both arms. The install arm first, on a
				// store that holds no block yet: every frame it allocated
				// is afterwards a block of the written range, or freed.
				before := node.Mem.Allocated()
				w := s.getWork()
				w.req = req
				resp := &Resp{Seq: req.Seq, Status: StInval}
				if s.payloadFrames(w) {
					resp = s.handleWrite(p, req, nil, w.frames)
				} else if got := node.Mem.Allocated(); got != before {
					t.Fatalf("refused header %+v allocated %d frames", req, got-before)
				}
				check(req, resp)
				held := 0
				if validWrite(req) {
					for idx := req.Off / mem.PageSize; idx*mem.PageSize < req.Off+int64(req.Len); idx++ {
						if fs.FrameAt(req.Ino, idx) != nil {
							held++
						}
					}
				}
				if leaked := node.Mem.Allocated() - before - held; leaked != 0 {
					t.Fatalf("install of %+v: %d frames neither installed nor freed", req, leaked)
				}
				s.putWork(w)
				if n := int(req.Len); n <= MaxWriteChunk {
					va, _ := node.Kernel.Mmap(max(n, 1), "payload")
					check(req, s.handleWrite(p, req, core.Of(core.KernelSeg(node.Kernel, va, n)), nil))
				}
			default:
				check(req, s.handleMeta(p, req))
				for _, extra := range s.unpack(raw[consumed:]) {
					check(extra, s.handleMeta(p, extra))
				}
			}
			assertSizesSane(t, p, fs, fs.Root(), 0)
			done = true
		})
		env.Run(0)
		if !done {
			t.Fatal("the handlers deadlocked")
		}
	})
}

// assertSizesSane walks the store from dir: no inode has a negative
// size (a negative size would corrupt the block map on the next write).
func assertSizesSane(t *testing.T, p *sim.Proc, fs *memfs.FS, dir kernel.InodeID, depth int) {
	t.Helper()
	entries, err := fs.Readdir(p, dir)
	if err != nil || depth > 8 {
		return
	}
	for _, e := range entries {
		attr, err := fs.Getattr(p, e.Ino)
		if err == nil && attr.Size < 0 {
			t.Fatalf("inode %d (%q) has size %d", e.Ino, e.Name, attr.Size)
		}
		if e.Kind == kernel.Directory && e.Name != "." && e.Name != ".." {
			assertSizesSane(t, p, fs, e.Ino, depth+1)
		}
	}
}
