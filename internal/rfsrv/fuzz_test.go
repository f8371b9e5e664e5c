package rfsrv

// Native fuzz targets for the hand-packed wire format and the server's
// handlers: bytes from the network never panic a decoder, and whatever
// decodes is served with a defined status. The seed corpus lives under
// testdata/fuzz/ and runs as ordinary tests in tier-1.

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/sim"
)

// retiredOp is the opcode after OpSetSize, which no operation holds
// any more: servers answer it as an unknown op.
const retiredOp = OpSetSize + 1

// packedCreates are sharded creates whose Len packs a routing residue
// with a layout class (PackNode) on a two-server partition: valid, an
// undefined class, and a residue past the server count.
func packedCreates() []*Req {
	return []*Req{
		{Op: OpCreate, Ino: 1, Name: "w", Len: PackNode(1, LayoutWhole)},
		{Op: OpCreate, Ino: 1, Name: "c", Len: PackNode(1, layoutMax+1)},
		{Op: OpCreate, Ino: 1, Name: "r", Len: PackNode(3, LayoutWhole)},
	}
}

// piecedWrites are write-shaped headers carrying the piece mark: a
// pieced write at an offset off the page grid, one whose announced
// length leaves its last piece short, and the mark where the rule does
// not grant it — on an import, on a write one eager message carries,
// and on one longer than MaxWriteChunk.
func piecedWrites() []*Req {
	return []*Req{
		{Op: OpWrite, Ino: 3, Off: 1000, Len: piecesBit | 64<<10},
		{Op: OpWrite, Ino: 3, Off: 8192, Len: piecesBit | 40000},
		{Op: OpImport, Len: piecesBit | 64<<10},
		{Op: OpWrite, Ino: 3, Off: 0, Len: piecesBit | 4096},
		{Op: OpWrite, Ino: 3, Off: 0, Len: piecesBit | (MaxWriteChunk + 1)},
	}
}

// TestRetiredOpIsUnknown: the retired opcode has no name and no
// handler — a server answers it exactly like an opcode never assigned.
func TestRetiredOpIsUnknown(t *testing.T) {
	if name, ok := opNames[retiredOp]; ok || retiredOp+1 != OpLink {
		t.Fatalf("opcode %d is named %q or misplaced", retiredOp, name)
	}
	env := sim.NewEngine()
	node := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD).AddNode("server")
	s := NewServer(node, memfs.New("backing", node, 0))
	env.Spawn("probe", func(p *sim.Proc) {
		var got, want Resp
		s.handleMeta(p, &Req{Op: retiredOp, Ino: 1}, &got)
		s.handleMeta(p, &Req{Op: Op(200), Ino: 1}, &want)
		if got.Status != want.Status || got.Status == StOK {
			t.Errorf("retired opcode answered status %d, an unknown one %d", got.Status, want.Status)
		}
	})
	env.Run(0)
}

// FuzzDecodeReq: arbitrary bytes never panic DecodeReq, encode∘decode
// is the identity on whatever decodes, and DecodeReqInto decodes the
// same request over whatever its record held before.
func FuzzDecodeReq(f *testing.F) {
	f.Add(EncodeReqInto(nil, &Req{Op: OpLookup, Seq: 7, EP: 2, Ino: 1, Name: "f"}))
	f.Add(EncodeReqInto(nil, &Req{Op: OpWrite, Seq: 1 << 40, EP: 255, Ino: 9, Off: -1, Len: MaxWriteChunk}))
	f.Add(EncodeReqInto(nil, &Req{Op: OpRenameLocal, Ino: 3, Off: 4, Name: PackRenameNames("a", "b")}))
	for _, req := range packedCreates() {
		f.Add(EncodeReqInto(nil, req))
	}
	f.Add(EncodeReqInto(nil, &Req{Op: retiredOp, Ino: 3, Len: uint32(LayoutStandard)}))
	f.Add(EncodeReqInto(nil, &Req{Op: OpRead, Ino: 3, Off: 1000, Len: piecesBit | (1<<31 - 1)}))
	for _, req := range piecedWrites() {
		f.Add(EncodeReqInto(nil, req))
	}
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
		into := Req{Op: OpRead, Seq: 99, EP: 9, Ino: 99, Off: 99, Len: 99, Name: "stale"}
		if n, err := DecodeReqInto(raw, &into); err != nil || n != consumed || !reflect.DeepEqual(&into, req) {
			t.Fatalf("DecodeReqInto over a used record = %+v, %d, %v; DecodeReq gave %+v", into, n, err, req)
		}
	})
}

// FuzzDecodeResp: arbitrary bytes never panic DecodeResps, and
// whatever decodes as a whole reply — one answer, or a combined reply's
// answers back to back — and re-encodes (a decoded listing may exceed
// what a server would ever send) re-encodes, answer by answer, to
// exactly the bytes it was decoded from.
func FuzzDecodeResp(f *testing.F) {
	var combined []byte
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
		if combined, err = EncodeRespInto(combined, resp); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(combined)
	f.Add(combined[:len(combined)-3]) // its last answer cut short
	f.Fuzz(func(t *testing.T, raw []byte) {
		resps, err := DecodeResps(raw, nil)
		if err != nil {
			return
		}
		var enc []byte
		for _, resp := range resps {
			if enc, err = EncodeRespInto(enc, resp); err != nil {
				return // a listing no reply could carry, or a kind past the nibble
			}
		}
		if !bytes.Equal(enc, raw) {
			t.Fatalf("a reply of %d answers re-encodes to %x, decoded from %x", len(resps), enc, raw)
		}
	})
}

// FuzzServeBytes feeds arbitrary bytes as a request message to a server
// over a small partitioned memfs, unsharded and sharded, exactly as
// serve does after the receive: the message lands in an MX receiver's
// inbox — its header segment, then the frames behind it, over the bytes
// an earlier message left there — and admit decodes its head out of
// them; then come the data handlers, or handleMeta plus everything
// unpack finds behind a metadata request. Every reply must be well
// formed and the store stay sane. An OpImport's payload is whatever
// follows its head; an OpExport's image must decode; a write whose
// payload follows its head in one message, exactly as long as
// announced, is an inline write, installed from the frames it landed in
// — by page flip when it sits at its in-page position, and then every
// flipped page must read as zeros outside the payload's share. Every
// write is also received as a separate payload, the way recvReq does
// it: postPayload posts one receive per piece the piece rule grants
// (pieces) — one for a write that does not ask, and one into nothing
// for the mark outside the rule — the bytes behind the head are cut
// into them as a client cuts them, and landPayload and the install must
// then hold every frame allocated as a block of the range or free it,
// answering StInval when the pieces do not add up to the length. A
// read, and an export asking for pieces, is served whole (serve) over a
// transport that logs the messages: the data comes back in the number
// of messages the piece rule grants, each within the eager limit when
// there are several, adding up to the reply's N — and a request
// carrying the piece bit outside the rule is answered StInval in
// exactly one empty data message.
func FuzzServeBytes(f *testing.F) {
	batch := EncodeReqInto(nil, &Req{Op: OpCreate, Ino: 1, Name: "new"})
	batch = EncodeReqInto(batch, &Req{Op: OpTruncate, Ino: 3, Off: -5})
	batch = EncodeReqInto(batch, &Req{Op: OpReaddir, Ino: 1})
	// A batch above MX's small-message limit: a medium message, which
	// lands in the inbox by DMA.
	var lookups []byte
	for _, name := range []string{"f", "d", "missing", "f", "a-longer-name", "d"} {
		lookups = EncodeReqInto(lookups, &Req{Op: OpLookup, Ino: 1, Name: name})
	}
	// A packed batch that fills the head: it spills a page's worth past
	// the header segment.
	var spill []byte
	for len(spill) < reqBufSize-100 {
		spill = EncodeReqInto(spill, &Req{Op: OpLookup, Ino: 1, Name: strings.Repeat("s", 60)})
	}
	// Inline writes whose payloads cross the first frame's end: at an
	// unaligned offset (shifted, copied in) and at an aligned one
	// (flipped in, its last page partly covered, over the junk an
	// earlier message left in the frames when the payload is short).
	inline := append(EncodeReqInto(nil, &Req{Op: OpWrite, Ino: 3, Off: 1000, Len: 6000}), bytes.Repeat([]byte("0123456789"), 600)...)
	aligned := append(EncodeReqInto(nil, &Req{Op: OpWrite, Ino: 3, Off: 8192, Len: 6000}), bytes.Repeat([]byte("9876543210"), 600)...)
	short := append(EncodeReqInto(nil, &Req{Op: OpWrite, Ino: 3, Off: 4096, Len: 1000}), bytes.Repeat([]byte("ab"), 500)...)
	for _, sharded := range []bool{false, true} {
		f.Add(batch, sharded)
		f.Add(lookups, sharded)
		f.Add(spill, sharded)
		f.Add(inline, sharded)
		f.Add(aligned, sharded)
		f.Add(short, sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpLookup, Ino: 1, Name: strings.Repeat("n", 3*reqFixed)}), sharded)
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
		f.Add(EncodeReqInto(nil, &Req{Op: retiredOp, Ino: 3, Len: uint32(LayoutStandard)}), sharded)
		for _, req := range packedCreates() {
			f.Add(EncodeReqInto(nil, req), sharded)
		}
	}
	for _, sharded := range []bool{false, true} {
		f.Add(EncodeReqInto(nil, &Req{Op: OpExport, Len: MaxWriteChunk}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpExport, Len: 40}), sharded)
		for _, img := range append(malformedImages(sampleImage(0)), sampleImage(0), sampleImage(3)) {
			f.Add(append(EncodeReqInto(nil, &Req{Op: OpImport}), img...), sharded)
		}
		img := sampleImage(0) // inline, exactly as long as announced
		f.Add(append(EncodeReqInto(nil, &Req{Op: OpImport, Len: uint32(len(img))}), img...), sharded)
		// Reads asking for pieces: past EOF, at an offset off the piece
		// grid (one short piece, then an empty one), one too long for
		// the rule, and an export, which never may.
		f.Add(EncodeReqInto(nil, &Req{Op: OpRead, Ino: 3, Off: 1 << 20, Len: piecesBit | 64<<10}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpRead, Ino: 3, Off: 1000, Len: piecesBit | 40000}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpRead, Ino: 3, Off: 0, Len: piecesBit | (1<<31 - 1)}), sharded)
		f.Add(EncodeReqInto(nil, &Req{Op: OpExport, Len: piecesBit | MaxWriteChunk}), sharded)
		// Writes asking for pieces, their payloads behind the head: at an
		// offset off the page grid, with the last piece short, and the
		// mark outside the rule.
		for _, req := range piecedWrites() {
			f.Add(EncodeReqInto(nil, req), sharded)
		}
		short := &Req{Op: OpWrite, Ino: 3, Off: 1000, Len: piecesBit | 64<<10}
		f.Add(append(EncodeReqInto(nil, short), bytes.Repeat([]byte("ps"), 30000)...), sharded)
	}
	f.Fuzz(func(t *testing.T, msg []byte, sharded bool) {
		head := msg[:min(len(msg), reqBufSize)] // the head serve decodes
		req, consumed, err := DecodeReq(head)
		if err != nil || req.Op == OpRead && req.Len&piecesBit == 0 && req.Len > 1<<20 {
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
				if resp.Seq != req.Seq || resp.Status < StOK || resp.Status > StTooLarge {
					t.Fatalf("%+v answered %+v", req, resp)
				}
			}
			state := func() []byte {
				raw, err := s.exportImage(MaxWriteChunk)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			eager := node.Cluster.Params.MXMediumMax
			var in inbox
			s.refill(&in, eager)
			dirt(&in, 5000) // a refused payload's bytes, say
			idle := node.Mem.Allocated()
			w := s.admit(&in, landMsg(node, &in, msg, eager), eager)
			if w == nil {
				t.Fatalf("the head %x decoded, but not out of the inbox", head[:consumed])
			}
			if !reflect.DeepEqual(&w.req, req) || w.consumed != consumed {
				t.Fatalf("the inbox decoded %+v (%d bytes), the message %+v (%d)", w.req, w.consumed, req, consumed)
			}
			req := new(Req)
			*req = w.req // the work record's is cleared when it is recycled
			switch {
			case req.Op == OpRead || req.Op == OpExport && req.Len&piecesBit != 0:
				checkPieces(t, p, s, w, eager)
			case req.Op == OpExport:
				raw, err := s.exportImage(int(req.Len))
				if err != nil {
					if err != ErrImageTooLarge {
						t.Fatalf("export into %d bytes: %v", req.Len, err)
					}
					break
				}
				if img, err := decodeImage(raw); err != nil {
					t.Fatalf("exported image does not decode: %v", err)
				} else if again, _ := img.encode(); !bytes.Equal(again, raw) {
					t.Fatal("exported image is not canonical")
				}
			case req.Op == OpImport:
				before, was, staged := node.Mem.Allocated(), state(), s.stage
				var resp *Resp
				if w.ok {
					s.serveImport(p, w) // inline: out of the inbox's frames
					resp = &w.resp
				} else {
					payload := head[consumed:]
					req.Len = uint32(len(payload))
					resp = importBytes(p, s, req, payload)
				}
				check(req, resp)
				if got := node.Mem.Allocated(); got > before || resp.Status != StOK && got != before {
					t.Fatalf("import of %x: %d frames allocated before, %d after", msg[consumed:], before, got)
				}
				if resp.Status != StOK && (!bytes.Equal(state(), was) || s.stage != staged) {
					t.Fatalf("refused import of %x changed the server", msg[consumed:])
				}
			case req.Op == OpWrite:
				// serve admits only a payload of exactly req.Len bytes,
				// inline in the frames the receiver handed over or in
				// fresh frames it allocated for a separate payload; drive
				// both arms, the inline one first while the store holds
				// no block of the file.
				if w.ok {
					s.handleWrite(p, w)
					resp := w.resp
					check(req, &resp)
					n := int(req.Len)
					if resp.Status == StOK {
						if !bytes.Equal(fs.ReadRange(req.Ino, req.Off, n), msg[consumed:]) {
							t.Fatalf("inline write %+v did not store its payload", req)
						}
						// Every block of the range was a hole: it reads as
						// zeros outside the payload's share.
						for pos := req.Off; pos < req.Off+int64(n); pos = (pos/mem.PageSize + 1) * mem.PageSize {
							lo, hi := int(pos%mem.PageSize), int(min(req.Off+int64(n)-pos/mem.PageSize*mem.PageSize, mem.PageSize))
							blk := fs.FrameAt(req.Ino, pos/mem.PageSize).Data()
							if bytes.ContainsFunc(blk[:lo], notZero) || bytes.ContainsFunc(blk[hi:], notZero) {
								t.Fatalf("inline write %+v installed page %d with stale bytes outside [%d, %d)", req, pos/mem.PageSize, lo, hi)
							}
						}
					}
					s.putWork(w)
					s.refill(&in, eager)
					if blocks := node.Mem.Allocated() - idle; resp.Status == StOK && blocks != mem.PagesIn(int(req.Off%mem.PageSize), n) || resp.Status != StOK && blocks != 0 {
						t.Fatalf("inline write %+v: %d frames neither installed nor freed", req, blocks)
					}
					fs.Truncate(p, req.Ino, 0)
					fs.Truncate(p, req.Ino, 10000)
				} else {
					s.putWork(w)
				}
				// The separate arm: every frame it allocated is afterwards a
				// block of the written range, or freed.
				before := node.Mem.Allocated()
				w := s.getWork()
				w.req = *req
				wire := &wireLog{node: node, eager: eager}
				s.postPayload(p, wire, w, true)
				k := takePieces(req, eager)
				if !w.ok && node.Mem.Allocated() != before {
					t.Fatalf("refused header %+v allocated %d frames", req, node.Mem.Allocated()-before)
				}
				payload := msg[consumed:]
				if len(payload) == 0 && w.ok {
					payload = bytes.Repeat([]byte{0xA5}, int(req.Len)) // a payload of the announced length
				}
				if got := deliverPieces(t, node, wire, payload, eager); len(wire.recvs) != max(k, 1) || w.ok && got != int(req.Len) {
					t.Fatalf("%+v: %d receives posted for %d bytes, want %d for %d", req, len(wire.recvs), got, max(k, 1), req.Len)
				}
				s.landPayload(p, w)
				s.handleWrite(p, w)
				resp := &w.resp
				check(req, resp)
				if resp.Status == StOK && (len(payload) != int(req.Len) || !bytes.Equal(fs.ReadRange(req.Ino, req.Off, len(payload)), payload)) {
					t.Fatalf("%+v installed, from a %d-byte payload it does not hold", req, len(payload))
				}
				if k == 0 && resp.Status != StInval {
					t.Fatalf("%+v asks for pieces outside the rule, answered status %d", req, resp.Status)
				}
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
			default:
				// One reply answers the request and what is packed behind
				// it, in order, up to where the combined-reply rule lets it
				// end.
				reqs := []*Req{req}
				s.unpack(w)
				for _, extra := range w.extra {
					reqs = append(reqs, &extra)
				}
				wire := &wireLog{node: node, eager: eager}
				s.serve(p, wire, w)
				s.sweepStaged()
				if len(wire.msgs) != 1 || wire.tags[0] != tag(req.Seq, req.EP, kindHdr) {
					t.Fatalf("%+v answered in %d messages, want one reply header", req, len(wire.msgs))
				}
				raw := wire.msgs[0]
				resps, err := DecodeResps(raw, nil)
				if err != nil || len(resps) == 0 || len(resps) > len(reqs) || len(raw) > HdrBufSize ||
					len(resps) < len(reqs) && !endsEarly(reqs[len(resps)].Op, len(raw)) {
					t.Fatalf("%d requests answered by a %d-byte reply of %d answers (%v)", len(reqs), len(raw), len(resps), err)
				}
				for i, resp := range resps {
					check(reqs[i], resp)
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

// checkPieces serves w's read-shaped request over a logging transport
// and checks its answer against the piece rule: data messages
// first, as many as the rule grants, adding up to the reply's N; then
// one well-formed reply header, its Seq the request's and its Status a
// defined one.
func checkPieces(t *testing.T, p *sim.Proc, s *Server, w *work, eager int) {
	t.Helper()
	req := w.req
	n := int(req.Len &^ piecesBit)
	pieced := req.Len&piecesBit != 0
	wire := &wireLog{node: s.node, eager: eager}
	s.serve(p, wire, w)
	s.sweepStaged()
	last := len(wire.msgs) - 1
	resps, err := DecodeResps(wire.msgs[last], nil)
	if err != nil || len(resps) != 1 || resps[0].Seq != req.Seq || wire.tags[last]&0xf != kindHdr {
		t.Fatalf("%+v: the last message is not its reply header (%v)", req, err)
	}
	resp := resps[0]
	if resp.Status < StOK || resp.Status > StTooLarge {
		t.Fatalf("%+v answered status %d", req, resp.Status)
	}
	k, total := 1, 0
	switch {
	case pieced && pieces(req.Op, eager, n) == 1:
		if resp.Status != StInval {
			t.Fatalf("%+v asks for pieces outside the rule, answered status %d", req, resp.Status)
		}
	case pieced:
		k = pieces(req.Op, eager, n)
	}
	if last != k {
		t.Fatalf("%+v answered in %d data messages, want %d", req, last, k)
	}
	for i, m := range wire.msgs[:last] {
		if wire.tags[i]&0xf != kindData || k > 1 && len(m) > eager || i > 0 && len(m) > 0 && len(wire.msgs[i-1]) < eager {
			t.Fatalf("%+v: data message %d of %d holds %d bytes", req, i, k, len(m))
		}
		total += len(m)
	}
	if total != int(resp.N) || total > n || resp.Status == StInval && total != 0 {
		t.Fatalf("%+v: %d data bytes for N=%d, status %d", req, total, resp.N, resp.Status)
	}
}

// wireLog is a transport that keeps every message sent through it, its
// bytes gathered at the send, and completes each send at once; and every
// receive posted through it, for deliverPieces to complete.
type wireLog struct {
	fabric.Transport
	node  *hw.Node
	eager int
	tags  []uint64
	msgs  [][]byte
	recvs []*handOp
}

func (l *wireLog) PostRecv(p *sim.Proc, match core.Match, v core.Vector) (fabric.Op, error) {
	op := &handOp{v: v}
	l.recvs = append(l.recvs, op)
	return op, nil
}

// handOp is a receive that deliverPieces completes by hand.
type handOp struct {
	v  core.Vector
	st fabric.Status
}

func (o *handOp) Done() bool                     { return true }
func (o *handOp) Wait(p *sim.Proc) fabric.Status { return o.st }
func (o *handOp) Release()                       {}

// deliverPieces lands payload in the receives posted through l, in
// order, cut as a client cuts a pieced payload: eager bytes each, the
// rest in the last (one receive takes it whole) — truncated, in error,
// where a receive is shorter than its piece. It returns the bytes the
// receives were posted for, checking that several are each within the
// eager limit.
func deliverPieces(t *testing.T, node *hw.Node, l *wireLog, payload []byte, eager int) int {
	t.Helper()
	room := 0
	for i, op := range l.recvs {
		piece := payload[min(i*eager, len(payload)):]
		if i < len(l.recvs)-1 {
			piece = piece[:min(eager, len(piece))]
		}
		n := op.v.TotalLen()
		if room += n; len(l.recvs) > 1 && n > eager {
			t.Fatalf("piece receive %d of %d holds %d bytes", i, len(l.recvs), n)
		}
		if op.st.Len = min(len(piece), n); len(piece) > n {
			op.st.Err = errors.New("truncated")
		}
		xs, err := op.v.Extents()
		if err != nil {
			t.Fatal(err)
		}
		node.Mem.Scatter(xs, piece[:op.st.Len])
	}
	return room
}

func (l *wireLog) Caps() fabric.Caps {
	return fabric.Caps{Vectors: true, Physical: true, EagerMax: l.eager}
}

func (l *wireLog) Send(p *sim.Proc, dst hw.NodeID, ep uint8, info uint64, v core.Vector) (fabric.Op, error) {
	xs, err := v.Extents()
	if err != nil {
		return nil, err
	}
	l.tags, l.msgs = append(l.tags, info), append(l.msgs, l.node.Mem.Gather(xs))
	return sentOp{}, nil
}

// sentOp is a send that completed when it was made.
type sentOp struct{}

func (sentOp) Done() bool                     { return true }
func (sentOp) Wait(p *sim.Proc) fabric.Status { return fabric.Status{} }
func (sentOp) Release()                       {}

// notZero reports a non-zero byte (bytes.ContainsFunc).
func notZero(r rune) bool { return r != 0 }

// dirt leaves n bytes of junk at the front of in's frames, as a message
// that spilled past the header segment and was not installed does.
func dirt(in *inbox, n int) {
	for i := 0; i < n; i++ {
		in.frames[i/mem.PageSize].Data()[i%mem.PageSize] = 0xEE
	}
	in.dirty = max(in.dirty, n)
}

// landMsg puts msg where a receive of at most size bytes into in puts
// it — the header segment first, then the frames — and returns the
// receive's status: cut to size, and then in error.
func landMsg(node *hw.Node, in *inbox, msg []byte, size int) fabric.Status {
	st := fabric.Status{Len: min(len(msg), size)}
	if len(msg) > size {
		st.Err = errors.New("truncated")
	}
	if err := node.Kernel.WriteBytes(in.hdr.VA(), msg[:min(st.Len, reqFixed)]); err != nil {
		panic(err)
	}
	for i := reqFixed; i < st.Len; {
		k := i - reqFixed
		i += copy(in.frames[k/mem.PageSize].Data()[k%mem.PageSize:], msg[i:st.Len])
	}
	return st
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
