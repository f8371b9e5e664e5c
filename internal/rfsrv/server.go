package rfsrv

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/vm"
)

// BackingFS is what the server serves: a filesystem whose data blocks
// are physical frames — so read replies are sent zero-copy, straight
// from the block store (FrameAt), and a write payload received into
// fresh frames becomes the blocks by page flip (InstallPages, see
// memfs.FS.InstallPages) — the server-side analogue of the paper's
// physical-address primitives, on both halves of the data path.
type BackingFS interface {
	kernel.FileSystem
	FrameAt(ino kernel.InodeID, idx int64) *mem.Frame
	InstallPages(p *sim.Proc, ino kernel.InodeID, off int64, n int, frames []*mem.Frame, at int) (int, error)
}

// Server is the ORFA/ORFS file server.
type Server struct {
	node *hw.Node
	fs   BackingFS
	zero *mem.Frame // shared zero page for holes

	// epochs is the per-inode size epoch, the server half of the
	// cluster's size-coherence protocol (DESIGN.md §9): bumped by every
	// exact size set (OpTruncate, OpSetSize in exact mode) and NEVER by
	// data writes or grow-mode reconciliation. Exact sets always fan out
	// to every alive server of a cluster while grow reconciliation may
	// skip servers whose local size is already current, so this bump
	// discipline keeps epochs replicated-identical across a cluster —
	// which is what lets a client treat ANY server's reply epoch as the
	// coherence signal. Every reply carries the epoch of the inode it
	// resolves (Resp.Epoch).
	epochs map[kernel.InodeID]uint64

	// layouts records each regular file's stripe-layout class
	// (DESIGN.md §10), set by the create hint (or, on an owner group's
	// other members, the OpLink replicating the fresh dentry) and never
	// changed. Absence means LayoutStandard — unhinted creates never
	// populate the map. The server itself
	// serves whatever byte ranges it is asked for regardless of class;
	// the class is authoritative placement metadata FOR CLIENTS, carried
	// in every reply that resolves the inode (Resp.Layout) so any round
	// trip teaches a cluster client where the file's data lives.
	layouts map[kernel.InodeID]LayoutClass

	// sessions is the per-client protocol state: one entry per (node,
	// endpoint) pair that has sent a request, tracking that client's
	// sliding window as seen from the server.
	sessions map[clientKey]*ClientSession

	// workFree recycles work records (and their header-scratch slices)
	// between receiving and serving — one simulated host, so a plain
	// freelist needs no locking. inside counts the requests received and
	// not yet served (the sum of every ClientSession's Outstanding).
	// staged is everything a reply sent that the NIC may still be
	// reading (see sweepStaged), and dataFree recycles the data vectors
	// of the reads among them (readExtents, release).
	workFree []*work
	inside   int
	staged   []stagedSend
	dataFree []core.Vector

	// Sharded-namespace state (see EnableSharding): when shard is set
	// this server is ring position shardIdx of the geometry geo, owns
	// only the directories whose residue's owner group includes it
	// (ownsDir) and refuses namespace mutations outside that slice with
	// StNotOwner. sfs is fs narrowed to the sharded verbs; renames holds
	// the source-side marks of in-flight two-phase renames (see
	// OpRenamePrepare).
	shard    bool
	shardIdx int
	geo      placement
	sfs      ShardBackingFS
	renames  map[renameKey]renameMark

	// member is the membership-view epoch this server last committed
	// (OpMember, DESIGN.md §13), stamped into every answer's epoch slot
	// (by answer, the one encoder of answers) so clients routing
	// under an older view find out on their next round trip. Zero for
	// the fixed-membership clusters every pre-elastic test and figure
	// builds.
	member uint64

	// stage is the namespace image an OpImport staged for a membership
	// cutover (image.go), nil when none is: the OpMember committing its
	// epoch applies it, any other OpMember discards it.
	stage *image

	// Requests counts served operations; Batched counts requests that
	// arrived packed behind another in one message (§3.3-style
	// combining, client side) and were answered in its reply.
	Requests, Batched sim.Counter
}

// getWork takes a work record from the freelist (or allocates one).
func (s *Server) getWork() *work {
	if k := len(s.workFree); k > 0 {
		w := s.workFree[k-1]
		s.workFree = s.workFree[:k-1]
		return w
	}
	return &work{rawBuf: make([]byte, reqBufSize)}
}

// putWork recycles a finished work record, keeping the backing of its
// payload scratch, receive list, packed requests and reply encoding and
// its hand-off callback.
func (s *Server) putWork(w *work) {
	w.req, w.raw, w.sess, w.queue = Req{}, nil, nil, nil
	clear(w.frames)
	clear(w.pay)
	clear(w.extra)
	w.frames, w.vec, w.pay, w.extra, w.enc, w.at, w.dirty, w.ok = w.frames[:0], w.vec[:0], w.pay[:0], w.extra[:0], w.enc[:0], 0, 0, false
	s.workFree = append(s.workFree, w)
}

type clientKey struct {
	node hw.NodeID
	ep   uint8
}

// ClientSession is the server-side record of one client endpoint:
// how many of its requests are in the server right now (queued or
// being served) and the deepest window it has kept open. Workers use
// it for accounting; tests use it to verify pipelining reached the
// server.
type ClientSession struct {
	Node hw.NodeID
	EP   uint8

	Outstanding    int
	MaxOutstanding int
	Served         sim.Counter
}

// NewServer creates a server for fs on node.
func NewServer(node *hw.Node, fs BackingFS) *Server {
	zero, err := node.Mem.AllocFrame()
	if err != nil {
		panic(err)
	}
	return &Server{
		node: node, fs: fs, zero: zero,
		epochs:   make(map[kernel.InodeID]uint64),
		layouts:  make(map[kernel.InodeID]LayoutClass),
		sessions: make(map[clientKey]*ClientSession),
	}
}

// session returns (creating on first contact) the per-client state.
func (s *Server) session(src hw.NodeID, ep uint8) *ClientSession {
	k := clientKey{src, ep}
	cs := s.sessions[k]
	if cs == nil {
		cs = &ClientSession{Node: src, EP: ep}
		s.sessions[k] = cs
	}
	return cs
}

// Sessions returns the per-client session records (stats, tests) in
// (node, endpoint) order.
func (s *Server) Sessions() []*ClientSession {
	out := make([]*ClientSession, 0, len(s.sessions))
	for _, cs := range s.sessions {
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].EP < out[j].EP
	})
	return out
}

// handleMeta executes a metadata request against the backing store,
// building its answer in resp, which it overwrites whole: the serving
// work record's (serve answers a packed request's before the next one
// runs).
//
// allocfree
func (s *Server) handleMeta(p *sim.Proc, req *Req, resp *Resp) {
	*resp = Resp{Seq: req.Seq}
	ino := req.Ino
	if ino == 0 {
		ino = s.fs.Root()
	}
	var err error
	//analyze:dispatch ops group=serve
	switch req.Op {
	case OpLookup:
		resp.Attr, err = s.fs.Lookup(p, ino, req.Name)
	case OpGetattr:
		resp.Attr, err = s.fs.Getattr(p, ino)
	case OpReaddir:
		resp.Entries, err = s.fs.Readdir(p, ino)
	case OpCreate, OpMkdir:
		// Len packs the creator's layout class with, sharded, the routing
		// residue of the mint (PackNode). A class no file can have, one on
		// a directory, or a residue sent to an unsharded server is a
		// protocol violation.
		arg, lc := UnpackNode(req.Len)
		kind := kernel.RegularFile
		if req.Op == OpMkdir {
			kind = kernel.Directory
		}
		switch {
		case !ValidLayout(lc) || kind == kernel.Directory && lc != LayoutStandard || arg != 0 && !s.shard:
			err = ErrInval
		case s.shard:
			resp.Attr, err = s.shardMakeNode(p, ino, req.Name, kind, arg-1)
		case kind == kernel.Directory:
			resp.Attr, err = s.fs.Mkdir(p, ino, req.Name)
		default:
			resp.Attr, err = s.fs.Create(p, ino, req.Name)
		}
		if err == nil && lc != LayoutStandard {
			s.layouts[resp.Attr.Ino] = lc
		}
	case OpUnlink:
		if s.shard {
			// The sharded unlink replies with the victim's attributes:
			// the owner group is the only place the client can learn the
			// dead inode it must lazily scrub everywhere else.
			resp.Attr, err = s.shardUnlink(p, ino, req)
			break
		}
		// Resolve the victim first (a free map lookup) so its size-epoch
		// entry can be pruned with it — unpruned entries would leak for
		// the server's lifetime, and a backing store that recycled inode
		// numbers would hand a fresh file a stale epoch.
		victim, lerr := s.fs.Lookup(p, ino, req.Name)
		if err = s.fs.Unlink(p, ino, req.Name); err == nil && lerr == nil {
			delete(s.epochs, victim.Ino)
			delete(s.layouts, victim.Ino)
		}
	case OpRmdir:
		if s.shard {
			if !s.ownsDir(ino) {
				err = ErrNotOwner
				break
			}
			if s.renameMarked(ino, req.Name) {
				err = ErrBusy
				break
			}
		}
		err = s.fs.Rmdir(p, ino, req.Name)
	case OpTruncate:
		if req.Off < 0 {
			err = ErrInval // a negative size would corrupt the block map
		} else if err = s.fs.Truncate(p, ino, req.Off); err == nil {
			// An exact size set invalidates every cached view of the
			// file's size: bump the epoch (see the epochs field).
			s.epochs[ino]++
		}
	case OpSetSize:
		err = s.handleSetSize(p, ino, req, resp)
	case OpLink:
		resp.Attr, err = s.handleLink(p, ino, req)
	case OpMaterialize:
		resp.Attr, err = s.handleMaterialize(p, ino, req)
	case OpScrub:
		err = s.handleScrub(p, ino, req)
	case OpRenamePrepare:
		resp.Attr, err = s.handleRenamePrepare(p, ino, req)
	case OpRenameFinalize:
		err = s.handleRenameFinalize(p, ino, req)
	case OpRenameAbort:
		err = s.handleRenameAbort(p, ino, req)
	case OpRenameLocal:
		resp.Attr, err = s.handleRenameLocal(p, ino, req)
	case OpMember:
		err = s.handleMember(p, req)
	default:
		//analyze:allow allocfree error path: a request for no operation
		err = fmt.Errorf("rfsrv: bad op %v", req.Op)
	}
	resp.Status = StatusOf(err)
}

// handleMember commits a new membership view on this server
// (DESIGN.md §13): it applies the image staged for the epoch when the
// commit names the server a member (position < count; a retiree's
// stamp is position count) and discards any other, adopts the epoch
// for reply stamping and, in sharded mode, swaps the §11 ownership
// geometry and re-bases the backing store's minting partition past the
// mint floor so inodes minted under the new geometry route by
// (ino−2) mod N and never collide with old ones.
func (s *Server) handleMember(p *sim.Proc, req *Req) error {
	pos, n, r, sharded := UnpackMember(req.Len)
	if req.Off < 0 || n <= 0 || r <= 0 || r > n || pos > n || sharded && (pos == n || s.sfs == nil) {
		return ErrInval // a sharded commit needs a position and a shard-capable backing store
	}
	if img := s.stage; img != nil {
		s.stage = nil
		if img.stage == uint64(req.Off) && pos < n {
			s.applyImage(img)
		}
	}
	s.member = uint64(req.Off)
	if !sharded {
		return nil
	}
	s.shard, s.shardIdx, s.geo = true, pos, ringPlacement(n, r)
	if pf, ok := s.fs.(interface {
		SetInodePartitionFloor(index, count int, floor kernel.InodeID)
	}); ok {
		pf.SetInodePartitionFloor(pos, n, req.Ino)
	}
	return nil
}

// handleSetSize executes the size-coherence operation: a grow-only
// reconciliation (size = max(size, Off), epoch untouched) or an exact
// set (size = Off, epoch bumped), refused with StStale when the
// writer's observed epoch is behind — the reply then carries the
// authoritative (size, epoch) so the writer revalidates in one round
// trip.
func (s *Server) handleSetSize(p *sim.Proc, ino kernel.InodeID, req *Req, resp *Resp) error {
	if req.Off < 0 {
		return ErrInval // a negative size would corrupt the block map
	}
	// A sharded server may first hear of a foreign-owned inode through
	// a size publish or global truncate: materialize a stub (epoch 0,
	// matching what every fresh replica would hold) and proceed.
	s.materializeOnDemand(p, ino, kernel.RegularFile)
	exact, observed := UnpackSetSize(req.Len)
	if uint32(s.epochs[ino]&SetSizeEpochMask) != observed {
		// Stale writer: report, and let the getattr below fill the
		// authoritative attributes for revalidation.
		if a, aerr := s.fs.Getattr(p, ino); aerr == nil {
			resp.Attr = a
		}
		return ErrStaleEpoch
	}
	var err error
	if exact {
		if err = s.fs.Truncate(p, ino, req.Off); err == nil {
			s.epochs[ino]++
			resp.Attr, err = s.fs.Getattr(p, ino)
		}
		return err
	}
	resp.Attr, err = s.fs.Getattr(p, ino)
	if err == nil && req.Off > resp.Attr.Size {
		// Grow-only: idempotent, replayable against any subset of
		// servers, and deliberately epoch-neutral (see Server.epochs).
		if err = s.fs.Truncate(p, ino, req.Off); err == nil {
			resp.Attr, err = s.fs.Getattr(p, ino)
		}
	}
	return err
}

// readExtents builds the zero-copy reply data for w's read: a physical
// vector of the file's block frames (the zero page for holes), clipped
// to EOF, and its answer in w.resp. It returns the number of data messages that
// carry it — the piece rule's count for a read that asks for pieces
// under it, one otherwise (takePieces) — and the data to transmit,
// holding a reference on the frame under every page of them: the NIC
// reads the frames when the send reaches the head of its queue, and a
// truncate, unlink or overwrite served before then must not hand them
// back to the allocator. The caller gives the references back with
// putFrames once the send is done.
func (s *Server) readExtents(p *sim.Proc, w *work, eagerMax int) (int, core.Vector) {
	req, resp := &w.req, &w.resp
	*resp = Resp{Seq: req.Seq}
	k := takePieces(req, eagerMax)
	// A negative or overflowing range, or pieces the rule does not
	// grant, is a protocol violation, not a short read: reject it
	// outright, in one empty message, instead of clipping silently (the
	// clip below assumes a well-formed [Off, Off+Len) window).
	if k == 0 || req.Off < 0 || req.Off+int64(req.Len) < req.Off {
		resp.Status = StInval
		return 1, nil
	}
	attr, err := s.fs.Getattr(p, req.Ino)
	if err != nil {
		if s.shard && err == kernel.ErrNotFound {
			// Sharded data server that never saw this inode: nothing of
			// it lives here yet, which reads as EOF, not as an error —
			// the stripe layout is global but materialization is lazy.
			return k, nil
		}
		resp.Status = StatusOf(err)
		return k, nil
	}
	n := max(min(int64(req.Len), attr.Size-req.Off), 0)
	var data core.Vector
	if f := len(s.dataFree); f > 0 {
		data, s.dataFree = s.dataFree[f-1], s.dataFree[:f-1]
	}
	for off, left := req.Off, n; left > 0; {
		pgOff := int(off % mem.PageSize)
		chunk := min(int64(mem.PageSize-pgOff), left)
		f := s.fs.FrameAt(req.Ino, off/mem.PageSize)
		if f == nil {
			f = s.zero // hole
		}
		f.Get()
		data = appendPhys(data, f.Addr()+mem.PhysAddr(pgOff), int(chunk))
		off, left = off+chunk, left-chunk
	}
	resp.N = uint32(n)
	resp.Attr = attr
	return k, data
}

// putFrames drops the reference readExtents took on the frame under
// each page of data. Merging as they were appended kept the segments
// page for page what readExtents walked — every chunk but the first
// starts a frame, every chunk but the last ends one — so walking their
// frames again visits each held frame exactly as often as it was held.
func (s *Server) putFrames(data core.Vector) {
	m := s.node.Mem
	for _, x := range data {
		for pfn := x.PA.PFN(); pfn <= (x.PA + mem.PhysAddr(x.Len) - 1).PFN(); pfn++ {
			m.Put(m.Frame(pfn))
		}
	}
}

// validWrite reports whether a write header's range is well formed: a
// non-negative offset, no overflow, at most MaxWriteChunk bytes.
//
// allocfree
func validWrite(req *Req) bool {
	return req.Off >= 0 && req.Off+int64(req.Len) >= req.Off && req.Len <= MaxWriteChunk
}

// handleWrite applies w's write, whose payload (w.ok: exactly the
// req.Len bytes announced, for a valid range) has landed in w.frames
// from byte w.at of the first on: the receiver's own frames behind an
// inline payload's head (admit), or the fresh ones it posted for a
// separate payload (payloadFrames). The store installs them, by page
// flip where the payload sits at its in-page position, and takes them
// over whatever happens. A flipped frame must read as zeros outside the
// payload's share, as a hole does, so what earlier messages left there
// (w.dirty) is cleared first, and the clearing charged. The answer goes
// in w.resp.
//
// allocfree
func (s *Server) handleWrite(p *sim.Proc, w *work) {
	req, resp := &w.req, &w.resp
	if !w.ok {
		*resp = Resp{Seq: req.Seq, Status: StInval}
		return
	}
	if w.at == int(req.Off%mem.PageSize) {
		if n := mem.ClearFrames(w.frames, 0, min(w.at, w.dirty)) + mem.ClearFrames(w.frames, w.at+int(req.Len), w.dirty); n > 0 {
			s.node.CPU.Copy(p, n)
		}
	}
	s.materializeOnDemand(p, req.Ino, kernel.RegularFile)
	n, err := s.fs.InstallPages(p, req.Ino, req.Off, int(req.Len), w.frames, w.at)
	*resp = Resp{Seq: req.Seq, Status: StatusOf(err), N: uint32(n)}
	if err == nil {
		resp.Attr, _ = s.fs.Getattr(p, req.Ino) // the zero Attr on an error
	}
}

// ---- serving over the fabric ----
//
// The server is written once against fabric.Transport; like
// FabricClient it branches on the transport's capabilities only where
// the paper's asymmetry lives (§5.2): a write's payload rides inline
// behind the request while the message fits the transport's eager limit
// and follows as its own tagged message otherwise (inlinePayload, which
// sends every payload of a transport without vectors alone), or as the
// piece rule's eager pieces of it (pieces); and a
// transport whose completions come from a single queue is served by one
// process in arrival order instead of posted receives feeding workers
// (Serve). Everything the NIC moves is addressed physically on every
// transport, the rule FabricClient's kernel side follows too: a request
// lands in a receiver's header segment and the frames behind it
// (inbox), a separate payload or its pieces in fresh frames, a reply
// header leaves from pooled staging (fabric.Buffer.PhysVec) and a
// read's data from the block store. So MX's medium messages pay no bounce copy on either
// side, and a write's payload, inline or alone, lands in frames the
// store takes as the file's blocks (handleWrite).

// work is one received request message on its way to being served: the
// leading request, decoded in place, the head of the raw message (which
// may carry further packed metadata requests, decoded into extra), the
// reply it builds (the answer to
// every request the message carried, answer) and, for a write, the
// frames its payload landed in — the receiver's own, handed over with an
// inline payload (admit), or fresh ones the receiver posted the receives
// of a separate payload into. The install takes them over; any other
// request leaves every frame with its receiver.
type work struct {
	req      Req
	src      hw.NodeID
	raw      []byte // leading <= reqBufSize bytes (header+name, or a packed batch)
	rawBuf   []byte // backing storage for raw, reused across recycles
	extra    []Req  // the metadata requests packed behind req (unpack; backing reused)
	consumed int
	frames   []*mem.Frame // a write's payload frames (backing reused)
	at       int          // where the payload starts in frames[0]
	dirty    int          // leading bytes of frames an earlier message may have left non-zero
	vec      core.Vector  // a separate payload's receive vector, then each piece's share (backing reused)
	pay      []fabric.Op  // a separate payload's posted receives, one per piece, until landPayload collects them
	ok       bool         // a write's payload is exactly the req.Len bytes announced
	resp     Resp         // the answer being built, by every handler in turn (answer encodes it)
	enc      []byte       // the reply's answers, encoded (answer; backing reused)
	sess     *ClientSession
	// enqueue sends the record to queue — the worker queue of the
	// receiver that took its header — from its payload's completion,
	// the last piece's (Serve). Built the first time the record carries
	// such a payload and kept across recycles, so the hand-off allocates
	// nothing and a server that never sees one builds none.
	queue   *sim.Chan[*work]
	enqueue func()
}

// ServeMX serves the protocol on MX kernel endpoint epID with `workers`
// serving processes (through the unified fabric).
func (s *Server) ServeMX(m *mx.MX, epID uint8, workers int) (*mx.Endpoint, error) {
	t, err := fabric.NewMX(m, epID, true)
	if err != nil {
		return nil, err
	}
	return t.Endpoint(), s.Serve(t, workers)
}

// ServeGM serves the protocol on GM kernel port portID (through the
// unified fabric).
func (s *Server) ServeGM(g *gm.GM, portID uint8) (*gm.Port, error) {
	t, err := fabric.NewGM(g, portID, true)
	if err != nil {
		return nil, err
	}
	return t.Port(), s.Serve(t, 1)
}

// Serve serves the protocol on any message transport with physical
// addressing. On a vectorial transport, whose waits are per request
// (§4.2, §5.2: "wait on a single or any pending request"), `workers`
// receivers each keep a request receive posted and feed a queue that
// `workers` serving processes drain. One posted receive accepts a
// pipelined client's next request while every worker is still busy —
// the server half of the protocol's sliding window. A write whose
// payload follows as its own message holds no receiver: its receiver
// posts the payload's receives — one, or one per piece, before the
// first piece can land, for the NIC hands a message over only once its
// last fragment is in (recvReq, postPayload) — hands the write to the
// queue from the last receive's completion (fabric.NotifyOp) and goes
// straight back to its request receive, so no process parks on a
// payload and the queue only ever holds complete work (serve lands the
// payload first, landPayload). A request that finds no receive posted
// still waits in the unexpected queue until a receiver is back, so the
// server posts as many receives as it has workers — but only once it
// has seen concurrency. Receivers 2…N start parked on a signal that a
// receiver fires the first time the request it has just received finds
// another still inside the server (a write whose payload is in flight
// counts); a server that never holds two requests at once (a
// synchronous client) runs exactly the one-receive schedule and keeps
// one inbox, not N. A non-vectorial transport delivers every
// completion through one event queue that a single consumer must drain
// (§5.2, §5.3), so one process receives and serves in arrival order,
// posting a payload's receive and landing it back to back (pipelined
// clients still overlap their requests' transfers with its work), and
// workers must be 1.
func (s *Server) Serve(t fabric.Transport, workers int) error {
	caps := t.Caps()
	if caps.Stream || !caps.Physical {
		return fmt.Errorf("rfsrv: server needs a message transport with physical addressing")
	}
	env, name := s.node.Cluster.Env, s.node.Name
	if !caps.Vectors {
		if workers != 1 {
			return fmt.Errorf("rfsrv: %d workers on a transport with a single completion queue (want 1)", workers)
		}
		env.Spawn(name+"-rfsrv-gm", func(p *sim.Proc) {
			in := s.newInbox()
			for {
				s.serve(p, t, s.recvReq(p, t, in))
			}
		})
		return nil
	}
	queue := sim.NewChan[*work](env)
	concurrent := sim.NewSignal(env)
	for r := 0; r < workers; r++ {
		env.Spawn(fmt.Sprintf("%s-rfsrv-mx-rx%d", name, r), func(p *sim.Proc) {
			if r > 0 {
				concurrent.Wait(p)
			}
			in := s.newInbox()
			for {
				w := s.recvReq(p, t, in)
				if s.inside > 1 {
					concurrent.Fire()
				}
				if len(w.pay) == 0 {
					queue.Send(w)
					continue
				}
				w.queue = queue
				if w.enqueue == nil {
					w.enqueue = func() { w.queue.Send(w) }
				}
				w.pay[len(w.pay)-1].(fabric.NotifyOp).OnDone(w.enqueue)
			}
		})
	}
	for w := 0; w < workers; w++ {
		env.Spawn(fmt.Sprintf("%s-rfsrv-mx-%d", name, w), func(p *sim.Proc) {
			for {
				s.serve(p, t, queue.Recv(p))
			}
		})
	}
	return nil
}

// inbox is one receiver's request receive, posted as a physical vector
// of two parts: a header segment exactly a request header long
// (reqFixed), in a pooled bounce buffer, and frames behind it, as many
// as hold the longest request message that can arrive in one — a
// reqBufSize head, or an inline write filling the eager limit — which
// is as much memory as a bounce of that length. Whatever a message
// carries past its header lands in the frames: a name or a packed
// batch, copied out as the message's head (recvReq), or an inline
// write's payload, at its in-page position when the write's offset is
// page-aligned, so the frames it landed in become the file's blocks by
// page flip (admit, handleWrite). The receiver keeps its bounce for good
// and replaces frames a payload took before it posts again (refill).
type inbox struct {
	hdr    *fabric.Buffer
	frames []*mem.Frame
	// dirty counts the leading bytes of frames that messages have landed
	// in since the frames were fresh: a page flipped in must read as
	// zeros outside the payload's share, as a hole does, so what an
	// earlier name, batch or refused payload left there is cleared
	// before an install (handleWrite).
	dirty int
	vec   core.Vector // the receive vector, rebuilt for every post
}

// newInbox returns an empty inbox for a receiver. Its frames are the
// node's kernel memory, given back when the node's kernel space is
// destroyed: a finished rig's receivers stay parked for good, posted
// into them.
func (s *Server) newInbox() *inbox {
	in := &inbox{}
	s.node.Kernel.RegisterSpy(&vm.ExitSpy{Exit: func() {
		s.node.Mem.PutAll(in.frames)
		in.frames = nil
	}})
	return in
}

// refill readies in for its next receive of up to size bytes: it takes
// the header segment's bounce from the pool the first time, tops the
// frames up with fresh ones (mem.AllocFrames) and builds the receive
// vector — the header segment, then the frames for the remaining
// size-reqFixed bytes.
//
// allocfree
func (s *Server) refill(in *inbox, size int) {
	if in.hdr == nil {
		buf, err := fabric.PoolOf(s.node).Get(reqFixed)
		if err != nil {
			panic(err)
		}
		in.hdr = buf
	}
	var err error
	if in.frames, err = s.node.Mem.AllocFrames(in.frames, (size-reqFixed+mem.PageSize-1)/mem.PageSize-len(in.frames)); err != nil {
		panic(err) // like the block store's own allocations
	}
	in.vec = append(in.vec[:0], in.hdr.PhysVec(reqFixed)...)
	for i, left := 0, size-reqFixed; left > 0; i, left = i+1, left-mem.PageSize {
		in.vec = appendPhys(in.vec, in.frames[i].Addr(), min(left, mem.PageSize))
	}
}

// recvReq receives the next well-formed request message into the
// calling receiver's inbox (admit). A write whose payload follows as its
// own message has that payload's receives posted here (postPayload) but
// not waited: the work it returns is complete once w.pay is, and serve
// lands it (landPayload).
func (s *Server) recvReq(p *sim.Proc, t fabric.Transport, in *inbox) *work {
	eagerMax := t.Caps().EagerMax
	for {
		s.refill(in, max(reqBufSize, eagerMax))
		op, err := t.PostRecv(p, core.Exact(reqTag), in.vec)
		if err != nil {
			panic(err)
		}
		//analyze:allow boundedwait a receiver idles here until some client sends a request; no peer owes it one
		st := op.Wait(p)
		op.Release()
		w := s.admit(in, st, eagerMax)
		if w == nil {
			continue // malformed: drop, and post the same inbox again
		}
		if writeShaped(w.req.Op) && !inlinePayload(eagerMax, w.consumed, int(w.req.Len)) {
			s.postPayload(p, t, w, st.Err == nil && st.Len == w.consumed)
		}
		return w
	}
}

// admit decodes the request message st reports landed in in, and
// accounts it to its client; a malformed one is dropped (nil). The
// message's head — at most reqBufSize bytes, from the header segment and
// then the frames — is copied out to decode. Under the one length rule
// (the payload is exactly req.Len bytes, inline behind the head or alone
// in its own message — never both, never truncated: st.Err, a message
// longer than the inbox), an inline write that is well formed takes the
// frames its payload landed in along — the inbox's leading frames, which
// the install takes over; the rest move up front for fresh ones to
// follow (refill). Every other request leaves the inbox whole, so queued
// reads and metadata pin nothing of it and the queue depth is bounded
// only by the clients' aggregate window.
func (s *Server) admit(in *inbox, st fabric.Status, eagerMax int) *work {
	in.dirty = max(in.dirty, st.Len-reqFixed)
	w := s.getWork()
	raw := w.rawBuf[:min(st.Len, reqBufSize)]
	head := min(len(raw), reqFixed)
	if err := s.node.Kernel.ReadBytesInto(in.hdr.VA(), raw[:head]); err != nil {
		panic(err)
	}
	mem.ReadFrames(in.frames, 0, raw[head:])
	consumed, err := DecodeReqInto(raw, &w.req)
	if err != nil {
		s.putWork(w)
		return nil
	}
	req := &w.req
	s.Requests.Add(st.Len)
	sess := s.session(st.Src, req.EP)
	sess.Outstanding++
	sess.MaxOutstanding = max(sess.MaxOutstanding, sess.Outstanding)
	s.inside++
	w.src, w.raw, w.consumed, w.sess = st.Src, raw, consumed, sess
	if writeShaped(req.Op) && inlinePayload(eagerMax, consumed, int(req.Len)) &&
		st.Err == nil && st.Len-consumed == int(req.Len) && validWrite(req) {
		k := mem.PagesIn(consumed-reqFixed, int(req.Len))
		w.frames = append(w.frames, in.frames[:k]...)
		w.at, w.dirty, w.ok = consumed-reqFixed, min(in.dirty, k*mem.PageSize), true
		in.frames = append(in.frames[:0], in.frames[k:]...) // refill overwrites the tail
		in.dirty = max(in.dirty-k*mem.PageSize, 0)
	}
	return w
}

// postPayload posts the receives of the payload w's write header
// announced as its own message, or as the pieces the header asks for
// (takePieces), all tagged with the sender (payloadTag): into fresh
// frames, one per page of the write's range (payloadFrames), each
// piece's receive into its share of them, when the header is well
// formed (ok), and into nothing otherwise — one receive for a piece
// mark outside the rule. The payload is consumed either way, so it can
// never strand in the transport's unexpected queue or be taken for a
// later request's. No process waits for it here: w.pay holds the posted
// receives, which landPayload collects. The frames are physical, so
// nothing is pinned for a rendezvous into them.
//
// allocfree
func (s *Server) postPayload(p *sim.Proc, t fabric.Transport, w *work, ok bool) {
	k := takePieces(&w.req, t.Caps().EagerMax)
	w.ok = ok && k > 0 && s.payloadFrames(w)
	s.pieceOps(p, t, w, w.vec, max(k, 1), true)
}

// landPayload collects the payload postPayload posted for w, if any: it
// waits and releases every receive — already complete on a vectorial
// transport, whose receiver hands w on from the last one's completion —
// which charges each completion once, and applies the one length rule to
// their sum: w.ok stays true only if exactly req.Len bytes landed for a
// well-formed header (or came inline, admit), and otherwise w holds no
// frames.
func (s *Server) landPayload(p *sim.Proc, w *work) {
	n := 0
	for _, op := range w.pay {
		//analyze:allow boundedwait ROADMAP item 2(a): a client dead between header and payload strands this receive until the server has a deadline
		st := op.Wait(p)
		op.Release()
		w.ok, n = w.ok && st.Err == nil, n+st.Len
	}
	if w.ok = w.ok && (len(w.pay) == 0 || n == int(w.req.Len)); !w.ok {
		s.dropFrames(w)
	}
}

// dropFrames gives back the frames a payload landed in, for a payload
// that is refused or consumed instead of installed.
func (s *Server) dropFrames(w *work) {
	s.node.Mem.PutAll(w.frames)
	clear(w.frames)
	w.frames = w.frames[:0]
}

// payloadFrames allocates, when w's write range is valid (validWrite),
// a fresh frame for every page the range covers (mem.AllocFrames) and
// describes them in w.vec as the payload's physical receive vector,
// each page's share at its in-page position — where InstallPages flips
// it in from. An invalid range is refused before anything is allocated,
// leaving w.vec empty: a receive into nothing.
//
// allocfree
func (s *Server) payloadFrames(w *work) bool {
	w.vec = w.vec[:0]
	if !validWrite(&w.req) {
		return false
	}
	off, end := w.req.Off, w.req.Off+int64(w.req.Len)
	w.at = int(off % mem.PageSize)
	var err error
	if w.frames, err = s.node.Mem.AllocFrames(w.frames, mem.PagesIn(w.at, int(w.req.Len))); err != nil {
		panic(err) // like the block store's own allocations
	}
	for _, f := range w.frames {
		pg := off % mem.PageSize
		chunk := int(min(mem.PageSize-pg, end-off))
		w.vec = appendPhys(w.vec, f.Addr()+mem.PhysAddr(pg), chunk)
		off += int64(chunk)
	}
	return true
}

// serve executes one received request message and answers it in one
// reply, landing a separate payload first.
func (s *Server) serve(p *sim.Proc, t fabric.Transport, w *work) {
	s.landPayload(p, w)
	req := &w.req
	s.node.CPU.VFS(p) // request dispatch
	//analyze:dispatch ops group=serve
	switch req.Op {
	case OpRead:
		k, data := s.readExtents(p, w, t.Caps().EagerMax)
		// Data first (zero-copy from the block store), then the header.
		s.sendData(p, t, w, data, k, stagedSend{frames: data})
	case OpExport:
		s.serveExport(p, t, w)
	case OpImport:
		s.serveImport(p, w)
	case OpWrite:
		s.handleWrite(p, w)
	default:
		s.handleMeta(p, req, &w.resp)
	}
	s.answer(w, req)
	if !readShaped(req.Op) && !writeShaped(req.Op) {
		// Trailing bytes after a metadata request are further packed
		// requests (client-side combining): each is served and answered in
		// the same reply while its answer can fit (answerFits) — a fixed
		// answer's room checked before the request runs, a readdir's
		// listing after.
		s.unpack(w)
		for i := range w.extra {
			extra := &w.extra[i]
			if !answerFits(len(w.enc), respFixed) {
				break
			}
			if s.handleMeta(p, extra, &w.resp); !s.answer(w, extra) {
				break
			}
			s.Batched.Add(1)
			w.sess.Served.Add(1)
		}
	}
	s.reply(p, t, w)
	w.sess.Served.Add(1)
	w.sess.Outstanding--
	s.inside--
	s.putWork(w)
}

// sendData sends a read-shaped reply's data in k messages: one, from
// data itself, or the piece rule's pieces of it (pieceOps). Empty
// messages are still sent, past the data's end too, so every receive
// the client posted completes. held keeps data and the memory under it
// alive until the last message's send is done (sweepStaged), which is
// after the others'. When the client is dead, sending stops, and what
// held keeps goes back once the last queued send is done, or at once
// when none was queued.
func (s *Server) sendData(p *sim.Proc, t fabric.Transport, w *work, data core.Vector, k int, held stagedSend) {
	if held.op = s.pieceOps(p, t, w, data, k, false); held.op == nil {
		s.release(held)
		return
	}
	s.staged = append(s.staged, held)
}

// pieceOps puts the k pieces of v on the wire for w's request, in
// order, each cut into w.vec (cutPiece): the receives of w's payload
// (recv), collected in w.pay, or the messages of w's read data, an
// empty one past the data's end. It returns the last send made, which
// completes after the others — one NIC sends to one peer in order —
// staging the ones before it to be released once done (sweepStaged),
// and stops sending at a transport fault: the client is dead.
//
// allocfree
func (s *Server) pieceOps(p *sim.Proc, t fabric.Transport, w *work, v core.Vector, k int, recv bool) (last fabric.Op) {
	for i := 0; i < k; i++ {
		piece := cutPiece(&w.vec, v, i, k, t.Caps().EagerMax)
		if recv {
			op, err := t.PostRecv(p, core.Exact(payloadTag(w.src, w.req.Seq, w.req.EP)), piece)
			if err != nil {
				panic(err)
			}
			w.pay = append(w.pay, op)
			continue
		}
		if len(piece) == 0 {
			w.vec = append(w.vec, core.PhysSeg(s.zero.Addr(), 0))
			piece = w.vec[len(w.vec)-1:]
		}
		op, err := t.Send(p, w.src, w.req.EP, tag(w.req.Seq, w.req.EP, kindData), piece)
		if err != nil {
			if !fabric.IsFault(err) {
				panic(err)
			}
			break
		}
		if last != nil {
			s.staged = append(s.staged, stagedSend{op: last})
		}
		last = op
	}
	return last
}

// unpack decodes the metadata requests packed behind the first one in
// w's combined message into w.extra. A decode error drops the remainder
// (malformed trailing bytes), like any other malformed request.
func (s *Server) unpack(w *work) {
	w.extra = w.extra[:0]
	for raw := w.raw[w.consumed:]; len(raw) >= reqFixed; {
		var req Req
		consumed, err := DecodeReqInto(raw, &req)
		if err != nil || readShaped(req.Op) || writeShaped(req.Op) {
			break
		}
		w.extra = append(w.extra, req)
		raw = raw[consumed:]
	}
}

// stagedSend is one reply message on its way out and the memory the NIC
// reads it from: a header's pooled buffer, the block-store frames under
// a read's data, or nothing, for a data piece before the last.
type stagedSend struct {
	op     fabric.Op
	buf    *fabric.Buffer // header staging, released when op is done
	frames core.Vector    // held by readExtents, put back when op is done
}

// sweepStaged gives back what completed sends were holding, and the
// sends themselves.
func (s *Server) sweepStaged() {
	live := s.staged[:0]
	for _, ss := range s.staged {
		if !ss.op.Done() {
			live = append(live, ss)
			continue
		}
		s.release(ss)
	}
	clear(s.staged[len(live):])
	s.staged = live
}

// release gives back what a reply message was sent from, and its send
// once done.
func (s *Server) release(ss stagedSend) {
	if ss.op != nil {
		ss.op.Release()
	}
	if ss.buf != nil {
		ss.buf.Release()
	}
	if s.putFrames(ss.frames); ss.frames != nil {
		s.dataFree = append(s.dataFree, ss.frames[:0])
	}
}

// answer stamps the answer w.resp holds for req and appends its encoding
// to w's reply (w.enc), reporting whether it fitted (answerFits). It is
// the only encoder of
// answers, so every answer — error answers included — advertises the
// size epoch and layout class of the inode it resolved (the looked-up
// child when the operation returned one), which revalidates a cluster
// client's size cache and teaches it the file's placement (a sharded
// server outside the inode's home group answers layoutUnknown), and the
// server's membership epoch, which poisons a client routing under a
// retired view (DESIGN.md §13). The leading answer always goes in: one
// whose listing no reply can hold is answered StIO instead.
//
// allocfree
func (s *Server) answer(w *work, req *Req) bool {
	resp := &w.resp
	ino := resp.Attr.Ino
	if ino == 0 {
		if ino = req.Ino; ino == 0 {
			ino = s.fs.Root()
		}
	}
	resp.Epoch, resp.Layout, resp.MemberEpoch = s.epochs[ino], s.layouts[ino], s.member
	if s.shard && !s.ownsDir(ino) {
		// Not the inode's home: a stub here knows no class.
		resp.Layout = layoutUnknown
	}
	enc, err := EncodeRespInto(w.enc, resp)
	if err != nil && len(w.enc) == 0 {
		resp.Status, resp.Attr, resp.N, resp.Entries = StIO, kernel.Attr{}, 0, nil
		enc, err = EncodeRespInto(w.enc, resp)
	}
	w.enc = enc
	return err == nil
}

// reply sends w's reply — the answers in w.enc, one message tagged with
// the leading request's sequence number — to the requester. It is the
// only sender of reply headers.
//
// The one staging rule: whatever a reply message is sent from stays the
// message's own until its send Op reports Done — a header its own
// pooled buffer, a read's data the references readExtents took on the
// block-store frames — and every reply sweeps what has completed since
// the last. No transport lets the memory go sooner — a non-vectorial
// NIC gathers the extents at DMA time and completes only when the peer
// has acknowledged, a vectorial one reads them when the message reaches
// the head of its transmit queue and completes a rendezvous only after
// the payload left — so back-to-back replies to a pipelined client
// never share staging, and a truncate served while a read's data is
// still queued frees nothing the NIC has yet to read. A send that
// reports a transport fault (the client's NIC is dead) is dropped and
// what it held released: a peer's death is not the server's.
func (s *Server) reply(p *sim.Proc, t fabric.Transport, w *work) {
	s.sweepStaged()
	buf, err := fabric.PoolOf(s.node).Get(HdrBufSize)
	if err != nil {
		panic(err)
	}
	if err := s.node.Kernel.WriteBytes(buf.VA(), w.enc); err != nil {
		panic(err)
	}
	op, err := t.Send(p, w.src, w.req.EP, tag(w.req.Seq, w.req.EP, kindHdr), buf.PhysVec(len(w.enc)))
	if err != nil {
		if !fabric.IsFault(err) {
			panic(err)
		}
		buf.Release()
		return
	}
	s.staged = append(s.staged, stagedSend{op: op, buf: buf})
}
