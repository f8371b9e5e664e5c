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
// have physical addresses (so read replies can be sent zero-copy,
// straight from the block store — the server-side analogue of the
// paper's physical-address primitives).
type BackingFS interface {
	kernel.FileSystem
	FrameAt(ino kernel.InodeID, idx int64) *mem.Frame
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
	// (DESIGN.md §10), set by a create hint or OpSetLayout. Absence
	// means LayoutStandard — unhinted creates never populate the map,
	// so a policy-free cluster costs no entries. The server itself
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
	// reading (see sweepStaged); enc belongs to reply.
	workFree []*work
	inside   int
	staged   []stagedSend
	enc      []byte
	vec      core.Vector // bufVec's scratch

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
	// (OpMember, DESIGN.md §13), stamped into every reply's epoch slot
	// (by reply, the one sender of reply headers) so clients routing
	// under an older view find out on their next round trip. Zero for
	// the fixed-membership clusters every pre-elastic test and figure
	// builds.
	member uint64

	// Requests counts served operations; Batched counts requests that
	// arrived packed behind another in one message (§3.3-style
	// combining, client side).
	Requests, Batched sim.Counter
}

// getWork takes a work record from the freelist (or allocates one).
func (s *Server) getWork() *work {
	if k := len(s.workFree); k > 0 {
		w := s.workFree[k-1]
		s.workFree = s.workFree[:k-1]
		return w
	}
	return &work{rawBuf: make([]byte, 4096)}
}

// putWork recycles a finished work record.
func (s *Server) putWork(w *work) {
	w.req, w.raw, w.buf, w.sess = nil, nil, nil, nil
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

// handleMeta executes a metadata request against the backing store.
func (s *Server) handleMeta(p *sim.Proc, req *Req) *Resp {
	resp := &Resp{Seq: req.Seq}
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
	case OpCreate:
		// Sharded servers interpret Len as the client's routing-residue
		// hint instead (shard mode forbids layout hints, which is what
		// frees the field — see Cluster.EnableShardedNamespace).
		if s.shard {
			resp.Attr, err = s.shardMakeNode(p, ino, req, kernel.RegularFile)
			break
		}
		// Len carries the creator's layout-class hint (zero — the wire
		// default — is LayoutStandard, so pre-layout clients are
		// unchanged). Out-of-range hints are protocol violations.
		if !ValidLayout(LayoutClass(req.Len)) {
			err = ErrInval
			break
		}
		resp.Attr, err = s.fs.Create(p, ino, req.Name)
		if err == nil && LayoutClass(req.Len) != LayoutStandard {
			s.layouts[resp.Attr.Ino] = LayoutClass(req.Len)
		}
	case OpMkdir:
		if s.shard {
			resp.Attr, err = s.shardMakeNode(p, ino, req, kernel.Directory)
			break
		}
		resp.Attr, err = s.fs.Mkdir(p, ino, req.Name)
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
	case OpSetLayout:
		lc := LayoutClass(req.Len)
		if !ValidLayout(lc) {
			err = ErrInval
			break
		}
		if resp.Attr, err = s.fs.Getattr(p, ino); err != nil {
			break
		}
		if lc == LayoutStandard {
			delete(s.layouts, ino)
		} else {
			s.layouts[ino] = lc
		}
		// A layout change relocates data, so every cached (size, layout)
		// view of the file elsewhere is now wrong: bump the size epoch
		// and let the validated cache invalidate them, exactly like a
		// truncate (see Server.epochs).
		s.epochs[ino]++
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
	case OpSyncEpoch:
		// Resync-only epoch alignment (see the opcode): set the inode's
		// size epoch so the replayed mutation that follows lands at the
		// epoch the rest of the cluster recorded.
		if req.Off < 0 {
			err = ErrInval
			break
		}
		s.materializeOnDemand(p, ino, kernel.RegularFile)
		if req.Off == 0 {
			delete(s.epochs, ino)
		} else {
			s.epochs[ino] = uint64(req.Off)
		}
		resp.Attr, err = s.fs.Getattr(p, ino)
	default:
		err = fmt.Errorf("rfsrv: bad op %v", req.Op)
	}
	resp.Status = StatusOf(err)
	return resp
}

// handleMember commits a new membership view on this server
// (DESIGN.md §13): it adopts the epoch for reply stamping and, in
// sharded mode, swaps the §11 ownership geometry and re-bases the
// backing store's minting partition past the mint floor so inodes
// minted under the new geometry route by (ino−2) mod N and never
// collide with old ones.
func (s *Server) handleMember(p *sim.Proc, req *Req) error {
	pos, n, r, sharded := UnpackMember(req.Len)
	if req.Off < 0 || n <= 0 || r <= 0 || r > n || pos >= n {
		return ErrInval
	}
	s.member = uint64(req.Off)
	if !sharded {
		return nil
	}
	if s.sfs == nil {
		return ErrInval // sharded commit needs a shard-capable backing store
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

// readExtents builds the zero-copy reply extents for a read: physical
// runs of the file's block frames (the zero page for holes), clipped to
// EOF. It returns the response and the extents to transmit, holding a
// reference on the frame under every page of them: the NIC reads the
// frames when the send reaches the head of its queue, and a truncate,
// unlink or overwrite served before then must not hand them back to the
// allocator. The caller gives the references back with putFrames once
// the send is done.
func (s *Server) readExtents(p *sim.Proc, req *Req) (*Resp, []mem.Extent) {
	resp := &Resp{Seq: req.Seq}
	// A negative or overflowing range is a protocol violation, not a
	// short read: reject it outright instead of clipping silently (the
	// clip below assumes a well-formed [Off, Off+Len) window).
	if req.Off < 0 || req.Off+int64(req.Len) < req.Off {
		resp.Status = StInval
		return resp, nil
	}
	attr, err := s.fs.Getattr(p, req.Ino)
	if err != nil {
		if s.shard && err == kernel.ErrNotFound {
			// Sharded data server that never saw this inode: nothing of
			// it lives here yet, which reads as EOF, not as an error —
			// the stripe layout is global but materialization is lazy.
			return resp, nil
		}
		resp.Status = StatusOf(err)
		return resp, nil
	}
	n := int64(req.Len)
	if req.Off >= attr.Size {
		n = 0
	} else if req.Off+n > attr.Size {
		n = attr.Size - req.Off
	}
	var xs []mem.Extent
	off := req.Off
	left := n
	for left > 0 {
		idx := off / mem.PageSize
		pgOff := int(off % mem.PageSize)
		chunk := int64(mem.PageSize - pgOff)
		if chunk > left {
			chunk = left
		}
		f := s.fs.FrameAt(req.Ino, idx)
		if f == nil {
			f = s.zero // hole
		}
		f.Get()
		xs = mem.AppendExtent(xs, f.Addr()+mem.PhysAddr(pgOff), int(chunk))
		off += chunk
		left -= chunk
	}
	resp.N = uint32(n)
	resp.Attr = attr
	return resp, xs
}

// putFrames drops the reference readExtents took on the frame under
// each page of xs. Merging as they were appended kept the extents page
// for page what readExtents walked — every chunk but the first starts a frame, every
// chunk but the last ends one — so walking their frames again visits
// each held frame exactly as often as it was held.
func (s *Server) putFrames(xs []mem.Extent) {
	m := s.node.Mem
	for _, x := range xs {
		for pfn := x.Addr.PFN(); pfn <= (x.End() - 1).PFN(); pfn++ {
			m.Put(m.Frame(pfn))
		}
	}
}

// handleWrite applies inline write data (already landed in the
// transport's bounce buffer, described by src).
func (s *Server) handleWrite(p *sim.Proc, req *Req, src core.Vector) *Resp {
	resp := &Resp{Seq: req.Seq}
	if req.Off < 0 || req.Off+int64(req.Len) < req.Off {
		resp.Status = StInval
		return resp
	}
	s.materializeOnDemand(p, req.Ino, kernel.RegularFile)
	n, err := s.fs.WriteDirect(p, req.Ino, req.Off, src)
	resp.Status = StatusOf(err)
	resp.N = uint32(n)
	if err == nil {
		if a, err2 := s.fs.Getattr(p, req.Ino); err2 == nil {
			resp.Attr = a
		}
	}
	return resp
}

// ---- serving over the fabric ----
//
// The server is written once against fabric.Transport; like
// FabricClient it branches on the transport's capabilities only where
// the paper's asymmetry lives (§5.2): a write's payload rides inline
// behind the request on a vectorial transport and follows as a second
// tagged message otherwise (writeSrc); internal buffers are addressed
// kernel-virtual on a vectorial transport and physically otherwise
// (ctlVec, shared with the client); and a transport whose completions
// come from a single queue is served by one process in arrival order
// instead of posted receives feeding workers (Serve).

// work is one received request message on its way to being served: the
// decoded leading request, the head of the raw message (which may carry
// further packed metadata requests), and the pooled bounce buffer the
// message landed in when the request is a write (the payload stays
// there and is consumed in place), released once the request is served;
// any other request leaves the bounce with its receiver (recvReq).
type work struct {
	req      *Req
	src      hw.NodeID
	raw      []byte // leading <=4096 bytes (header+name, or a packed batch)
	rawBuf   []byte // backing storage for raw, reused across recycles
	n        int    // full message length (write payload stays in buf)
	consumed int
	buf      *fabric.Buffer
	sess     *ClientSession
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
// the server half of the protocol's sliding window — but a receive
// matched by a write larger than the eager limit stays matched for the
// whole rendezvous, its clear-to-send queued behind read data in the
// NIC's transmit stage, and with a single receive every other client's
// request waits in the unexpected queue meanwhile: the server's
// transmit and receive halves alternate instead of overlapping. So the
// server posts as many receives as it has workers — but only once it
// has seen concurrency. Receivers 2…N start parked on a signal that a
// receiver fires the first time the request it has just received finds
// another still inside the server; a server that never holds two
// requests at once (a synchronous client) runs exactly the one-receive
// schedule and keeps one bounce buffer, not N. A non-vectorial
// transport delivers every completion through one event queue that a
// single consumer must drain (§5.2, §5.3), so one process receives and
// serves in arrival order (pipelined clients still overlap their
// requests' transfers with its work) and workers must be 1.
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
			var bounce *fabric.Buffer
			for {
				s.serve(p, t, s.recvReq(p, t, &bounce))
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
			var bounce *fabric.Buffer
			for {
				w := s.recvReq(p, t, &bounce)
				if s.inside > 1 {
					concurrent.Fire()
				}
				queue.Send(w)
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

// bufVec describes the first n bytes of a pooled buffer the way t wants
// the server's internal buffers addressed. The physical description is
// built in a scratch the server reuses: a non-vectorial transport has
// one serving process, and its primitives take extents, which the
// transport resolves from the vector before Send/PostRecv returns.
func (s *Server) bufVec(t fabric.Transport, buf *fabric.Buffer, n int) core.Vector {
	if t.Caps().Vectors {
		return ctlVec(nil, false, core.KernelSeg(s.node.Kernel, buf.VA(), n), nil, n)
	}
	s.vec = ctlVec(s.vec[:0], true, core.Segment{}, buf.Extents(buf.Size()), n)
	return s.vec
}

// recvReq receives the next well-formed request message into *held, the
// calling receiver's pooled bounce buffer (nil: one is taken from the
// pool). Only a write needs its bounce after this point — the payload
// is consumed in place — so only a write takes it along (released when
// it has been served) and leaves *held nil; every other request was
// copied out whole and leaves the bounce with the receiver, which posts
// it again. Queued reads and metadata therefore pin no bounce at all,
// and the queue depth is bounded only by the clients' aggregate window.
func (s *Server) recvReq(p *sim.Proc, t fabric.Transport, held **fabric.Buffer) *work {
	const bounceLen = MaxWriteChunk + HdrBufSize
	for {
		if *held == nil {
			buf, err := fabric.PoolOf(s.node).Get(bounceLen)
			if err != nil {
				panic(err)
			}
			*held = buf
		}
		bounce := *held
		op, err := t.PostRecv(p, core.Exact(reqTag), s.bufVec(t, bounce, bounceLen))
		if err != nil {
			panic(err)
		}
		st := op.Wait(p)
		// Only the header (plus a possible packed batch) is decoded on
		// the host: requests are capped at 4096 bytes by the client, so
		// a longer message is a write whose payload stays in the bounce
		// buffer and is consumed in place. Copying all of st.Len here
		// would drag up to MaxWriteChunk through the kernel for nothing.
		w := s.getWork()
		raw := w.rawBuf[:min(st.Len, 4096)]
		if err := s.node.Kernel.ReadBytesInto(bounce.VA(), raw); err != nil {
			panic(err)
		}
		req, consumed, err := DecodeReq(raw)
		if err != nil {
			s.putWork(w)
			continue // malformed: drop, and post the same bounce again
		}
		s.Requests.Add(st.Len)
		sess := s.session(st.Src, req.EP)
		sess.Outstanding++
		sess.MaxOutstanding = max(sess.MaxOutstanding, sess.Outstanding)
		s.inside++
		w.req, w.src, w.raw, w.n, w.consumed, w.sess = req, st.Src, raw, st.Len, consumed, sess
		if req.Op == OpWrite {
			w.buf, *held = bounce, nil
		}
		return w
	}
}

// serve executes one received request and answers it.
func (s *Server) serve(p *sim.Proc, t fabric.Transport, w *work) {
	req := w.req
	s.node.CPU.VFS(p) // request dispatch
	//analyze:dispatch ops group=serve
	switch req.Op {
	case OpRead:
		resp, xs := s.readExtents(p, req)
		// Data first (zero-copy from the block store), then the header.
		// A zero-length data message is still sent so the client's
		// posted receive always completes.
		data := physVec(xs)
		if len(data) == 0 {
			data = core.Of(core.PhysSeg(s.zero.Addr(), 0))
		}
		op, err := t.Send(p, w.src, req.EP, tag(req.Seq, req.EP, kindData), data)
		if err != nil {
			if !fabric.IsFault(err) {
				panic(err)
			}
			s.putFrames(xs)
		} else if len(xs) > 0 {
			s.staged = append(s.staged, stagedSend{op: op, frames: xs})
		}
		s.reply(p, t, w.src, req, resp)
	case OpWrite:
		resp := &Resp{Seq: req.Seq, Status: StInval}
		if src, ok := s.writeSrc(p, t, w); ok {
			resp = s.handleWrite(p, req, src)
		}
		s.reply(p, t, w.src, req, resp)
	default:
		s.reply(p, t, w.src, req, s.handleMeta(p, req))
		// Trailing bytes after a metadata request are further packed
		// requests (client-side combining): answer each.
		for _, extra := range s.unpack(w.raw[w.consumed:]) {
			s.Batched.Add(1)
			w.sess.Served.Add(1)
			s.reply(p, t, w.src, extra, s.handleMeta(p, extra))
		}
	}
	w.sess.Served.Add(1)
	w.sess.Outstanding--
	s.inside--
	if w.buf != nil {
		w.buf.Release()
	}
	s.putWork(w)
}

// writeSrc locates a write's payload in w's bounce buffer — inline
// behind the request on a vectorial transport, received here as the
// request's second tagged message otherwise (it has usually already
// arrived and sits in the unexpected queue) — and applies the one
// length rule: the payload is exactly req.Len bytes and at most
// MaxWriteChunk. (That also refuses a request message truncated into
// the bounce, whose HdrBufSize of slack over MaxWriteChunk exceeds any
// request head: what is left of such a payload is still too long.) ok
// is false on a violation, which the caller answers StInval; the
// announced data message is consumed either way, so it can never
// strand in the transport's unexpected queue or be taken for a later
// request's.
func (s *Server) writeSrc(p *sim.Proc, t fabric.Transport, w *work) (src core.Vector, ok bool) {
	off, n, ok := w.consumed, w.n-w.consumed, true
	if !t.Caps().Vectors {
		op, err := t.PostRecv(p, core.Exact(tag(w.req.Seq, w.req.EP, kindData)), s.bufVec(t, w.buf, MaxWriteChunk))
		if err != nil {
			panic(err)
		}
		st := op.Wait(p)
		off, n, ok = 0, st.Len, st.Err == nil
	}
	ok = ok && n == int(w.req.Len) && n <= MaxWriteChunk
	return core.Of(core.KernelSeg(s.node.Kernel, w.buf.VA()+vm.VirtAddr(off), n)), ok
}

// unpack decodes the metadata requests packed behind the first one in
// a combined message. A decode error drops the remainder (malformed
// trailing bytes), like any other malformed request.
func (s *Server) unpack(raw []byte) []*Req {
	var out []*Req
	for len(raw) >= reqFixed {
		req, consumed, err := DecodeReq(raw)
		if err != nil || req.Op == OpRead || req.Op == OpWrite {
			break
		}
		out = append(out, req)
		raw = raw[consumed:]
	}
	return out
}

// stagedSend is one reply message on its way out and the memory the NIC
// reads it from: a header's pooled buffer, or the block-store frames
// under a read's data.
type stagedSend struct {
	op     fabric.Op
	buf    *fabric.Buffer // header staging, released when op is done
	frames []mem.Extent   // held by readExtents, put back when op is done
}

// sweepStaged gives back what completed sends were holding.
func (s *Server) sweepStaged() {
	live := s.staged[:0]
	for _, ss := range s.staged {
		if !ss.op.Done() {
			live = append(live, ss)
			continue
		}
		if ss.buf != nil {
			ss.buf.Release()
		}
		s.putFrames(ss.frames)
	}
	clear(s.staged[len(live):])
	s.staged = live
}

// reply stamps resp and sends its header to the requester. It is the
// only sender of reply headers, so every reply — error replies included
// — advertises the size epoch and layout class of the inode it
// resolved (the looked-up child when the operation returned one), which
// revalidates a cluster client's size cache and teaches it the file's
// placement, and the server's membership epoch, which poisons a client
// routing under a retired view (DESIGN.md §13).
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
func (s *Server) reply(p *sim.Proc, t fabric.Transport, dst hw.NodeID, req *Req, resp *Resp) {
	ino := resp.Attr.Ino
	if ino == 0 {
		if ino = req.Ino; ino == 0 {
			ino = s.fs.Root()
		}
	}
	resp.Epoch, resp.Layout, resp.MemberEpoch = s.epochs[ino], s.layouts[ino], s.member
	hdr, err := EncodeRespInto(s.enc[:0], resp)
	if err != nil {
		resp.Status, resp.Attr, resp.N, resp.Entries = StIO, kernel.Attr{}, 0, nil
		hdr, _ = EncodeRespInto(s.enc[:0], resp)
	}
	s.enc = hdr // scratch: the bytes are copied into staging before anything can yield
	s.sweepStaged()
	buf, err := fabric.PoolOf(s.node).Get(HdrBufSize)
	if err != nil {
		panic(err)
	}
	if err := s.node.Kernel.WriteBytes(buf.VA(), hdr); err != nil {
		panic(err)
	}
	op, err := t.Send(p, dst, req.EP, tag(req.Seq, req.EP, kindHdr), s.bufVec(t, buf, len(hdr)))
	if err != nil {
		if !fabric.IsFault(err) {
			panic(err)
		}
		buf.Release()
		return
	}
	s.staged = append(s.staged, stagedSend{op: op, buf: buf})
}
