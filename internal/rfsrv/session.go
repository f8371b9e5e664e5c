package rfsrv

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Session is the protocol client over one FabricClient endpoint: a
// sliding window of in-flight requests. At window 1 it is the paper's
// synchronous one-outstanding protocol; a wider window pipelines it.
//
// Each window slot owns its own request/reply staging buffers, so up
// to Window requests can be on the wire at once. Completion matching
// is by sequence number: every request message posts its reply-header
// receive tagged (seq, endpoint) before it leaves, so replies demux to
// the right slot no matter the order they come back in. On MX the
// per-request waits complete out of order; on GM every completion
// funnels through the port's unique event queue, so waits effectively
// drain in arrival order — the fabric adapter routes each drained
// event to its operation, making out-of-order Wait calls safe there
// too (they find their completion already delivered).
//
// A Session is used from one simulated process at a time, like the
// endpoint under it.
type Session struct {
	c   *FabricClient
	win *fabric.Window[*ctlBufs]

	// Reusable MetaBatch staging (a session serves one simulated
	// process, and a batch's requests are encoded and sent before the
	// next batch starts, so one set per session suffices).
	packScratch []byte
	batch       []flight

	// Issued/Completed count requests through the window; Batched
	// counts metadata requests that shared a fabric send (MetaBatch).
	Issued, Completed, Batched sim.Counter
}

// NewSession prepares a window of in-flight request slots over c.
// window is the number of requests that may be outstanding at once;
// window = 1 is the synchronous protocol. p may be nil when the
// transport needs no registration work (each slot's buffers are
// registered like the endpoint's own).
func NewSession(p *sim.Proc, c *FabricClient, window int) (*Session, error) {
	if window < 1 {
		return nil, fmt.Errorf("rfsrv: session window %d < 1", window)
	}
	if c.noPhys && window > 1 {
		// The stock-GM ablation stages all non-user data through the
		// client's single registered staging buffer; pipelining over it
		// would interleave stagings.
		return nil, fmt.Errorf("rfsrv: a window of %d needs the physical API (DisablePhysicalAPI client)", window)
	}
	s := &Session{c: c, win: fabric.NewWindow[*ctlBufs](c.t.Node().Cluster.Env)}
	for i := 0; i < window; i++ {
		b := new(ctlBufs)
		if err := c.newCtlBufs(p, b); err != nil {
			return nil, err
		}
		s.win.Add(b)
	}
	return s, nil
}

// Window returns the configured window size.
func (s *Session) Window() int { return s.win.Size() }

// SetRequestTimeout arms the underlying client's per-request reply
// deadline (see FabricClient.SetRequestTimeout): windowed operations
// and control-path metadata give up after d instead of hanging on a
// dead server, releasing their window slot with the posted receives
// withdrawn. 0 (the default) disables timeouts entirely.
func (s *Session) SetRequestTimeout(d sim.Time) { s.c.SetRequestTimeout(d) }

// Node implements Async: the client node.
func (s *Session) Node() *hw.Node { return s.c.t.Node() }

// InFlight returns the number of requests currently in the window.
func (s *Session) InFlight() int { return s.win.InFlight() }

// CanStart implements Async: whether one more request fits the window
// right now. A session talks to a single server, so the inode and byte
// range are irrelevant.
func (s *Session) CanStart(ino kernel.InodeID, off int64, n int) bool { return s.win.HasRoom() }

// MaxInFlight returns the high-water mark of concurrently outstanding
// requests (tests use it to verify backpressure).
func (s *Session) MaxInFlight() int { return s.win.MaxInFlight() }

// Pending is one in-flight request: a flight on a window slot. Wait
// retires it; requests of one session may be waited in any order.
type Pending struct {
	s  *Session
	fl flight

	done bool
	resp *Resp
	err  error
}

// Issued returns the virtual time the request entered the window
// (latency accounting for the cluster figures).
func (pd *Pending) Issued() sim.Time { return pd.fl.issued }

// launch issues req through window slot b (FabricClient.issue), giving
// the slot back when the request never left. A Start* caller keeps the
// Pending (memoized result, Issued) past Wait, so it gets a fresh one;
// a synchronous verb's dies inside the call, before the slot can be
// handed out again, and a Cluster part waits its own once and keeps
// what it needs, so theirs lives in the slot.
func (s *Session) launch(p *sim.Proc, b *ctlBufs, req *Req, data core.Vector, kept bool) (*Pending, error) {
	fl, err := s.c.issue(p, b, req, data)
	if err != nil {
		s.win.Release(b)
		return nil, err
	}
	s.Issued.Add(1)
	pd := &b.pd
	if kept {
		pd = new(Pending)
	}
	*pd = Pending{s: s, fl: fl}
	return pd, nil
}

// StartMeta issues a metadata request through the window, blocking
// only while the window is full.
func (s *Session) StartMeta(p *sim.Proc, req *Req) (PendingOp, error) {
	pd, err := s.startMeta(p, req, true)
	if err != nil {
		return nil, err
	}
	return pd, nil
}

func (s *Session) startMeta(p *sim.Proc, req *Req, kept bool) (*Pending, error) {
	if err := validateMeta(req); err != nil {
		return nil, err
	}
	return s.launch(p, s.win.Acquire(p), req, nil, kept)
}

// StartRead issues a read through the window; data lands directly in
// dst wherever the transport allows it.
func (s *Session) StartRead(p *sim.Proc, ino kernel.InodeID, off int64, dst core.Vector) (PendingOp, error) {
	pd, err := s.startData(p, OpRead, ino, off, dst, true)
	if err != nil {
		return nil, err
	}
	return pd, nil
}

// StartWrite issues one write request through the window. src must not
// exceed MaxWriteChunk (one protocol request); Write chunks larger
// transfers across the window.
func (s *Session) StartWrite(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (PendingOp, error) {
	pd, err := s.startData(p, OpWrite, ino, off, src, true)
	if err != nil {
		return nil, err
	}
	return pd, nil
}

// startData issues one read or write of data's length at off. The
// request struct stages in the slot (encoded before this call
// returns), so the issue path allocates nothing but a kept Pending.
func (s *Session) startData(p *sim.Proc, op Op, ino kernel.InodeID, off int64, data core.Vector, kept bool) (*Pending, error) {
	if off < 0 {
		return nil, ErrInval
	}
	n := data.TotalLen()
	if op == OpWrite && n > MaxWriteChunk {
		return nil, fmt.Errorf("rfsrv: StartWrite of %d bytes exceeds one %d-byte request", n, MaxWriteChunk)
	}
	b := s.win.Acquire(p)
	b.req = Req{Op: op, Ino: ino, Off: off, Len: uint32(n)}
	return s.launch(p, b, &b.req, data, kept)
}

// Wait retires the request (FabricClient.retire) and returns its slot
// to the window; waiting twice returns the memoized result. Under an
// armed request timeout the slot still comes back with all its staging
// quiescent.
func (pd *Pending) Wait(p *sim.Proc) (*Resp, error) {
	if pd.done {
		return pd.resp, pd.err
	}
	pd.resp, pd.err = pd.s.retire(p, &pd.fl)
	pd.done = true
	return pd.resp, pd.err
}

// retire retires a flight on one of the window's slots and gives the
// slot back.
func (s *Session) retire(p *sim.Proc, fl *flight) (*Resp, error) {
	resp, err := s.c.retireOne(p, fl)
	s.Completed.Add(1)
	s.win.Release(fl.bufs)
	return resp, err
}

// ---- the synchronous Client interface: issue and wait, back to back ----
//
// At window 1 this is the paper's synchronous protocol (§4.2, §5.2),
// and the only implementation of it.

// Meta implements Client.
//
// allocfree
func (s *Session) Meta(p *sim.Proc, req *Req) (*Resp, error) {
	pd, err := s.startMeta(p, req, false)
	if err != nil {
		//analyze:allow allocfree error path
		return &Resp{Status: StatusOf(err)}, err
	}
	return pd.Wait(p)
}

// Read implements Client: one request, whatever its length.
//
// allocfree
func (s *Session) Read(p *sim.Proc, ino kernel.InodeID, off int64, dst core.Vector) (*Resp, error) {
	return s.syncData(p, OpRead, ino, off, dst)
}

// Write implements Client: one request up to MaxWriteChunk, per-chunk
// requests pipelined through the window above it (at window 1: one
// round trip per chunk).
//
// allocfree
func (s *Session) Write(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (*Resp, error) {
	if src.TotalLen() > MaxWriteChunk {
		return s.writeChunked(p, ino, off, src)
	}
	return s.syncData(p, OpWrite, ino, off, src)
}

// allocfree
func (s *Session) syncData(p *sim.Proc, op Op, ino kernel.InodeID, off int64, data core.Vector) (*Resp, error) {
	pd, err := s.startData(p, op, ino, off, data, false)
	if err != nil {
		//analyze:allow allocfree error path
		return &Resp{Status: StatusOf(err)}, err
	}
	return pd.Wait(p)
}

func (s *Session) writeChunked(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (*Resp, error) {
	total := src.TotalLen()
	type chunk struct {
		pd   *Pending
		want int
	}
	written := 0
	var last *Resp
	pl := fabric.NewPipeline(func(p *sim.Proc, c chunk, failed bool) error {
		resp, err := c.pd.Wait(p)
		if err != nil || failed {
			return err
		}
		// Chunks were issued at fixed offsets, so a partial chunk
		// leaves a hole before the chunks already sent after it:
		// anything short is an error.
		if int(resp.N) != c.want {
			return fmt.Errorf("rfsrv: short write (%d of %d) at %d", resp.N, c.want, written)
		}
		written += int(resp.N)
		last = resp
		return nil
	})
	room := func() bool { return pl.Len() < s.win.Size() }
	for issued := 0; issued < total && pl.Room(p, room) == nil; {
		n := min(total-issued, MaxWriteChunk)
		pd, err := s.startData(p, OpWrite, ino, off+int64(issued), src.Slice(issued, n), true)
		if err != nil {
			pl.Fail(err)
			break
		}
		pl.Push(chunk{pd, n})
		issued += n
	}
	if err := pl.Drain(p); err != nil {
		return last, err
	}
	last.N = uint32(written)
	return last, nil
}

// MetaBatch issues several metadata requests in ONE fabric send — the
// client-side analogue of the paper's §3.3 request combining: the
// encoded requests travel back to back in a single message, and the
// server answers them all, each under its own sequence number, in a
// single reply into the one header receive the batch posted up front
// (answerFits). Batches larger than the window (or the request buffer)
// are split transparently, and so is one whose reply ends early under
// the combined-reply rule: the next batch starts at the first request
// it left unanswered. Read- and write-shaped operations cannot be
// batched.
func (s *Session) MetaBatch(p *sim.Proc, reqs []*Req) ([]*Resp, error) {
	// Validate everything before acquiring any window slot, so a bad
	// request cannot abandon slots already holding posted receives.
	if err := validateBatch(reqs); err != nil {
		return nil, err
	}
	resps := make([]*Resp, 0, len(reqs))
	for start := 0; start < len(reqs); {
		fls, err := s.startBatch(p, reqs, start)
		if err != nil {
			return resps, err
		}
		at := len(resps)
		if resps, err = s.retireBatch(p, fls, resps); err != nil {
			return resps, err
		}
		start += len(resps) - at
	}
	return resps, nil
}

// validateMeta is the check every metadata entry point makes before
// anything is posted: a valid request, and not one whose data would
// travel beside it — the server stops unpacking a batch at such an op,
// so the requests behind it would never be answered.
func validateMeta(r *Req) error {
	if readShaped(r.Op) || writeShaped(r.Op) {
		return ErrInval
	}
	return ValidateReq(r)
}

// validateBatch is MetaBatch's up-front request check, shared with the
// cluster's cross-server batching.
func validateBatch(reqs []*Req) error {
	for _, r := range reqs {
		if err := validateMeta(r); err != nil {
			return err
		}
	}
	return nil
}

// startBatch packs reqs[start:] — up to window requests whose encodings
// fit the 4 KB request buffer — into one combined fabric send. Each
// request holds a window slot of its own, as a flight; the first flight
// carries the send and the batch's one reply-header receive, posted
// before the message leaves, and the others post nothing. It returns the
// flights, the first slot holding the batch's requests (ctlBufs.batch).
// Requests must be pre-validated (validateBatch); each req's
// Seq/EP is stamped and its bytes fully encoded before return, so
// callers may reuse the same *Req values in a later batch. A session has
// at most ONE batch outstanding — its flights and encoding are session
// scratch — so the previous batch must be retired first; cross-server
// parallelism comes from batches on different sessions
// (Cluster.runShares starts one per server, then retires them all).
func (s *Session) startBatch(p *sim.Proc, reqs []*Req, start int) ([]flight, error) {
	fls, packed := s.batch[:0], s.packScratch[:0]
	// abort returns every slot of the aborted batch, withdrawing its
	// posted header receive first (tagged with a sequence number that
	// was never sent, so cancellation cannot race a delivery).
	abort := func(err error) ([]flight, error) {
		if fls[0].hdrOp != nil {
			fabric.Cancel(p, fls[0].hdrOp)
			drop(fls[0].hdrOp)
		}
		for _, fl := range fls {
			s.win.Release(fl.bufs)
		}
		s.batch, s.packScratch = fls[:0], packed[:0]
		return nil, err
	}
	for end := start; end < len(reqs) && end-start < s.win.Size(); end++ {
		r := reqs[end]
		s.c.seq++
		r.Seq, r.EP = s.c.seq, s.c.myEP
		pre := len(packed)
		packed = EncodeReqInto(packed, r)
		if len(packed) > reqBufSize && end > start {
			packed = packed[:pre]
			s.c.seq-- // undo; goes in the next batch
			break
		}
		fls = append(fls, flight{bufs: s.win.Acquire(p), seq: r.Seq})
	}
	lead := &fls[0]
	var err error
	if lead.hdrOp, err = s.c.postHdr(p, lead.bufs, lead.seq); err != nil {
		return abort(err)
	}
	// The packed message stages through the first slot's request
	// buffer and is matched by the server like any other request.
	if lead.sent, err = s.c.sendEnc(p, lead.bufs, packed, nil); err != nil {
		return abort(err)
	}
	lead.bufs.batch = reqs[start : start+len(fls)]
	s.batch, s.packScratch = fls, packed[:0]
	s.Issued.Add(len(fls))
	if len(fls) > 1 {
		s.Batched.Add(len(fls) - 1)
	}
	for i := range fls {
		fls[i].issued = p.Now()
	}
	return fls, nil
}

// retireBatch retires a batch: its first flight's reply, whose answers
// it appends to out (FabricClient.retire) — every request's, or a prefix
// the combined-reply rule ended early — and then every slot, back to the
// window. The error is the first answer's failing status, or the reply's
// own failure, when no answer is appended.
func (s *Session) retireBatch(p *sim.Proc, fls []flight, out []*Resp) ([]*Resp, error) {
	out, err := s.c.retire(p, &fls[0], out)
	for _, fl := range fls {
		s.win.Release(fl.bufs)
	}
	s.Completed.Add(len(fls))
	return out, err
}

// Rename implements Client over one server: a single OpRenameLocal
// applied by the backing store (both directories are local by
// definition).
func (s *Session) Rename(p *sim.Proc, srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) (*Resp, error) {
	return s.Meta(p, &Req{
		Op: OpRenameLocal, Ino: srcDir, Off: int64(dstDir),
		Name: PackRenameNames(srcName, dstName),
	})
}

// SetFileSize implements Async: one server's size is always current,
// so there is nothing to reconcile.
func (s *Session) SetFileSize(p *sim.Proc, ino kernel.InodeID, size int64) error {
	if size < 0 {
		return ErrInval
	}
	return nil
}
