package rfsrv

import (
	"fmt"

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

// FabricClient is the protocol's transport endpoint, written once
// against the unified fabric: it puts one request on the wire from a
// slot of staging buffers (issue) and completes it (retire). It is not
// a client — Session is, over one endpoint, and Cluster over several —
// but it owns one slot of its own, the control path, which the cluster
// uses for metadata and repair traffic that must not wait for a window
// slot. What the paper describes as two parallel implementations (one
// over MX, one over GM) is a handful of capability branches here, and
// the asymmetry the paper measures reads off the Caps directly. One
// rule holds on both: a kernel-side client hands the transport kernel
// memory by physical address — its internal buffers always, resolved
// once, and the caller's kernel memory whenever eager messages carry it
// (physData): one, or for data one eager message cannot carry, one per
// piece (pieces) — so the NIC moves it by DMA and MX's medium messages
// pay no bounce copy on either side (§4.1, §5.1).
//
//   - On a vectorial transport (MX) the request and its write data ride
//     in one message while it stays eager, and a larger payload follows
//     it; read data lands straight in the caller's vector. Kernel memory
//     one eager message cannot carry travels in eager pieces — a read's
//     into receives posted before the request left, a write's into
//     receives the server posts as it admits the header — and user
//     memory in one rendezvous MX pins itself; waits are per-request.
//   - On a non-vectorial registering transport (GM) header and data
//     travel as separate messages, internal buffers are registered once
//     on the user side, per-transfer user buffers go through the
//     transport's registration cache, and completions funnel through
//     the unique event queue inside the adapter.
//
// The DisablePhysicalAPI ablation (stock GM, no §3.3 physical
// primitives) bounces non-user data through a registered staging
// buffer with a host copy each way.
type FabricClient struct {
	t        fabric.Transport
	as       *vm.AddressSpace
	kernSide bool
	server   hw.NodeID
	serverEP uint8
	myEP     uint8

	ctl  ctlBufs // the control path's request/reply buffers (under lock)
	seq  uint64
	lock *sim.Resource

	// timeout is the per-request reply deadline; 0 (the default) waits
	// forever, keeping fault-free timing bit-identical. See
	// SetRequestTimeout.
	timeout sim.Time

	// noPhys simulates a transport without the paper's §3.3 physical
	// extension (stock GM): internal buffers are registered virtual,
	// and non-user data bounces through a registered staging region.
	noPhys    bool
	stagingVA vm.VirtAddr

	// encScratch and hdrScratch are the per-request encode and decode
	// staging slices. A client runs on one simulated process and each
	// is dead again by the time its using call returns (encodings are
	// copied into the wire buffer before any yield; decoded replies
	// copy what they keep), so one of each per client removes the
	// per-request allocation without changing any ordering.
	encScratch []byte
	hdrScratch []byte
}

// ctlBufs is one set of request/reply-header staging buffers. The
// endpoint owns a single set for the control path; a Session owns one
// per window slot, so several requests can be on the wire without
// sharing staging memory. The embedded req is the slot's request-struct
// staging: issue paths build their request in place instead of
// allocating one per operation (it is fully encoded before the issue
// call returns, so slot reuse cannot alias an in-flight request). pd is
// the Pending of a synchronous Session verb (Session.launch). reqVec
// and hdrVec are the slot's descriptions of its two buffers as last
// sent and posted, and dataVec of the caller's memory a read's data
// lands in or a separate payload leaves from (physData) — followed,
// for data that travels in pieces, by each piece's share of it
// (pieceOps); pieces holds the data receives of the slot's request,
// one per piece of a read (postData) and none for any other; retire,
// or an issue that fails, empties it once they are inert. sends holds
// the sends of a separate payload before its last (flight.paid), which
// complete before it, and one the client does not wait for (sendData),
// until retire releases them (drop). batch holds
// the requests of a combined message the slot sent (Session.startBatch),
// whose one reply answers them all, until retire; nil for one request.
// answers is where retire decodes the slot's reply: records its caller
// copies what it keeps out of before the slot is handed on.
// Each is rebuilt in place: a slot is reused only once its request is
// retired, when none is still in use (retire, settle).
type ctlBufs struct {
	reqVA, hdrVA            vm.VirtAddr
	reqXS, hdrXS            []mem.Extent // kernel side, physical transports: resolved once
	reqVec, hdrVec, dataVec core.Vector
	pieces, sends           []fabric.Op
	batch                   []*Req
	answers                 []Resp
	req                     Req
	pd                      Pending
}

// NewFabricClient prepares a protocol endpoint over any fabric
// transport. The endpoint's internal request/reply buffers live in
// bufAS: the kernel space for ORFS-style kernel clients, the process
// space for ORFA. p may be nil when the transport needs no
// registration work at setup.
func NewFabricClient(p *sim.Proc, t fabric.Transport, kernelSide bool, bufAS *vm.AddressSpace, server hw.NodeID, serverEP, myEP uint8) (*FabricClient, error) {
	if t.Caps().Stream {
		// The protocol needs tagged messages (replies are matched by
		// sequence number); a byte stream would deadlock in postHdr.
		return nil, fmt.Errorf("rfsrv: client needs a message transport, not a stream")
	}
	node := t.Node()
	c := &FabricClient{
		t: t, as: bufAS, kernSide: kernelSide,
		server: server, serverEP: serverEP, myEP: myEP,
		lock: sim.NewResource(node.Cluster.Env, "rfsrv-client-lock", 1),
	}
	if err := c.newCtlBufs(p, &c.ctl); err != nil {
		return nil, err
	}
	return c, nil
}

// newCtlBufs allocates (and, per the transport's capabilities,
// resolves or registers) one set of control buffers. Called once for
// the control path and once per Session window slot.
func (c *FabricClient) newCtlBufs(p *sim.Proc, b *ctlBufs) error {
	alloc := c.as.Mmap
	if c.kernSide {
		alloc = c.as.MmapContig
	}
	var err error
	if b.reqVA, err = alloc(reqBufSize, "rfsrv-req"); err != nil {
		return err
	}
	if b.hdrVA, err = alloc(HdrBufSize, "rfsrv-hdr"); err != nil {
		return err
	}
	if c.physCtl() {
		// Kernel side on a physical-capable transport: address the
		// internal buffers physically, no registration at all (the §3.3
		// extension at work).
		b.reqXS, _ = c.as.Resolve(b.reqVA, reqBufSize)
		b.hdrXS, _ = c.as.Resolve(b.hdrVA, HdrBufSize)
	} else if c.t.Caps().NeedsReg {
		// User side of a registering transport: the library registers
		// its own buffers once at startup (the amortized case
		// registration is designed for).
		if err := c.t.Register(p, c.as, b.reqVA, reqBufSize); err != nil {
			return err
		}
		if err := c.t.Register(p, c.as, b.hdrVA, HdrBufSize); err != nil {
			return err
		}
	}
	return nil
}

// NewMXClient opens MX endpoint epID (kernel or user per kernelSide)
// and prepares a fabric client over it.
func NewMXClient(m *mx.MX, epID uint8, kernelSide bool, bufAS *vm.AddressSpace, server hw.NodeID, serverEP uint8) (*FabricClient, error) {
	t, err := fabric.NewMX(m, epID, kernelSide)
	if err != nil {
		return nil, err
	}
	return NewFabricClient(nil, t, kernelSide, bufAS, server, serverEP, epID)
}

// NewGMClient opens GM port portID and prepares a fabric client over
// it. cachePages sizes the registration cache; 0 disables caching
// (every user-buffer transfer pays register+deregister).
func NewGMClient(p *sim.Proc, g *gm.GM, portID uint8, kernelSide bool, bufAS *vm.AddressSpace, server hw.NodeID, serverPort uint8, cachePages int) (*FabricClient, error) {
	t, err := fabric.NewGM(g, portID, kernelSide, fabric.WithCachePages(cachePages))
	if err != nil {
		return nil, err
	}
	return NewFabricClient(p, t, kernelSide, bufAS, server, serverPort, portID)
}

// Transport returns the underlying fabric transport (stats).
func (c *FabricClient) Transport() fabric.Transport { return c.t }

// SetRequestTimeout arms a per-request reply deadline of d (0 disables,
// the default): any wait for a reply header or read data gives up after
// d, withdraws its posted receive so the staging buffer is quiescent,
// and reports an error satisfying fabric.IsFault; a send still reading
// the slot or the caller's memory by then is waited for at most one more
// d first (settle). Without a deadline a request to a server that dies
// after accepting it would hang its completion forever. Timeouts are strictly opt-in — an unarmed client
// schedules no timers, so fault-free runs stay bit-identical.
func (c *FabricClient) SetRequestTimeout(d sim.Time) { c.timeout = d }

// deadlineFrom converts a request's issue time into the wait budget
// remaining under the armed timeout: 0 when no timeout is armed
// (= wait forever), a floor of 1ns when the deadline already passed
// (= check for a raced-in completion, then cancel). Deadlines run from
// ISSUE, not from whenever Wait happens — several already-doomed
// requests retired back to back must expire together, not serialize a
// fresh timeout each.
func (c *FabricClient) deadlineFrom(p *sim.Proc, issued sim.Time) sim.Time {
	if c.timeout <= 0 {
		return 0
	}
	left := issued + c.timeout - p.Now()
	if left <= 0 {
		return 1
	}
	return left
}

// waitData waits a completion for at most d (0 = forever): on expiry
// the posted receive is withdrawn — or, if it matched while the timer
// ran, waited to completion normally. ok is false only when the
// operation was withdrawn, i.e. the buffer is quiescent and nothing
// ever landed. Either way op is done, and the caller's to release.
func (c *FabricClient) waitData(p *sim.Proc, op fabric.Op, d sim.Time) (st fabric.Status, ok bool) {
	st, ok = fabric.WaitTimeout(p, op, d)
	if ok || fabric.Cancel(p, op) {
		return st, ok
	}
	//analyze:allow boundedwait the receive already matched (Cancel refused): its completion is under way
	return op.Wait(p), true
}

// quiesceHdr makes fl's reply-header receive inert without waiting a
// timeout again: withdrawn if still unmatched, consumed if the reply
// raced in. Used after a data-phase fault, when the header is presumed
// lost with the peer.
func (c *FabricClient) quiesceHdr(p *sim.Proc, fl *flight) {
	if !fabric.Cancel(p, fl.hdrOp) {
		c.finish(p, fl, 0, nil) // matched: drain it (result discarded)
	}
}

// physCtl reports whether the client hands the transport kernel memory
// by physical address: on the kernel side of every physical-capable
// transport, unless DisablePhysicalAPI took the §3.3 primitives away.
func (c *FabricClient) physCtl() bool {
	return c.kernSide && c.t.Caps().Physical && !c.noPhys
}

// DisablePhysicalAPI switches the client to stock behaviour for
// transports whose kernel interface would otherwise use the paper's
// §3.3 physical-address primitives: internal buffers are registered
// instead, and all non-user data bounces through a registered staging
// buffer with a host copy on each transfer. Kernel-side clients on
// non-vectorial transports only, before NewSession (whose slots are
// then registered too) and at window 1 (one staging buffer).
func (c *FabricClient) DisablePhysicalAPI(p *sim.Proc) error {
	if !c.kernSide {
		return fmt.Errorf("rfsrv: DisablePhysicalAPI applies to kernel-side clients")
	}
	if c.t.Caps().Vectors {
		return fmt.Errorf("rfsrv: DisablePhysicalAPI applies to non-vectorial (GM-style) transports")
	}
	if c.noPhys {
		return nil
	}
	var err error
	if c.stagingVA, err = c.as.MmapContig(MaxWriteChunk, "rfsrv-staging"); err != nil {
		return err
	}
	// Stock GM: register everything the driver will touch.
	if err := c.t.Register(p, c.as, c.stagingVA, MaxWriteChunk); err != nil {
		return err
	}
	if err := c.t.Register(p, c.as, c.ctl.reqVA, reqBufSize); err != nil {
		return err
	}
	if err := c.t.Register(p, c.as, c.ctl.hdrVA, HdrBufSize); err != nil {
		return err
	}
	c.noPhys = true
	c.ctl.reqXS, c.ctl.hdrXS = nil, nil
	return nil
}

// seg builds an address-typed segment over the client's own buffers.
func (c *FabricClient) seg(va vm.VirtAddr, n int) core.Segment {
	if c.kernSide {
		return core.KernelSeg(c.as, va, n)
	}
	return core.UserSeg(c.as, va, n)
}

// bufVec appends to dst the first n bytes of one of the client's own
// buffers (at va, its extents xs resolved once): by physical address
// when physCtl — no registration, the §3.3 extension at work — and by
// its virtual segment otherwise.
func (c *FabricClient) bufVec(dst core.Vector, va vm.VirtAddr, xs []mem.Extent, n int) core.Vector {
	if !c.physCtl() {
		return append(dst, c.seg(va, n))
	}
	for i := 0; n > 0 && i < len(xs); i++ {
		l := min(xs[i].Len, n)
		dst = append(dst, core.PhysSeg(xs[i].Addr, l))
		n -= l
	}
	return dst
}

// physData appends the caller's memory v to dst — by physical address
// (phys) when the client hands kernel memory over physically (physCtl),
// v holds no user memory (that stays the transport's to pin) and msgs
// eager messages carry it (at most msgs × Caps.EagerMax bytes, when the
// transport has an eager limit; msgs is 1 but for data that travels in
// pieces, askPieces), and as it is otherwise. Kernel virtual
// segments are translated page by page. Above its eager limit a
// transport translates kernel memory itself — MX's rendezvous charges a
// kernel pin per page (mx.resolve) — so below it the client charges the
// same; GM, with no eager limit, has always been handed kernel memory
// translated, at no charge.
//
// allocfree
func (c *FabricClient) physData(p *sim.Proc, dst, v core.Vector, msgs int) (out core.Vector, phys bool, err error) {
	eagerMax := c.t.Caps().EagerMax
	if !c.physCtl() || hasUserSeg(v) || eagerMax > 0 && v.TotalLen() > msgs*eagerMax {
		return append(dst, v...), false, nil
	}
	if err := v.Validate(); err != nil {
		return dst, false, err
	}
	out, pages := dst, 0
	for _, s := range v {
		if s.Type == core.Physical {
			out = appendPhys(out, s.PA, s.Len)
			continue
		}
		pages += s.Pages()
		for va, left := s.VA, s.Len; left > 0; {
			pa, err := s.AS.Translate(va)
			if err != nil {
				return dst, false, err
			}
			l := min(vm.PageSize-va.Offset(), left)
			out = appendPhys(out, pa, l)
			va, left = va+vm.VirtAddr(l), left-l
		}
	}
	if pages > 0 && eagerMax > 0 {
		c.t.Node().CPU.Pin(p, pages, true)
	}
	return out, true, nil
}

// appendPhys appends n bytes at pa to a physical vector, extending its
// last segment when they continue it.
//
// allocfree
func appendPhys(v core.Vector, pa mem.PhysAddr, n int) core.Vector {
	if n == 0 {
		return v
	}
	if k := len(v) - 1; k >= 0 && v[k].PA+mem.PhysAddr(v[k].Len) == pa {
		v[k].Len += n
		return v
	}
	return append(v, core.PhysSeg(pa, n))
}

// postHdr posts the reply-header receive for seq into b's header
// buffer.
func (c *FabricClient) postHdr(p *sim.Proc, b *ctlBufs, seq uint64) (fabric.Op, error) {
	b.hdrVec = c.bufVec(b.hdrVec[:0], b.hdrVA, b.hdrXS, HdrBufSize)
	return c.t.PostRecv(p, core.Exact(tag(seq, c.myEP, kindHdr)), b.hdrVec)
}

// sendEnc transmits pre-encoded request bytes from b's request buffer,
// an inline payload's segments (extra) riding behind them, and returns
// the send: the NIC may gather the message from b and extra until it is
// Done (settle).
func (c *FabricClient) sendEnc(p *sim.Proc, b *ctlBufs, enc []byte, extra core.Vector) (fabric.Op, error) {
	if err := c.as.WriteBytes(b.reqVA, enc); err != nil {
		return nil, err
	}
	var err error
	if b.reqVec, _, err = c.physData(p, c.bufVec(b.reqVec[:0], b.reqVA, b.reqXS, len(enc)), extra, 1); err != nil {
		return nil, err
	}
	return c.t.Send(p, c.server, c.serverEP, reqTag, b.reqVec)
}

// sendReq encodes and transmits a request. The encoding stages through
// the client's scratch slice: sendEnc copies it into the wire buffer
// before anything can yield, so the scratch is free again on return.
func (c *FabricClient) sendReq(p *sim.Proc, b *ctlBufs, req *Req, extra core.Vector) (fabric.Op, error) {
	c.encScratch = EncodeReqInto(c.encScratch[:0], req)
	return c.sendEnc(p, b, c.encScratch, extra)
}

// askPieces is the client half of the piece rule: the number of
// messages req's data v travels in (pieces) — several only for memory
// physData hands over physically — with req marked (piecesBit) when
// there are several. issue strips the mark again once req is encoded,
// so a request built anew from the same Req asks afresh.
//
// allocfree
func (c *FabricClient) askPieces(req *Req, v core.Vector) int {
	k := 1
	if c.physCtl() && !hasUserSeg(v) {
		if k = pieces(req.Op, c.t.Caps().EagerMax, int(req.Len)); k > 1 {
			req.Len |= piecesBit
		}
	}
	return k
}

// pieceOps puts the k pieces of v on the wire in order, each cut into
// b.dataVec behind v (cutPiece): a receive posted into each (recv),
// collected in b.pieces, or a send of each, tagged tg. It stops at the
// first error and returns the last send made, which completes after the
// others — one NIC sends to one peer in order — collecting the ones
// before it in b.sends.
func (c *FabricClient) pieceOps(p *sim.Proc, b *ctlBufs, v core.Vector, k int, tg uint64, recv bool) (last fabric.Op, err error) {
	for i := 0; i < k; i++ {
		piece := cutPiece(&b.dataVec, v, i, k, c.t.Caps().EagerMax)
		var op fabric.Op
		if recv {
			op, err = c.t.PostRecv(p, core.Exact(tg), piece)
		} else {
			op, err = c.t.Send(p, c.server, c.serverEP, tg, piece)
		}
		if err != nil {
			return last, err
		}
		switch {
		case recv:
			b.pieces = append(b.pieces, op)
		case last != nil:
			b.sends = append(b.sends, last)
		}
		last = op
	}
	return last, nil
}

// postData posts the read-data receives for req's dst into b.pieces,
// returning a release closure for acquired (cache-managed) user memory
// and — on the staged (noPhys) path — a fixup to run once the data
// length is known. The capability branches here are the paper's
// §5.2 comparison in a few lines: kernel memory goes physical wherever
// physData takes it (its description kept in b), and an OpRead of it
// that the piece rule splits asks for its data in that many eager
// messages (askPieces), each landing in its own receive, posted in
// order; past that, vectorial transports take dst as-is, and
// non-vectorial ones can receive into a single registered user
// segment, nothing else.
func (c *FabricClient) postData(p *sim.Proc, b *ctlBufs, req *Req, dst core.Vector) (release func(), fixup func(p *sim.Proc, n int), err error) {
	if err := dst.Validate(); err != nil {
		return nil, nil, err
	}
	dataTag := tag(req.Seq, c.myEP, kindData)
	k := c.askPieces(req, dst)
	v, phys, err := c.physData(p, b.dataVec[:0], dst, k)
	if err != nil {
		return nil, nil, err
	}
	if b.dataVec = v; phys || c.t.Caps().Vectors {
		_, err := c.pieceOps(p, b, v, k, dataTag, true)
		return nil, nil, err // on error, issue withdraws the pieces already posted
	}
	xs, release, err := c.stockData(p, dst)
	if err != nil {
		return nil, nil, err
	}
	if release != nil {
		op, err := c.t.PostRecv(p, core.Exact(dataTag), dst)
		if err != nil {
			release()
			return nil, nil, err
		}
		b.pieces = append(b.pieces, op)
		return release, nil, nil
	}
	// Stock GM (noPhys): receive into the registered staging buffer and
	// copy to the real destination afterwards (the extra copy the
	// physical primitives eliminate).
	op, err := c.t.PostRecv(p, core.Exact(dataTag), core.Of(c.seg(c.stagingVA, max(dst.TotalLen(), 1))))
	if err != nil {
		return nil, nil, err
	}
	b.pieces = append(b.pieces, op)
	node := c.t.Node()
	fixup = func(p *sim.Proc, got int) {
		if got == 0 {
			return
		}
		raw, err := c.as.ReadBytes(c.stagingVA, got)
		if err != nil {
			panic(err)
		}
		node.CPU.Copy(p, got)
		node.Mem.Scatter(xs, raw)
	}
	return nil, fixup, nil
}

// stockData readies the caller's memory v for one transfer on a
// non-vectorial transport: user memory as a single registered segment,
// acquired through the transport's registration cache (release gives it
// back), and anything else — the DisablePhysicalAPI ablation — as the
// extents it is copied to or from through the registered staging buffer.
func (c *FabricClient) stockData(p *sim.Proc, v core.Vector) (xs []mem.Extent, release func(), err error) {
	switch {
	case hasUserSeg(v) && len(v) != 1:
		return nil, nil, fmt.Errorf("rfsrv: cannot move a %d-segment vector (no vectorial primitives)", len(v))
	case hasUserSeg(v):
		release, err = c.t.Acquire(p, v)
		return nil, release, err
	case !c.kernSide:
		return nil, nil, fmt.Errorf("rfsrv: user port cannot address kernel/physical memory on this transport")
	case v.TotalLen() > MaxWriteChunk:
		return nil, nil, fmt.Errorf("rfsrv: staging %d bytes exceeds the staging buffer", v.TotalLen())
	}
	xs, err = v.Extents()
	return xs, nil, err
}

// sendData transmits a write's payload after its request, tagged with
// this node (payloadTag), when inlinePayload says it does not ride in
// the request: in the k messages askPieces granted. Kernel memory goes
// physical wherever physData takes it (described in b), in eager
// messages each zero-copy from the caller's memory; past that, a
// vectorial transport sends src as it is — a rendezvous, or user memory
// MX pins or copies itself — and a non-vectorial one can send a single
// registered user segment, nothing else. It returns a release closure
// for acquired user memory and the last send when the sends gather from
// src at DMA time (settle) — on an error too, for the pieces that left
// — and nil when they do not: MX copies user memory, and a rendezvous's
// memory stays MX's to translate and pin.
func (c *FabricClient) sendData(p *sim.Proc, b *ctlBufs, seq uint64, src core.Vector, k int) (func(), fabric.Op, error) {
	dataTag := payloadTag(c.t.Node().ID, seq, c.myEP)
	v, phys, err := c.physData(p, b.dataVec[:0], src, k)
	if err != nil {
		return nil, nil, err
	}
	if b.dataVec = v; phys {
		op, err := c.pieceOps(p, b, v, k, dataTag, false)
		return nil, op, err
	}
	if c.t.Caps().Vectors {
		op, err := c.t.Send(p, c.server, c.serverEP, dataTag, src)
		if err == nil {
			b.sends = append(b.sends, op)
		}
		return nil, nil, err
	}
	xs, release, err := c.stockData(p, src)
	if err != nil {
		return nil, nil, err
	}
	if release != nil {
		op, err := c.t.Send(p, c.server, c.serverEP, dataTag, src)
		if err != nil {
			release()
			return nil, nil, err
		}
		return release, op, nil
	}
	// Stock GM (noPhys): stage through the registered buffer. The
	// ablation keeps its owned staging copy (Gather), sampled before the
	// charge.
	n := mem.TotalLen(xs)
	node := c.t.Node()
	data := node.Mem.Gather(xs)
	node.CPU.Copy(p, n)
	if err := c.as.WriteBytes(c.stagingVA, data); err != nil {
		return nil, nil, err
	}
	op, err := c.t.Send(p, c.server, c.serverEP, dataTag, core.Of(c.seg(c.stagingVA, n)))
	return nil, op, err
}

// finish waits for fl's reply (at most d; 0 = forever) and decodes its
// answers from the header buffer, appending them to out by value: one per
// request fl's message carried (ctlBufs.batch), in order, each under
// its own sequence number (fl.seq, fl.seq+1, …). A combined reply may
// end early only where the combined-reply rule lets the server stop
// (endsEarly); a reply that carries no answer, more answers than
// requests, or stops anywhere else, or an answer under the wrong
// sequence number, is an error and appends nothing. The error otherwise
// is the first answer's status that is not StOK. On expiry the posted
// receive is withdrawn (so the slot's buffer can be reused) and the
// error satisfies fabric.IsFault.
func (c *FabricClient) finish(p *sim.Proc, fl *flight, d sim.Time, out []Resp) ([]Resp, error) {
	st, ok := c.waitData(p, fl.hdrOp, d)
	if !ok {
		return out, fmt.Errorf("rfsrv: reply for request %d: %w", fl.seq, fabric.ErrTimeout)
	}
	if st.Err != nil {
		return out, st.Err
	}
	if cap(c.hdrScratch) < st.Len {
		c.hdrScratch = make([]byte, HdrBufSize)
	}
	raw := c.hdrScratch[:st.Len]
	if err := c.as.ReadBytesInto(fl.bufs.hdrVA, raw); err != nil {
		return out, err
	}
	// decodeAnswers copies everything it keeps (names become fresh
	// strings), so the scratch is free for the next reply.
	at := len(out)
	out, err := decodeAnswers(raw, out)
	if err != nil {
		return out[:at], err
	}
	batch := fl.bufs.batch
	got, want := out[at:], max(len(batch), 1)
	if len(got) == 0 || len(got) > want || len(got) < want && !endsEarly(batch[len(got)].Op, len(raw)) {
		return out[:at], fmt.Errorf("rfsrv: reply for request %d carries %d answers for %d requests", fl.seq, len(got), want)
	}
	for i := range got {
		if r := &got[i]; r.Seq != fl.seq+uint64(i) {
			return out[:at], fmt.Errorf("rfsrv: answer %d for seq %d, want %d", i, r.Seq, fl.seq+uint64(i))
		}
	}
	for i := range got {
		if err := ErrOf(got[i].Status); err != nil {
			return out, err
		}
	}
	return out, nil
}

// ---- the one issue path and the one retire path ----
//
// The paper's kernel API has one primitive: post a request, then wait
// on it (§4, §5.2). Everything the client does is issue + retire on
// some ctlBufs slot — a Session window slot, or the endpoint's own ctl
// slot under c.lock (the cluster's control path) — and a synchronous
// call is nothing but the two back to back.

// flight is one request on the wire from one slot: what retire needs
// to complete it and leave the slot quiescent, beside a read's data
// receives, which stay in the slot (ctlBufs.pieces). It is a plain
// value: the control path keeps it on the stack, a Session stores it in
// its Pending. A combined batch's requests are a flight each, one per
// window slot; only the first waits for a reply, which answers them all
// (ctlBufs.batch), and the others post and send nothing
// (Session.startBatch).
type flight struct {
	bufs    *ctlBufs
	seq     uint64
	hdrOp   fabric.Op
	sent    fabric.Op                // the request message's send (gathers from bufs, and an inline payload)
	paid    fabric.Op                // a separate payload's last send, when it gathers from the caller's memory
	release func()                   // acquired (cache-managed) user memory, if any
	fixup   func(p *sim.Proc, n int) // staged (noPhys) reads: copy-out once the length is known
	issued  sim.Time                 // the reply deadline runs from here
}

// issue stamps req with the next sequence number and puts it on the
// wire from slot b, which the caller owns. The reply-header receive is
// posted before the request leaves (replies are matched by sequence
// number); a read-shaped request (readShaped) also posts its data
// receives into data first — one, or one per piece (askPieces,
// postData) — so the bytes land wherever the transport allows and never
// arrive unexpected; a write-shaped one's data rides in the request
// message while that message stays eager and follows it otherwise
// (inlinePayload), in one message or one per piece (sendData), into
// receives the server posts as it admits the request. req may be b.req
// — it is fully encoded before issue returns, its piece mark stripped
// again, so the slot's request staging is free. On error nothing stays
// posted and nothing is sent from the slot or the caller's memory any
// more: the header buffer and, crucially, the caller's data vector are
// quiescent, not parked under stale seq tags (failover retries reach
// this path against possibly-dead replicas), and a request and the
// pieces of its payload that left before a later send failed are
// settled.
func (c *FabricClient) issue(p *sim.Proc, b *ctlBufs, req *Req, data core.Vector) (flight, error) {
	c.seq++
	req.Seq, req.EP = c.seq, c.myEP
	fl := flight{bufs: b, seq: req.Seq}
	var err error
	if fl.hdrOp, err = c.postHdr(p, b, req.Seq); err != nil {
		return flight{}, err
	}
	switch {
	case readShaped(req.Op):
		if fl.release, fl.fixup, err = c.postData(p, b, req, data); err == nil {
			fl.sent, err = c.sendReq(p, b, req, nil)
		}
	case writeShaped(req.Op) && !inlinePayload(c.t.Caps().EagerMax, reqFixed+len(req.Name), int(req.Len)):
		k := c.askPieces(req, data)
		if fl.sent, err = c.sendReq(p, b, req, nil); err == nil {
			fl.release, fl.paid, err = c.sendData(p, b, req.Seq, data, k)
		}
	default:
		fl.sent, err = c.sendReq(p, b, req, data) // an inline payload, if any: metadata carries none
	}
	req.Len &^= piecesBit
	if err != nil {
		for _, op := range append(b.pieces, fl.hdrOp) { // no reply comes: the request or its payload never left
			fabric.Cancel(p, op)
			drop(op)
		}
		b.pieces = b.pieces[:0]
		c.settle(p, fl.sent) // a separate payload failed after its request left…
		c.settle(p, fl.paid) // …and after the pieces of it before the one that failed
		dropSends(&fl)
		if fl.release != nil {
			fl.release()
		}
		return flight{}, err
	}
	fl.issued = p.Now()
	return fl, nil
}

// retire completes a flight: data completion first (reads: every
// piece, in order), then the reply, whose answers it appends to out
// (finish). All waits share one deadline running from the flight's
// issue (deadlineFrom); whichever expires withdraws its posted receive
// and surfaces an error satisfying fabric.IsFault, and the pieces after
// it, their deadline past, are withdrawn too — or waited, if they
// matched (waitData). The header receive is always made inert — even
// after a data error — so the slot can be reused: after a data-phase
// transport fault the header is presumed lost with the peer and is
// withdrawn instead of waited a second time; after any other data error
// (truncation) the reply is still coming and is consumed. The slot and
// the caller's memory go back only once the sends that gather from them
// are done (settle). Every receive retire made inert, and every send
// done by then, goes back to the transport (Op.Release).
func (c *FabricClient) retire(p *sim.Proc, fl *flight, out []Resp) ([]Resp, error) {
	var dataErr error
	for _, op := range fl.bufs.pieces {
		st, ok := c.waitData(p, op, c.deadlineFrom(p, fl.issued))
		op.Release()
		switch {
		case dataErr != nil: // an earlier piece failed: this one is only made inert
		case !ok:
			dataErr = fmt.Errorf("rfsrv: read data for request %d: %w", fl.seq, fabric.ErrTimeout)
		case st.Err != nil:
			dataErr = st.Err
		case fl.fixup != nil:
			fl.fixup(p, st.Len) // staged reads are never pieced
		}
	}
	fl.bufs.pieces = fl.bufs.pieces[:0] // inert now: the slot's next request, a batch's too, starts with none
	var err error
	if dataErr != nil && fabric.IsFault(dataErr) {
		c.quiesceHdr(p, fl)
		err = dataErr
	} else {
		out, err = c.finish(p, fl, c.deadlineFrom(p, fl.issued), out)
		if dataErr != nil {
			err = dataErr
		}
	}
	fl.hdrOp.Release()
	fl.bufs.batch = nil
	if fabric.IsFault(err) {
		c.settle(p, fl.sent)
		c.settle(p, fl.paid)
	}
	dropSends(fl)
	if fl.release != nil {
		fl.release()
	}
	return out, err
}

// retireOne retires a flight of one request and returns its answer,
// copied out of the slot's records into the caller's, into, or nil when
// none came.
//
// allocfree
func (c *FabricClient) retireOne(p *sim.Proc, fl *flight, into *Resp) (*Resp, error) {
	b := fl.bufs
	out, err := c.retire(p, fl, b.answers[:0])
	b.answers = out[:0]
	if len(out) == 0 {
		return nil, err
	}
	*into = out[0]
	return into, err
}

// settle is the client half of the one staging rule (Server.reply
// states it): memory a send gathers from — a slot's request buffer, the
// caller's memory behind it — is the send's until its Op is Done, for
// the NIC reads it at DMA time. A reply proves the send was done, since
// the server answers only a request (and payload) it received whole;
// only a fault leaves the question open, and settle then waits the send
// for at most one more deadline. A send that completes locally (MX's)
// is done within that unless its own NIC stays stalled; one whose
// completion is the peer's acknowledgement (GM's) never completes toward
// a peer that died, and is given up on like GM's own send timeout. The
// caller releases the send afterwards if it is done (drop), and leaves it
// to the garbage collector if not.
func (c *FabricClient) settle(p *sim.Proc, op fabric.Op) {
	if op != nil && !op.Done() {
		fabric.WaitTimeout(p, op, c.timeout)
	}
}

// drop ends the client's use of op: released when done, and left to the
// garbage collector while a send the client no longer waits for is
// still in flight (fabric.Op).
//
// allocfree
func drop(op fabric.Op) {
	if op != nil && op.Done() {
		op.Release()
	}
}

// dropSends ends the client's use of every send fl made (drop).
//
// allocfree
func dropSends(fl *flight) {
	drop(fl.sent)
	drop(fl.paid)
	for _, op := range fl.bufs.sends {
		drop(op)
	}
	clear(fl.bufs.sends)
	fl.bufs.sends = fl.bufs.sends[:0]
}

// The package's lock order: a window slot (Session.win.Acquire) may be
// held while taking the client control lock, never the reverse —
// otherwise a consumer holding the control path could park on a full
// window that only drains through that same control path.
//
//analyze:lockorder Session.win < FabricClient.lock

// startCtl takes the control path and issues a metadata request on the
// client's own ctl slot — NOT a window slot, which is what keeps
// cluster metadata deadlock-free: a consumer whose striped reads or
// writes hold every window slot of some server (ORFS readahead can
// legitimately do this) can still look up, stat and reconcile. On
// success the control path stays held until waitCtl, so a fan may put
// one request on every server before waiting any.
func (c *FabricClient) startCtl(p *sim.Proc, req *Req) (flight, error) {
	c.lock.Acquire(p)
	fl, err := c.issue(p, &c.ctl, req, nil)
	if err != nil {
		c.lock.Release()
	}
	return fl, err
}

// waitCtl retires a startCtl flight into the caller's record (retireOne)
// and releases the control path.
func (c *FabricClient) waitCtl(p *sim.Proc, fl *flight, into *Resp) (*Resp, error) {
	defer c.lock.Release()
	return c.retireOne(p, fl, into)
}

// ctlData is one synchronous data-shaped request on the control path:
// a read or write, or a namespace image's export (into data) or import
// (from data). The cluster's fail-over, resync and migration copies run
// inside some other operation's Wait, while the caller's unretired
// pendings may hold every window slot of this server. A write is ONE
// request, so data is at most MaxWriteChunk (every caller moves a
// stripe fragment or a staged chunk, both bounded by it) and a short
// count is the caller's error. The answer goes into the caller's record
// (retireOne).
func (c *FabricClient) ctlData(p *sim.Proc, op Op, ino kernel.InodeID, off int64, data core.Vector, into *Resp) (*Resp, error) {
	c.lock.Acquire(p)
	defer c.lock.Release()
	c.ctl.req = Req{Op: op, Ino: ino, Off: off, Len: uint32(data.TotalLen())}
	fl, err := c.issue(p, &c.ctl, &c.ctl.req, data)
	if err != nil {
		return nil, err
	}
	return c.retireOne(p, &fl, into)
}

func hasUserSeg(v core.Vector) bool {
	for _, s := range v {
		if s.Type == core.UserVirtual {
			return true
		}
	}
	return false
}

// cutPiece returns piece i of the k pieces the piece rule cuts v into:
// v whole when k is 1, and otherwise its size bytes from i×size on (the
// last piece shorter, or empty past v's end), described in *scratch
// behind what it holds (slicePhys), so a receive still posted into an
// earlier piece keeps its description. Client and server cut alike.
//
// allocfree
func cutPiece(scratch *core.Vector, v core.Vector, i, k, size int) core.Vector {
	if k == 1 {
		return v
	}
	at := len(*scratch)
	*scratch = slicePhys(*scratch, v, i*size, size)
	return (*scratch)[at:]
}

// slicePhys appends bytes [off, off+n) of the physical vector v to dst:
// core.Vector.Slice without its allocation.
//
// allocfree
func slicePhys(dst, v core.Vector, off, n int) core.Vector {
	for _, s := range v {
		if l := min(s.Len-off, n); l > 0 {
			dst, n = append(dst, core.PhysSeg(s.PA+mem.PhysAddr(off), l)), n-l
		}
		off = max(off-s.Len, 0)
	}
	return dst
}
