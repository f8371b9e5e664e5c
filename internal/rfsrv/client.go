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
// the asymmetry the paper measures reads off the Caps directly —
//
//   - On a vectorial transport (MX) the request and its write data ride
//     in one message, read data lands straight in the caller's vector
//     (physical page-cache frames, kernel buffers or pinned user
//     memory), and waits are per-request.
//   - On a non-vectorial registering transport (GM) header and data
//     travel as separate messages, internal buffers are physically
//     addressed (kernel side) or registered once (user side), per-
//     transfer user buffers go through the transport's registration
//     cache, and completions funnel through the unique event queue
//     inside the adapter.
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
// the Pending of a synchronous Session verb (Session.launch).
type ctlBufs struct {
	reqVA, hdrVA vm.VirtAddr
	reqXS, hdrXS []mem.Extent // kernel side, physical transports: resolved once
	req          Req
	pd           Pending
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
	if b.reqVA, err = alloc(4096, "rfsrv-req"); err != nil {
		return err
	}
	if b.hdrVA, err = alloc(HdrBufSize, "rfsrv-hdr"); err != nil {
		return err
	}
	caps := c.t.Caps()
	if c.physCtl() {
		// Kernel side on a physical-capable non-vectorial transport:
		// address the internal buffers physically, no registration at
		// all (the §3.3 extension at work).
		b.reqXS, _ = c.as.Resolve(b.reqVA, 4096)
		b.hdrXS, _ = c.as.Resolve(b.hdrVA, HdrBufSize)
	} else if caps.NeedsReg {
		// User side of a registering transport: the library registers
		// its own buffers once at startup (the amortized case
		// registration is designed for).
		if err := c.t.Register(p, c.as, b.reqVA, 4096); err != nil {
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
// and reports an error satisfying fabric.IsFault. Without a deadline a
// request to a server that dies after accepting it would hang its
// completion forever. Timeouts are strictly opt-in — an unarmed client
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

// waitData waits a data completion for at most d (0 = forever): on
// expiry the posted receive is withdrawn — or, if it matched while the
// timer ran, waited to completion normally. ok is false only when the
// operation was withdrawn, i.e. the buffer is quiescent and no data
// ever landed.
func (c *FabricClient) waitData(p *sim.Proc, op fabric.Op, d sim.Time) (st fabric.Status, ok bool) {
	st, ok = fabric.WaitTimeout(p, op, d)
	if ok || fabric.Cancel(p, op) {
		return st, ok
	}
	return op.Wait(p), true
}

// quiesceHdr makes a reply-header receive inert without waiting a
// timeout again: withdrawn if still unmatched, consumed if the reply
// raced in. Used after a data-phase fault, when the header is presumed
// lost with the peer.
func (c *FabricClient) quiesceHdr(p *sim.Proc, b *ctlBufs, hdrOp fabric.Op, seq uint64) {
	if !fabric.Cancel(p, hdrOp) {
		c.finish(p, b, hdrOp, seq, 0) // matched: drain it (result discarded)
	}
}

// physCtl reports whether the internal request/reply buffers are
// physically addressed.
func (c *FabricClient) physCtl() bool {
	caps := c.t.Caps()
	return c.kernSide && caps.Physical && !caps.Vectors && !c.noPhys
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
	if err := c.t.Register(p, c.as, c.ctl.reqVA, 4096); err != nil {
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

// ctlVec describes n bytes at one of the client's internal buffers the
// way the transport wants them addressed.
func (c *FabricClient) ctlVec(va vm.VirtAddr, xs []mem.Extent, n int) core.Vector {
	return ctlVec(nil, c.physCtl(), c.seg(va, n), xs, n)
}

// ctlVec is the one addressing rule for internal (request, reply and
// bounce) buffers, client and server side. It appends to dst the first
// n bytes of a buffer: by its physical extents xs — resolved once, no
// registration, the §3.3 extension at work — when phys, by its virtual
// segment seg otherwise.
func ctlVec(dst core.Vector, phys bool, seg core.Segment, xs []mem.Extent, n int) core.Vector {
	if !phys {
		return append(dst, seg)
	}
	for i := 0; n > 0 && i < len(xs); i++ {
		l := min(xs[i].Len, n)
		dst = append(dst, core.PhysSeg(xs[i].Addr, l))
		n -= l
	}
	return dst
}

// postHdr posts the reply-header receive for seq into b's header
// buffer.
func (c *FabricClient) postHdr(p *sim.Proc, b *ctlBufs, seq uint64) (fabric.Op, error) {
	return c.t.PostRecv(p, core.Exact(tag(seq, c.myEP, kindHdr)), c.ctlVec(b.hdrVA, b.hdrXS, HdrBufSize))
}

// sendReq transmits pre-encoded request bytes from b's request buffer.
// On vectorial transports extra data segments ride in the same message.
func (c *FabricClient) sendEnc(p *sim.Proc, b *ctlBufs, enc []byte, extra core.Vector) error {
	if err := c.as.WriteBytes(b.reqVA, enc); err != nil {
		return err
	}
	v := c.ctlVec(b.reqVA, b.reqXS, len(enc))
	if len(extra) > 0 {
		v = append(v, extra...)
	}
	_, err := c.t.Send(p, c.server, c.serverEP, reqTag, v)
	return err
}

// sendReq encodes and transmits a request. The encoding stages through
// the client's scratch slice: sendEnc copies it into the wire buffer
// before anything can yield, so the scratch is free again on return.
func (c *FabricClient) sendReq(p *sim.Proc, b *ctlBufs, req *Req, extra core.Vector) error {
	c.encScratch = EncodeReqInto(c.encScratch[:0], req)
	return c.sendEnc(p, b, c.encScratch, extra)
}

// postData posts the read-data receive for dst, returning the op, a
// release closure for acquired (cache-managed) user memory, and — on
// the staged (noPhys) path — a fixup to run once the data length is
// known. The capability branches here are the paper's §5.2 comparison
// in four lines: vectorial transports take dst as-is; non-vectorial
// ones can receive into physical extents or a single registered user
// segment, nothing else.
func (c *FabricClient) postData(p *sim.Proc, seq uint64, dst core.Vector) (op fabric.Op, release func(), fixup func(p *sim.Proc, n int), err error) {
	if err := dst.Validate(); err != nil {
		return nil, nil, nil, err
	}
	dataMatch := core.Exact(tag(seq, c.myEP, kindData))
	if c.t.Caps().Vectors {
		op, err := c.t.PostRecv(p, dataMatch, dst)
		if err != nil {
			return nil, nil, nil, err
		}
		return op, func() {}, nil, nil
	}
	if !hasUserSeg(dst) {
		if !c.kernSide {
			return nil, nil, nil, fmt.Errorf("rfsrv: user port cannot address kernel/physical memory on this transport")
		}
		xs, err := dst.Extents()
		if err != nil {
			return nil, nil, nil, err
		}
		if c.noPhys {
			// Stock GM: receive into the registered staging buffer and
			// copy to the real destination afterwards (the extra copy
			// the physical primitives eliminate).
			n := dst.TotalLen()
			if n > MaxWriteChunk {
				return nil, nil, nil, fmt.Errorf("rfsrv: staged receive of %d bytes exceeds staging buffer", n)
			}
			op, err := c.t.PostRecv(p, dataMatch, core.Of(c.seg(c.stagingVA, max(n, 1))))
			if err != nil {
				return nil, nil, nil, err
			}
			node := c.t.Node()
			fixup := func(p *sim.Proc, got int) {
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
			return op, func() {}, fixup, nil
		}
		op, err := c.t.PostRecv(p, dataMatch, physVec(xs))
		if err != nil {
			return nil, nil, nil, err
		}
		return op, func() {}, nil, nil
	}
	if len(dst) != 1 {
		return nil, nil, nil, fmt.Errorf("rfsrv: cannot receive into a %d-segment vector (no vectorial primitives)", len(dst))
	}
	release, err = c.t.Acquire(p, dst)
	if err != nil {
		return nil, nil, nil, err
	}
	op, err = c.t.PostRecv(p, dataMatch, dst)
	if err != nil {
		release()
		return nil, nil, nil, err
	}
	return op, release, nil, nil
}

// sendData transmits write data as its own message (non-vectorial
// transports only).
func (c *FabricClient) sendData(p *sim.Proc, seq uint64, src core.Vector) (func(), error) {
	dataTag := tag(seq, c.myEP, kindData)
	if !hasUserSeg(src) {
		if !c.kernSide {
			return nil, fmt.Errorf("rfsrv: user port cannot address kernel/physical memory on this transport")
		}
		xs, err := src.Extents()
		if err != nil {
			return nil, err
		}
		if c.noPhys {
			// Stock GM: stage through the registered buffer.
			n := mem.TotalLen(xs)
			if n > MaxWriteChunk {
				return nil, fmt.Errorf("rfsrv: staged send of %d bytes exceeds staging buffer", n)
			}
			node := c.t.Node()
			// The ablation keeps its owned staging copy (Gather), sampled
			// before the charge; only the default path is copy-only.
			data := node.Mem.Gather(xs)
			node.CPU.Copy(p, n)
			if err := c.as.WriteBytes(c.stagingVA, data); err != nil {
				return nil, err
			}
			_, err := c.t.Send(p, c.server, c.serverEP, dataTag, core.Of(c.seg(c.stagingVA, n)))
			return func() {}, err
		}
		_, err = c.t.Send(p, c.server, c.serverEP, dataTag, physVec(xs))
		return func() {}, err
	}
	if len(src) != 1 {
		return nil, fmt.Errorf("rfsrv: cannot send a %d-segment vector (no vectorial primitives)", len(src))
	}
	release, err := c.t.Acquire(p, src)
	if err != nil {
		return nil, err
	}
	if _, err := c.t.Send(p, c.server, c.serverEP, dataTag, src); err != nil {
		release()
		return nil, err
	}
	return release, nil
}

// finish waits for the header reply (at most d; 0 = forever) and
// decodes it from b's header buffer. On expiry the posted receive is
// withdrawn (so the slot's buffer can be reused) and the error
// satisfies fabric.IsFault.
func (c *FabricClient) finish(p *sim.Proc, b *ctlBufs, hdrOp fabric.Op, seq uint64, d sim.Time) (*Resp, error) {
	st, ok := fabric.WaitTimeout(p, hdrOp, d)
	if !ok {
		if !fabric.Cancel(p, hdrOp) {
			st, ok = hdrOp.Wait(p), true // matched during the race
		}
	}
	if !ok {
		return nil, fmt.Errorf("rfsrv: reply for request %d: %w", seq, fabric.ErrTimeout)
	}
	if st.Err != nil {
		return nil, st.Err
	}
	if cap(c.hdrScratch) < st.Len {
		c.hdrScratch = make([]byte, HdrBufSize)
	}
	raw := c.hdrScratch[:st.Len]
	if err := c.as.ReadBytesInto(b.hdrVA, raw); err != nil {
		return nil, err
	}
	// DecodeResp copies everything it keeps (names become fresh
	// strings), so the scratch is free for the next reply.
	resp, err := DecodeResp(raw)
	if err != nil {
		return nil, err
	}
	if resp.Seq != seq {
		return nil, fmt.Errorf("rfsrv: reply for seq %d, want %d", resp.Seq, seq)
	}
	if err := ErrOf(resp.Status); err != nil {
		return resp, err
	}
	return resp, nil
}

// ---- the one issue path and the one retire path ----
//
// The paper's kernel API has one primitive: post a request, then wait
// on it (§4, §5.2). Everything the client does is issue + retire on
// some ctlBufs slot — a Session window slot, or the endpoint's own ctl
// slot under c.lock (the cluster's control path) — and a synchronous
// call is nothing but the two back to back.

// flight is one request on the wire from one slot: what retire needs
// to complete it and leave the slot quiescent. It is a plain value:
// the control path keeps it on the stack, a Session stores it in its
// Pending.
type flight struct {
	bufs    *ctlBufs
	seq     uint64
	hdrOp   fabric.Op
	dataOp  fabric.Op                // reads: the posted data receive
	release func()                   // acquired (cache-managed) user memory, if any
	fixup   func(p *sim.Proc, n int) // staged (noPhys) reads: copy-out once the length is known
	issued  sim.Time                 // the reply deadline runs from here
}

// issue stamps req with the next sequence number and puts it on the
// wire from slot b, which the caller owns. The reply-header receive is
// posted before the request leaves (replies are matched by sequence
// number); a read also posts its data receive into data first, so the
// bytes land wherever the transport allows; a write's data rides in
// the request message on vectorial transports and follows as its own
// message otherwise. req may be b.req — it is fully encoded before
// issue returns, so the slot's request staging is free again. On error
// the request never left and nothing stays posted: the header buffer
// and, crucially, the caller's data vector are quiescent, not parked
// under stale seq tags (failover retries reach this path against
// possibly-dead replicas).
func (c *FabricClient) issue(p *sim.Proc, b *ctlBufs, req *Req, data core.Vector) (flight, error) {
	c.seq++
	req.Seq, req.EP = c.seq, c.myEP
	fl := flight{bufs: b, seq: req.Seq}
	var err error
	if fl.hdrOp, err = c.postHdr(p, b, req.Seq); err != nil {
		return flight{}, err
	}
	switch {
	case req.Op == OpRead:
		if fl.dataOp, fl.release, fl.fixup, err = c.postData(p, req.Seq, data); err == nil {
			if err = c.sendReq(p, b, req, nil); err != nil {
				fabric.Cancel(p, fl.dataOp)
			}
		}
	case req.Op == OpWrite && !c.t.Caps().Vectors:
		if err = c.sendReq(p, b, req, nil); err == nil {
			fl.release, err = c.sendData(p, req.Seq, data)
		}
	default:
		err = c.sendReq(p, b, req, data) // metadata carries no data
	}
	if err != nil {
		fabric.Cancel(p, fl.hdrOp)
		if fl.release != nil {
			fl.release()
		}
		return flight{}, err
	}
	fl.issued = p.Now()
	return fl, nil
}

// retire completes a flight: data completion first (reads), then the
// header reply. Both waits share one deadline running from the
// flight's issue (deadlineFrom); whichever expires withdraws its
// posted receive and surfaces an error satisfying fabric.IsFault. The
// header receive is always made inert — even after a data error — so
// the slot can be reused: after a data-phase transport fault the
// header is presumed lost with the peer and is withdrawn instead of
// waited a second time; after any other data error (truncation) the
// reply is still coming and is consumed.
func (c *FabricClient) retire(p *sim.Proc, fl *flight) (*Resp, error) {
	var dataErr error
	if fl.dataOp != nil {
		st, ok := c.waitData(p, fl.dataOp, c.deadlineFrom(p, fl.issued))
		switch {
		case !ok:
			dataErr = fmt.Errorf("rfsrv: read data for request %d: %w", fl.seq, fabric.ErrTimeout)
		case st.Err != nil:
			dataErr = st.Err
		case fl.fixup != nil:
			fl.fixup(p, st.Len)
		}
	}
	var resp *Resp
	var err error
	if dataErr != nil && fabric.IsFault(dataErr) {
		c.quiesceHdr(p, fl.bufs, fl.hdrOp, fl.seq)
		err = dataErr
	} else {
		resp, err = c.finish(p, fl.bufs, fl.hdrOp, fl.seq, c.deadlineFrom(p, fl.issued))
		if dataErr != nil {
			err = dataErr
		}
	}
	if fl.release != nil {
		fl.release()
	}
	return resp, err
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

// waitCtl retires a startCtl flight and releases the control path.
func (c *FabricClient) waitCtl(p *sim.Proc, fl *flight) (*Resp, error) {
	defer c.lock.Release()
	return c.retire(p, fl)
}

// ctlRead is one synchronous read on the control path: the cluster's
// fail-over, promotion, resync and migration copies run inside some
// other operation's Wait, while the caller's unretired pendings may hold
// every window slot of this server.
func (c *FabricClient) ctlRead(p *sim.Proc, ino kernel.InodeID, off int64, dst core.Vector) (*Resp, error) {
	return c.ctlData(p, OpRead, ino, off, dst)
}

// ctlWrite is ctlRead's counterpart: ONE write request, so src is at
// most MaxWriteChunk (every caller moves a stripe fragment or a staged
// chunk, both bounded by it) and a short count is the caller's error.
func (c *FabricClient) ctlWrite(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (*Resp, error) {
	return c.ctlData(p, OpWrite, ino, off, src)
}

func (c *FabricClient) ctlData(p *sim.Proc, op Op, ino kernel.InodeID, off int64, data core.Vector) (*Resp, error) {
	c.lock.Acquire(p)
	defer c.lock.Release()
	c.ctl.req = Req{Op: op, Ino: ino, Off: off, Len: uint32(data.TotalLen())}
	fl, err := c.issue(p, &c.ctl, &c.ctl.req, data)
	if err != nil {
		return nil, err
	}
	return c.retire(p, &fl)
}

func hasUserSeg(v core.Vector) bool {
	for _, s := range v {
		if s.Type == core.UserVirtual {
			return true
		}
	}
	return false
}

func physVec(xs []mem.Extent) core.Vector {
	out := make(core.Vector, 0, len(xs))
	for _, x := range xs {
		out = append(out, core.PhysSeg(x.Addr, x.Len))
	}
	return out
}
