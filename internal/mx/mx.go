// Package mx models Myrinet Express (MX) and, in particular, the MX
// kernel interface the paper's authors designed with Myricom (§4.2) —
// the paper's primary artifact.
//
// Key properties, each contrasted with GM:
//
//   - No application-visible memory registration: MX copies or pins
//     internally per message. Small messages (≤ Params.MXSmallMax) go by
//     programmed I/O; medium messages (≤ Params.MXMediumMax) are copied
//     through pre-registered bounce buffers on both sides; large
//     messages use a rendezvous (RTS/CTS) and are pinned and DMAed
//     zero-copy.
//   - The kernel interface is first-class: "latency and bandwidth do
//     not differ between user and kernel communications" (§5.1). There
//     is no kernel penalty, and kernel page pinning is cheaper.
//   - Requests are vectorial and address-typed (core.Vector): user
//     virtual (pin+translate), kernel virtual (translate), physical
//     (as-is) — §4.2's three address kinds.
//   - Completion is flexible: the application waits on a specific
//     request or on any (§5.2: "allowing the application to wait on a
//     single or any pending request").
//   - Copy-removal modes (§5.1 / Fig 6): WithNoSendCopy skips the
//     send-side bounce copy for physically contiguous non-user
//     segments (implemented in the paper, +17 % at 32 KB);
//     WithNoRecvCopy skips the receive-side copy (the paper's
//     prediction, impossible in their NIC at the time).
package mx

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// message kinds on the wire.
const (
	kindEager uint8 = iota // small or medium, payload inline
	kindRTS                // rendezvous request: "I have N bytes for match M"
	kindCTS                // clear to send
	kindData               // rendezvous payload
)

// le is the byte order of the rendezvous ids and lengths in headers.
var le = binary.LittleEndian

// MX is the per-node driver instance.
type MX struct {
	node      *hw.Node
	p         *hw.Params
	endpoints map[uint8]*Endpoint
	rndvSeq   uint64
}

// Attach installs the MX driver on a node. Call once per node.
func Attach(node *hw.Node) *MX {
	m := &MX{node: node, p: node.Cluster.Params, endpoints: make(map[uint8]*Endpoint)}
	node.NIC.Handle(hw.ProtoMX, m.receive)
	return m
}

// Node returns the node this driver serves.
func (m *MX) Node() *hw.Node { return m.node }

// Option configures an endpoint.
type Option func(*Endpoint)

// WithNoSendCopy enables the send-side copy removal for physically
// contiguous kernel/physical medium messages (§5.1, Fig 6
// "No-send-copy").
func WithNoSendCopy() Option { return func(ep *Endpoint) { ep.noSendCopy = true } }

// WithNoRecvCopy enables the receive-side copy removal the paper
// predicts (Fig 6 "No-copy", dashed): requires receive processing in
// the NIC, so it is a what-if mode here exactly as in the paper.
func WithNoRecvCopy() Option { return func(ep *Endpoint) { ep.noRecvCopy = true } }

// Endpoint is an MX communication endpoint (user or kernel).
type Endpoint struct {
	mx     *MX
	id     uint8
	kernel bool

	noSendCopy bool
	noRecvCopy bool

	posted     []*Request // posted receives, matched in post order
	unexpected []*unexp

	completions *sim.Chan[*Request] // completed receives not yet consumed, for WaitAny

	rndvOut map[uint64]*Request  // our RTSes awaiting CTS
	rndvIn  map[rndvKey]*Request // matched RTSes awaiting data

	// xs is the extent list of a vector whose bytes move now: a send's,
	// which the host stages (PIO, bounce copy) before Send returns, or a
	// receive's, checked as it is posted and resolved again as its data
	// lands; free holds the released requests newRequest hands out again.
	xs   []mem.Extent
	free []*Request

	// Stats
	Sends, Recvs sim.Counter
}

// rndvKey names an incoming rendezvous: the id is the sending node's
// own counter, so it is unique only together with that node — two
// senders' ids coincide as soon as both have sent equally many large
// messages, and an endpoint with two receives matched at once would
// hand one sender's data to the other's receive.
type rndvKey struct {
	src hw.NodeID
	id  uint64
}

type unexp struct {
	src     hw.NodeID
	srcEp   uint8
	info    uint64
	eager   []byte // staged payload (eager) …
	rndvID  uint64 // … or pending rendezvous
	rndvLen int
}

// OpenEndpoint opens endpoint id. kernel selects the kernel interface —
// which, unlike GM's, costs the same as the user one.
func (m *MX) OpenEndpoint(id uint8, kernel bool, opts ...Option) (*Endpoint, error) {
	if _, dup := m.endpoints[id]; dup {
		return nil, fmt.Errorf("mx: endpoint %d already open on %s", id, m.node.Name)
	}
	ep := &Endpoint{
		mx:          m,
		id:          id,
		kernel:      kernel,
		completions: sim.NewChan[*Request](m.node.Cluster.Env),
		rndvOut:     make(map[uint64]*Request),
		rndvIn:      make(map[rndvKey]*Request),
	}
	for _, o := range opts {
		o(ep)
	}
	m.endpoints[id] = ep
	return ep, nil
}

// Kernel reports whether this is a kernel endpoint.
func (ep *Endpoint) Kernel() bool { return ep.kernel }

// ID returns the endpoint number.
func (ep *Endpoint) ID() uint8 { return ep.id }

// Status is the outcome of a completed request.
type Status struct {
	Src  hw.NodeID
	Info uint64 // sender's match information
	Len  int    // bytes transferred
	Err  error  // truncation etc.
}

// Request is an in-flight send or receive. It is its holder's until
// Release, which hands it back to its endpoint for the next Send or
// Recv; a request never released is the garbage collector's.
type Request struct {
	ep     *Endpoint
	done   sim.Signal
	status Status
	// the flags, side by side so they take one word; queued: in the
	// completion queue, released: its holder is done with it
	charged   bool
	truncated bool
	queued    bool
	released  bool

	// vector is a send's source or a receive's destination
	vector core.Vector
	unpin  func() // posted user pages to unpin at completion

	// receive state
	match    core.Match
	recvCopy int // bytes of deferred receive-side bounce copy

	// rendezvous state: a send's extents (their backing kept across
	// recycles) and its id; a matched receive's id (the sender's, see
	// rndvKey)
	extents []mem.Extent
	rndvID  uint64

	// fire completes a zero-copy medium send from its TxDone event:
	// built the first time the request is one and kept across recycles.
	fire func()
}

// Done reports whether the request has completed (mx_test).
func (r *Request) Done() bool { return r.done.Fired() }

// Wait blocks until the request completes and returns its status,
// charging the host-side completion work (event consumption, deferred
// receive copy, unpinning) exactly once.
func (r *Request) Wait(p *sim.Proc) Status {
	r.done.Wait(p)
	r.charge(p)
	return r.status
}

// WaitTimeout is Wait with a deadline; ok is false on timeout.
func (r *Request) WaitTimeout(p *sim.Proc, d sim.Time) (Status, bool) {
	if !r.done.Fired() {
		if fired := r.done.WaitTimeout(p, d); !fired {
			return Status{}, false
		}
	}
	r.charge(p)
	return r.status, true
}

// OnDone runs fn once the request completes — inline if it has, and
// otherwise in the slot the completion's wake-up of a waiting process
// would take (sim.Signal.WaitFunc). It charges nothing: a later Wait
// consumes the completion and charges it, exactly once.
//
// allocfree
func (r *Request) OnDone(fn func()) { r.done.WaitFunc(fn) }

// Release hands a completed request back to its endpoint, which
// recycles it for a later Send or Recv: the holder calls it once, after
// its last Wait, Test or Done, and keeps no reference. A receive still
// in the completion queue is recycled when the queue drops it, and
// WaitAny never returns it. Releasing a request that has not completed
// panics.
//
// allocfree
func (r *Request) Release() {
	if !r.done.Fired() || r.released {
		panic("mx: request released before it completed, or twice")
	}
	if r.released = true; !r.queued {
		r.ep.free = append(r.ep.free, r)
	}
	r.ep.dropConsumed()
}

// dropConsumed drops every consumed receive — waited or released — from
// the head of the completion queue, recycling the released ones: a
// waited receive WaitAny will never hand out would otherwise stay
// queued, pinning its vector and extents, for the endpoint's life.
//
// allocfree
func (ep *Endpoint) dropConsumed() {
	q := ep.completions
	for head, ok := q.Peek(); ok && (head.charged || head.released); head, ok = q.Peek() {
		q.TryRecv()
		ep.dequeued(head)
	}
}

// dequeued notes that r left the completion queue, recycling it when
// its holder has released it.
//
// allocfree
func (ep *Endpoint) dequeued(r *Request) {
	r.queued = false
	if r.released {
		ep.free = append(ep.free, r)
	}
}

// complete fires a receive's completion and queues it for WaitAny.
//
// allocfree
func (ep *Endpoint) complete(req *Request) {
	req.done.Fire()
	req.queued = true
	ep.completions.Send(req)
}

// Test polls for completion without blocking or charging.
func (r *Request) Test() (Status, bool) {
	if !r.done.Fired() {
		return Status{}, false
	}
	return r.status, true
}

func (r *Request) charge(p *sim.Proc) {
	if r.charged {
		return
	}
	r.charged = true
	r.ep.dropConsumed() // WaitAny will never hand r out
	cpu := r.ep.mx.node.CPU
	cpu.Compute(p, r.ep.mx.p.MXHostEvent)
	if r.recvCopy > 0 {
		// The host drains the bounce ring into the destination buffer:
		// the receive-side copy of the medium-message protocol.
		cpu.Copy(p, r.recvCopy)
	}
	if r.unpin != nil {
		pages := r.vector.UserPages()
		if pages > 0 {
			cpu.Unpin(p, pages)
		}
		r.unpin()
		r.unpin = nil
	}
}

// resolve translates and (for user segments) pins a vector, charging
// the CPU costs. It returns the merged extents — appended to out, or in
// a list of their own when out is nil — and an unpin closure (nil if
// nothing was pinned).
func (ep *Endpoint) resolve(p *sim.Proc, v core.Vector, out []mem.Extent) ([]mem.Extent, func(), error) {
	if err := v.Validate(); err != nil {
		return nil, nil, err
	}
	userPages := v.UserPages()
	var unpin func()
	if userPages > 0 {
		var err error
		unpin, err = v.Pin()
		if err != nil {
			return nil, nil, err
		}
		ep.mx.node.CPU.Pin(p, userPages, false)
	} else if ep.kernel {
		ep.pinKernel(p, v)
	}
	var xs []mem.Extent
	var err error
	if out == nil {
		xs, err = v.Extents()
	} else {
		xs, err = v.AppendExtents(out)
	}
	if err != nil {
		if unpin != nil {
			unpin()
		}
		return nil, nil, err
	}
	return xs, unpin, nil
}

// extents resolves v in the endpoint's reused list, which is the
// caller's until it next yields.
//
// allocfree
func (ep *Endpoint) extents(v core.Vector) ([]mem.Extent, error) {
	xs, err := v.AppendExtents(ep.xs[:0])
	if err != nil {
		return nil, err
	}
	ep.xs = xs
	return xs, nil
}

// stage copies v's bytes into a pooled NIC buffer — the data movement
// of a PIO push or a bounce copy.
//
// allocfree
func (ep *Endpoint) stage(v core.Vector) (*hw.Staged, error) {
	xs, err := ep.extents(v)
	if err != nil {
		return nil, err
	}
	return ep.mx.node.NIC.Stage(xs), nil
}

// land scatters data into req's buffer, its vector resolved again as
// Recv checked it, and returns how many extents the buffer spans.
//
// allocfree
func (ep *Endpoint) land(req *Request, data []byte) int {
	xs, err := ep.extents(req.vector)
	if err != nil {
		req.status.Err, req.status.Len = err, 0
		return 0
	}
	ep.mx.node.Mem.Scatter(xs, data)
	return len(xs)
}

// newRequest returns a request of this endpoint: a released one, its
// completion signal re-armed and its extent list emptied, or a new one,
// its completion signal held by value (a request is one object) bound
// to the engine.
//
// allocfree
func (ep *Endpoint) newRequest() *Request {
	env := ep.mx.node.Cluster.Env
	if k := len(ep.free); k > 0 {
		req := ep.free[k-1]
		ep.free = ep.free[:k-1]
		*req = Request{ep: ep, extents: req.extents[:0], fire: req.fire}
		req.done.Init(env)
		return req
	}
	//analyze:allow allocfree pool-miss arm: the request recycles from here on
	req := &Request{ep: ep}
	req.done.Init(env)
	return req
}

// newTxJob returns a transmit job for a message of the given kind and
// match information to endpoint (dst, dstEp), with a header of hdr
// bytes whose first two — destination and source endpoint — are set.
func (ep *Endpoint) newTxJob(dst hw.NodeID, dstEp uint8, kind uint8, info uint64, hdr int) *hw.TxJob {
	j := hw.NewTxJob(hdr)
	m := j.Msg
	m.Dst, m.Proto, m.Kind, m.Tag = dst, hw.ProtoMX, kind, info
	m.Header[0], m.Header[1] = dstEp, ep.id
	return j
}

// Send posts a send of vector v with match information info to
// endpoint (dst, dstEp). The returned request completes when the
// application buffer is reusable.
//
// allocfree
func (ep *Endpoint) Send(p *sim.Proc, dst hw.NodeID, dstEp uint8, info uint64, v core.Vector) (*Request, error) {
	m := ep.mx
	n := v.TotalLen()
	req := ep.newRequest()
	req.vector = v
	req.status = Status{Info: info, Len: n}
	m.node.CPU.Compute(p, m.p.MXHostSend)
	ep.Sends.Add(n)
	if env := m.node.Cluster.Env; env.Tracing() {
		//analyze:allow allocfree tracing is on: the arguments are boxed only when somebody reads them
		env.Tracef("mx[%s:%d] send %dB info=%#x -> node %d ep %d", m.node.Name, ep.id, n, info, dst, dstEp)
	}

	switch {
	case n <= m.p.MXSmallMax:
		return ep.sendSmall(p, req, dst, dstEp, info, v)
	case n <= m.p.MXMediumMax:
		return ep.sendMedium(p, req, dst, dstEp, info, v)
	default:
		return ep.sendLarge(p, req, dst, dstEp, info, v)
	}
}

// sendSmall: the host reads the (tiny) payload and pushes it to the
// NIC by programmed I/O; no pinning, no DMA on the send side.
//
// allocfree
func (ep *Endpoint) sendSmall(p *sim.Proc, req *Request, dst hw.NodeID, dstEp uint8, info uint64, v core.Vector) (*Request, error) {
	m := ep.mx
	data, err := ep.stage(v)
	if err != nil {
		return nil, err
	}
	m.node.CPU.PIO(p, data.Len()+16) // payload + descriptor
	j := ep.newTxJob(dst, dstEp, kindEager, info, 2)
	j.Inline, j.PIO = data, true
	m.node.NIC.Send(j)
	req.done.Fire() // buffer reusable: bytes are in NIC SRAM
	return req, nil
}

// sendMedium: default MX copies into a pre-registered bounce buffer
// ("uses a copy on both sides when processing medium side messages",
// §5.1). Two zero-copy cases skip the send copy:
//
//   - Physically addressed vectors on kernel endpoints always go
//     zero-copy: this is the kernel API subsuming the paper's GM
//     physical-address primitives (§4.1) — the NIC gather-DMAs the
//     extents directly (page-cache pages are already locked).
//   - With WithNoSendCopy, physically *contiguous* kernel-virtual
//     vectors also go zero-copy (the Fig 6 "No-send-copy" MCP change,
//     +17 % at 32 KB).
func (ep *Endpoint) sendMedium(p *sim.Proc, req *Request, dst hw.NodeID, dstEp uint8, info uint64, v core.Vector) (*Request, error) {
	m := ep.mx
	j := ep.newTxJob(dst, dstEp, kindEager, info, 2)
	if ep.kernel && ep.zeroCopySend(v) {
		// zeroCopySend admits no user pages, so nothing is pinned.
		xs, _, err := ep.resolve(p, v, j.GatherBuf())
		if err != nil {
			return nil, err
		}
		j.Gather = xs
		m.node.NIC.Send(j)
		// The buffer is reusable once the NIC has read it: no process is
		// needed to wait for that, the completion rides TxDone's event.
		if req.fire == nil {
			req.fire = req.done.Fire
		}
		j.Msg.TxDone.WaitFunc(req.fire)
		return req, nil
	}
	data, err := ep.stage(v)
	if err != nil {
		return nil, err
	}
	m.node.CPU.Copy(p, data.Len()) // the send-side bounce copy
	j.Inline = data
	m.node.NIC.Send(j)
	req.done.Fire() // buffer reusable after the copy
	return req, nil
}

// zeroCopySend reports whether a medium message may skip the bounce
// copy on this (kernel) endpoint.
func (ep *Endpoint) zeroCopySend(v core.Vector) bool {
	if v.AllPhysical() {
		return true
	}
	if !ep.noSendCopy || hasUser(v) {
		return false
	}
	contig, err := v.PhysicallyContiguous()
	return err == nil && contig
}

func hasUser(v core.Vector) bool {
	for _, s := range v {
		if s.Type == core.UserVirtual {
			return true
		}
	}
	return false
}

// sendLarge: rendezvous. Pin the source, send an RTS, wait for the CTS
// (driven by the receive path), then DMA the payload zero-copy.
func (ep *Endpoint) sendLarge(p *sim.Proc, req *Request, dst hw.NodeID, dstEp uint8, info uint64, v core.Vector) (*Request, error) {
	m := ep.mx
	xs, unpin, err := ep.resolve(p, v, req.extents)
	if err != nil {
		return nil, err
	}
	m.node.CPU.Compute(p, m.p.MXRendezvous) // rendezvous protocol setup
	id := m.rndvSeq
	m.rndvSeq++
	req.rndvID = id
	req.extents = xs
	req.unpin = func() {
		if unpin != nil {
			unpin()
		}
	}
	ep.rndvOut[id] = req
	j := ep.newTxJob(dst, dstEp, kindRTS, info, 2+8+4)
	le.PutUint64(j.Msg.Header[2:], id)
	le.PutUint32(j.Msg.Header[10:], uint32(v.TotalLen()))
	j.PIO = true
	m.node.NIC.Send(j)
	return req, nil
}

// Recv posts a receive of vector v for messages matching match. The
// returned request completes when data is in place.
//
// Posting is cheap: nothing is pinned yet. Eager (small/medium)
// deliveries never pin the destination — data flows through the bounce
// ring or straight into physical extents. Only when the receive matches
// a rendezvous does MX pin the buffer (see pinForRendezvous), which is
// how the real implementation avoids GM's register-everything model.
func (ep *Endpoint) Recv(p *sim.Proc, match core.Match, v core.Vector) (*Request, error) {
	m := ep.mx
	if _, err := ep.extents(v); err != nil { // validates each segment
		return nil, err
	}
	m.node.CPU.Compute(p, m.p.MXHostSend/2) // post descriptor
	req := ep.newRequest()
	req.match, req.vector = match, v
	// Unexpected queue first (in arrival order).
	for i, u := range ep.unexpected {
		if !match.Accepts(u.info) {
			continue
		}
		ep.unexpected = append(ep.unexpected[:i], ep.unexpected[i+1:]...)
		if u.eager != nil {
			ep.completeEager(req, u.src, u.info, u.eager, true)
		} else {
			ep.awaitData(req, u.src, u.rndvID, u.info)
			ep.sendCTS(p, u.src, u.srcEp, u.rndvID, v.TotalLen(), u.rndvLen, req)
		}
		return req, nil
	}
	ep.posted = append(ep.posted, req)
	return req, nil
}

// CancelRecv withdraws a posted receive (mx_cancel): the request is
// removed from the match list, completes with ErrCancelled, and its
// buffer is guaranteed never to be scattered into. A receive that
// matched a rendezvous whose data has not yet arrived is cancellable
// too — dropping the rendezvous record makes any late data message
// fall on the floor (the sender's transfer completes into nothing),
// which is what makes reply deadlines against a dead-then-revived
// peer safe. It returns false — and does nothing — only when the
// receive has completed (data already landed); the caller must then
// Wait it to consume the result.
func (ep *Endpoint) CancelRecv(p *sim.Proc, req *Request) bool {
	for i, r := range ep.posted {
		if r == req {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			ep.mx.node.CPU.Compute(p, ep.mx.p.MXHostSend/2) // descriptor removal
			req.status.Err = ErrCancelled
			req.done.Fire()
			return true
		}
	}
	key := rndvKey{req.status.Src, req.rndvID}
	if ep.rndvIn[key] != req {
		return false
	}
	delete(ep.rndvIn, key)
	ep.mx.node.CPU.Compute(p, ep.mx.p.MXHostSend/2) // descriptor removal
	// The buffer was pinned when the CTS went out; undo it here — the
	// completion path that normally unpins will never run.
	if req.unpin != nil {
		if pages := req.vector.UserPages(); pages > 0 {
			ep.mx.node.CPU.Unpin(p, pages)
		}
		req.unpin()
		req.unpin = nil
	}
	req.status.Err = ErrCancelled
	req.done.Fire()
	return true
}

// Cancel withdraws r, a posted receive, from its endpoint (see
// Endpoint.CancelRecv).
func (r *Request) Cancel(p *sim.Proc) bool { return r.ep.CancelRecv(p, r) }

// ErrCancelled is the completion status of a receive withdrawn by
// CancelRecv.
var ErrCancelled = fmt.Errorf("mx: request cancelled")

// WaitAny blocks until any posted receive of the endpoint completes and
// returns it ("wait on a single or any pending request", §5.2).
// Receives already consumed through Request.Wait are skipped.
func (ep *Endpoint) WaitAny(p *sim.Proc) *Request {
	for {
		r := ep.completions.Recv(p)
		ep.dequeued(r)
		if r.charged || r.released {
			continue
		}
		r.charge(p)
		return r
	}
}

// awaitData records that receive req has matched rendezvous id of node
// src and now waits for its payload.
func (ep *Endpoint) awaitData(req *Request, src hw.NodeID, id, info uint64) {
	ep.rndvIn[rndvKey{src, id}] = req
	req.rndvID = id
	req.status = Status{Src: src, Info: info}
}

// pinForRendezvous pins a matched rendezvous receive buffer, charging
// the pinning cost in the calling process (the host does this work
// whether the match happened at post time or on RTS arrival).
func (ep *Endpoint) pinForRendezvous(p *sim.Proc, req *Request) error {
	v := req.vector
	if userPages := v.UserPages(); userPages > 0 {
		unpin, err := v.Pin()
		if err != nil {
			return err
		}
		req.unpin = unpin
		ep.mx.node.CPU.Pin(p, userPages, false)
		return nil
	}
	ep.pinKernel(p, v)
	return nil
}

// pinKernel charges the pinning of v's kernel virtual pages.
// Kernel/physical addressing: cheap or free translation; pin cost only
// when pages are not already locked. Kernel virtual memory is "often
// already pinned" (§4.2): charge the cheaper kernel rate for
// translation bookkeeping.
func (ep *Endpoint) pinKernel(p *sim.Proc, v core.Vector) {
	kpages := 0
	for _, s := range v {
		if s.Type == core.KernelVirtual {
			kpages += s.Pages()
		}
	}
	if kpages > 0 {
		ep.mx.node.CPU.Pin(p, kpages, true)
	}
}

// sendCTS tells the sender to transmit rendezvous id; recvLen is our
// buffer size, sendLen the announced size (for truncation).
func (ep *Endpoint) sendCTS(p *sim.Proc, dst hw.NodeID, dstEp uint8, id uint64, recvLen, sendLen int, req *Request) {
	m := ep.mx
	if err := ep.pinForRendezvous(p, req); err != nil {
		delete(ep.rndvIn, rndvKey{dst, id})
		req.status.Err = err
		ep.complete(req)
		return
	}
	if recvLen < sendLen {
		req.truncated = true
	}
	j := ep.newTxJob(dst, dstEp, kindCTS, 0, 2+8+4)
	le.PutUint64(j.Msg.Header[2:], id)
	le.PutUint32(j.Msg.Header[10:], uint32(min(recvLen, sendLen)))
	j.PIO = true
	m.node.NIC.Send(j)
}

// completeEager finishes a receive whose payload is at hand: just
// delivered, or staged in the unexpected queue's host-side buffer
// (staged).
//
// allocfree
func (ep *Endpoint) completeEager(req *Request, src hw.NodeID, info uint64, data []byte, staged bool) {
	n := len(data)
	req.status = Status{Src: src, Info: info, Len: n}
	if n > req.vector.TotalLen() {
		n = req.vector.TotalLen()
		req.status.Len = n
		//analyze:allow allocfree truncation error arm
		req.status.Err = fmt.Errorf("mx: message truncated to %d bytes", n)
	}
	spans := ep.land(req, data[:n])
	// Receive-side bounce copy, charged at Wait time. It is skipped
	// when the message was small (PIO-sized), or when the NIC could
	// place the data directly: physically addressed kernel receives
	// (the page-cache path, as with the GM physical extension), or —
	// under the predicted WithNoRecvCopy mode — physically contiguous
	// kernel-virtual destinations. A message that waited in the
	// unexpected queue is already in host memory, and the host copies it
	// out whatever the receive's addressing: the NIC placed it before
	// there was anywhere to place it.
	if n > ep.mx.p.MXSmallMax && (staged || !ep.zeroCopyRecv(req, spans)) {
		req.recvCopy = n
	}
	ep.Recvs.Add(n)
	if env := ep.mx.node.Cluster.Env; env.Tracing() {
		//analyze:allow allocfree tracing is on: the arguments are boxed only when somebody reads them
		env.Tracef("mx[%s:%d] recv %dB info=%#x from node %d", ep.mx.node.Name, ep.id, n, info, src)
	}
	ep.complete(req)
}

// zeroCopyRecv reports whether a medium delivery lands directly in the
// posted buffer on this endpoint (no host drain copy), which spans that
// many extents.
func (ep *Endpoint) zeroCopyRecv(req *Request, spans int) bool {
	if !ep.kernel {
		return false
	}
	if req.vector.AllPhysical() {
		return true
	}
	return ep.noRecvCopy && !hasUser(req.vector) && spans <= 1
}

// receive runs in the NIC's receive process.
func (m *MX) receive(p *sim.Proc, msg *hw.Message) {
	if len(msg.Header) < 2 {
		panic("mx: short header")
	}
	ep := m.endpoints[msg.Header[0]]
	if ep == nil {
		return // endpoint closed: drop
	}
	srcEp := msg.Header[1]
	switch msg.Kind {
	case kindEager:
		if req := ep.takePosted(msg.Tag); req != nil {
			ep.completeEager(req, msg.Src, msg.Tag, msg.Payload, false)
			return
		}
		ep.unexpected = append(ep.unexpected, &unexp{
			src: msg.Src, srcEp: srcEp, info: msg.Tag,
			eager: append([]byte(nil), msg.Payload...),
		})
	case kindRTS:
		id := le.Uint64(msg.Header[2:])
		length := int(le.Uint32(msg.Header[10:]))
		if req := ep.takePosted(msg.Tag); req != nil {
			ep.awaitData(req, msg.Src, id, msg.Tag)
			ep.sendCTS(p, msg.Src, srcEp, id, req.vector.TotalLen(), length, req)
			return
		}
		ep.unexpected = append(ep.unexpected, &unexp{
			src: msg.Src, srcEp: srcEp, info: msg.Tag, rndvID: id, rndvLen: length,
		})
	case kindCTS:
		id := le.Uint64(msg.Header[2:])
		length := int(le.Uint32(msg.Header[10:]))
		req := ep.rndvOut[id]
		if req == nil {
			return
		}
		delete(ep.rndvOut, id)
		ep.startData(req, msg.Src, srcEp, id, length)
	case kindData:
		key := rndvKey{msg.Src, le.Uint64(msg.Header[2:])}
		req := ep.rndvIn[key]
		if req == nil {
			return
		}
		delete(ep.rndvIn, key)
		n := len(msg.Payload)
		req.status.Len = n
		ep.land(req, msg.Payload)
		if req.truncated {
			req.status.Err = fmt.Errorf("mx: rendezvous truncated to %d bytes", n)
		}
		ep.Recvs.Add(n)
		ep.complete(req)
	}
}

// startData launches the rendezvous payload transfer (runs in the
// receive pump of the *sender's* NIC, where the CTS arrived).
func (ep *Endpoint) startData(req *Request, dst hw.NodeID, dstEp uint8, id uint64, length int) {
	m := ep.mx
	j := ep.newTxJob(dst, dstEp, kindData, req.status.Info, 2+8)
	le.PutUint64(j.Msg.Header[2:], id)
	// The flat large-message penalty (immature large-message path,
	// §5.1) rides on the data message's firmware processing.
	j.Gather, j.FwExtra = mem.Clip(req.extents, length), m.p.MXLargeOverhead
	m.node.NIC.Send(j)
	// Completion waits for the NIC to have read the source. Only user
	// pages cost CPU time to unpin, which takes a process to charge;
	// every other send completes from TxDone's own event.
	pages := req.vector.UserPages()
	done := func() {
		if req.unpin != nil {
			req.unpin()
			req.unpin = nil
		}
		req.status.Len = length
		req.done.Fire()
	}
	if pages == 0 {
		j.Msg.TxDone.WaitFunc(done)
		return
	}
	m.node.Cluster.Env.Spawn("mx-rndv-done", func(w *sim.Proc) {
		j.Msg.TxDone.Wait(w)
		m.node.CPU.Unpin(w, pages)
		done()
	})
}

// takePosted removes and returns the oldest posted receive matching info.
func (ep *Endpoint) takePosted(info uint64) *Request {
	for i, r := range ep.posted {
		if r.match.Accepts(info) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			return r
		}
	}
	return nil
}
