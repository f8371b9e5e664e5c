package fabric

// This file is the GM adapter: a Transport over one raw GM port. It
// batches the port's unique event queue, routing each drained
// completion to the Op it belongs to, and backs Acquire with the GMKRC
// registration cache.
import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/gmkrc"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// GMTransport adapts a raw GM port to the fabric. It owns the paper's
// whole GM scaffolding so consumers do not have to: a GMKRC
// registration cache for per-transfer user buffers (§3.2), the
// physical-address primitives for physical vectors (§3.3), and a
// completion mux over the port's unique event queue (§5.2) that
// delivers each event to the Op it belongs to in batches.
//
// Completion waits must come from one process at a time. This is GM's
// own restriction surfacing through the adapter: a port has a single
// event queue and whoever consumes it sees everyone's completions —
// exactly why SOCKETS-GM needs its dedicated dispatcher thread
// (§5.3). A consumer that wants multi-process waits must either give
// each process its own port (as the rfsrv clients do) or funnel
// completions through one dispatcher process.
type GMTransport struct {
	port  *gm.Port
	cache *gmkrc.Cache
	poll  bool // spin on the event queue (raw-benchmark mode) instead of sleeping

	// waiting routes drained events to their Ops: GM's unique event
	// queue interleaves completions of unrelated operations, so
	// whichever Op drains the queue dispatches everything it pulls.
	// Each key's FIFO is threaded through the Ops themselves (gmOp.next),
	// and free holds the released Ops enroll hands out again, so
	// enrolling allocates nothing.
	waiting map[gmEvKey]gmOpFIFO
	free    []*gmOp

	// regions tracks Register calls for Deregister/Close.
	regions map[regKey]*gm.Region
}

type gmEvKey struct {
	send bool
	tag  uint64
}

type gmOpFIFO struct{ head, tail *gmOp }

type regKey struct {
	as *vm.AddressSpace
	va vm.VirtAddr
}

// GMOption configures a GMTransport.
type GMOption func(*GMTransport)

// WithPolling makes completion waits spin (gm_receive_event style, the
// mode behind the paper's raw latency figures) instead of sleeping with
// the kernel-consumer context-switch cost.
func WithPolling() GMOption { return func(t *GMTransport) { t.poll = true } }

// WithCachePages sizes the registration cache used by Acquire; 0
// disables caching (every transfer pays register + deregister, the
// Fig 3(b) ablation). The default is 4096 pages.
func WithCachePages(n int) GMOption {
	return func(t *GMTransport) { t.cache = gmkrc.New(t.port, n) }
}

// NewGM opens GM port portID on g (kernel or user interface per
// kernel) and wraps it as a fabric transport.
func NewGM(g *gm.GM, portID uint8, kernel bool, opts ...GMOption) (*GMTransport, error) {
	port, err := g.OpenPort(portID, kernel)
	if err != nil {
		return nil, err
	}
	t := &GMTransport{
		port:    port,
		waiting: make(map[gmEvKey]gmOpFIFO),
		regions: make(map[regKey]*gm.Region),
	}
	for _, o := range opts {
		o(t)
	}
	if t.cache == nil {
		t.cache = gmkrc.New(port, 4096)
	}
	return t, nil
}

// Port exposes the underlying GM port (stats, tests).
func (t *GMTransport) Port() *gm.Port { return t.port }

// Cache exposes the registration cache (stats, tests).
func (t *GMTransport) Cache() *gmkrc.Cache { return t.cache }

// Node implements Transport.
func (t *GMTransport) Node() *hw.Node { return t.port.Node() }

// LocalEP implements Transport.
func (t *GMTransport) LocalEP() uint8 { return t.port.ID() }

// Caps implements Transport: no vectors, registration required,
// physical addressing on kernel ports only, eager sends (a send's
// completion is the peer NIC's acknowledgement).
func (t *GMTransport) Caps() Caps {
	return Caps{Physical: t.port.Kernel(), NeedsReg: true, EagerSend: true}
}

// Register implements Transport: pin and enter the range into the NIC
// translation table, once, for the endpoint's lifetime.
func (t *GMTransport) Register(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) error {
	r, err := t.port.RegisterMemory(p, as, va, n)
	if err != nil {
		return err
	}
	t.regions[regKey{as, va}] = r
	return nil
}

// Deregister implements Transport.
func (t *GMTransport) Deregister(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr) error {
	k := regKey{as, va}
	r := t.regions[k]
	if r == nil {
		return fmt.Errorf("fabric: %#x not registered on this transport", va)
	}
	delete(t.regions, k)
	t.invalidatePool()
	return t.port.DeregisterMemory(p, r)
}

// invalidatePool drops this transport's cached buffer registrations in
// the node's shared pool (see Pool.invalidate).
func (t *GMTransport) invalidatePool() {
	if pool, ok := t.Node().FabricPool.(*Pool); ok {
		pool.invalidate(t)
	}
}

// Acquire implements Transport: run every user-virtual segment through
// the registration cache. With caching disabled the release closure
// pays the immediate deregistration.
func (t *GMTransport) Acquire(p *sim.Proc, v core.Vector) (func(), error) {
	type span struct {
		as *vm.AddressSpace
		va vm.VirtAddr
	}
	var acquired []span
	for _, s := range v {
		if s.Type != core.UserVirtual || s.Len == 0 {
			continue
		}
		if _, err := t.cache.Acquire(p, s.AS, s.VA, s.Len); err != nil {
			// Undo partial progress in uncached mode, where nothing
			// else will ever deregister the earlier segments.
			if t.cache.Budget() == 0 {
				for _, a := range acquired {
					t.cache.ReleaseUncached(p, a.as, a.va)
				}
			}
			return nil, err
		}
		acquired = append(acquired, span{s.AS, s.VA})
	}
	if t.cache.Budget() > 0 || len(acquired) == 0 {
		return func() {}, nil
	}
	return func() {
		for _, a := range acquired {
			t.cache.ReleaseUncached(p, a.as, a.va)
		}
	}, nil
}

// vectorArgs classifies a vector into the one shape per primitive GM
// supports — all-physical extents (resolved here, once), or a single
// virtually contiguous registered range. An empty vector is a
// zero-length physical message: GM completes the protocol handshake
// with no payload, as zero-byte file transfers need.
func (t *GMTransport) vectorArgs(v core.Vector) (xs []mem.Extent, phys bool, s core.Segment, err error) {
	if len(v) == 0 || v.AllPhysical() {
		xs, err := v.Extents()
		return xs, true, core.Segment{}, err
	}
	if len(v) != 1 {
		return nil, false, core.Segment{}, fmt.Errorf("fabric: GM has no vectorial primitives (%d segments)", len(v))
	}
	return nil, false, v[0], nil
}

// Send implements Transport. A destination whose NIC is dead fails
// synchronously with ErrPeerDead — modelling GM's own send timeouts,
// which complete sends to unreachable nodes with an error instead of
// leaking tokens forever.
func (t *GMTransport) Send(p *sim.Proc, dst hw.NodeID, dstEP uint8, info uint64, v core.Vector) (Op, error) {
	if t.Node().Cluster.Node(dst).NIC.Dead() {
		return nil, ErrPeerDead
	}
	xs, phys, s, err := t.vectorArgs(v)
	if err != nil {
		return nil, err
	}
	op := t.enroll(gmEvKey{send: true, tag: info})
	if phys {
		err = t.port.SendPhysical(p, dst, dstEP, info, xs)
	} else {
		err = t.port.Send(p, dst, dstEP, info, s.AS, s.VA, s.Len)
	}
	if err != nil {
		t.unwait(op)
		t.free = append(t.free, op)
		return nil, err
	}
	return op, nil
}

// PostRecv implements Transport. GM matches receives by exact tag only.
func (t *GMTransport) PostRecv(p *sim.Proc, match core.Match, v core.Vector) (Op, error) {
	if match.Mask != ^uint64(0) {
		return nil, fmt.Errorf("fabric: GM matches exact tags only (mask %#x)", match.Mask)
	}
	tag := match.Bits
	xs, phys, s, err := t.vectorArgs(v)
	if err != nil {
		return nil, err
	}
	op := t.enroll(gmEvKey{tag: tag})
	if phys {
		err = t.port.PostRecvPhysical(p, tag, xs)
	} else {
		err = t.port.PostRecv(p, tag, s.AS, s.VA, s.Len)
	}
	if err != nil {
		t.unwait(op)
		t.free = append(t.free, op)
		return nil, err
	}
	return op, nil
}

// enroll appends an Op — a released one, or a new one — to the FIFO of
// those waiting for key's event.
//
// allocfree
func (t *GMTransport) enroll(key gmEvKey) *gmOp {
	var op *gmOp
	if k := len(t.free); k > 0 {
		op, t.free = t.free[k-1], t.free[:k-1]
		*op = gmOp{t: t, key: key}
	} else {
		//analyze:allow allocfree pool-miss arm: the Op recycles from here on
		op = &gmOp{t: t, key: key}
	}
	q := t.waiting[key]
	if q.tail == nil {
		q.head = op
	} else {
		q.tail.next = op
	}
	q.tail = op
	t.waiting[key] = q
	return op
}

// unwait removes an enrolled op whose primitive failed or whose receive
// was cancelled.
func (t *GMTransport) unwait(op *gmOp) {
	q := t.waiting[op.key]
	link, prev := &q.head, (*gmOp)(nil)
	for *link != op {
		prev, link = *link, &(*link).next
	}
	*link = op.next
	if q.tail == op {
		q.tail = prev
	}
	t.setFIFO(op.key, q)
}

// setFIFO stores key's queue, dropping drained keys: reply tags carry a
// sequence number, so keeping empty queues would keep one map entry per
// request ever completed.
func (t *GMTransport) setFIFO(key gmEvKey, q gmOpFIFO) {
	if q.head == nil {
		delete(t.waiting, key)
	} else {
		t.waiting[key] = q
	}
}

// dispatch hands one drained event to the oldest Op waiting for it.
// Events nobody waits for (e.g. send completions of fire-and-forget
// sends already retired) are dropped, as raw GM consumers do.
func (t *GMTransport) dispatch(ev gm.Event) {
	key := gmEvKey{send: ev.Type == gm.SendComplete, tag: ev.Tag}
	q := t.waiting[key]
	op := q.head
	if op == nil {
		return
	}
	q.head = op.next
	t.setFIFO(key, q)
	op.done = true
	op.st = Status{Src: ev.Src, Len: ev.Len, Err: ev.Err}
}

// drainUntil consumes events — paying the per-event host cost exactly
// as a raw consumer would — until op completes, then keeps draining
// whatever is already queued without blocking (batched completion
// delivery: later Waits find their Op already completed).
func (t *GMTransport) drainUntil(p *sim.Proc, op *gmOp) {
	for !op.done {
		var ev gm.Event
		if t.poll {
			ev = t.port.PollEvent(p)
		} else {
			ev = t.port.WaitEvent(p)
		}
		t.dispatch(ev)
	}
	for {
		ev, ok := t.port.TryEvent(p)
		if !ok {
			return
		}
		t.dispatch(ev)
	}
}

// Close implements Transport: flush the registration cache and drop
// long-lived registrations.
func (t *GMTransport) Close(p *sim.Proc) error {
	t.invalidatePool()
	if err := t.cache.Flush(p); err != nil {
		return err
	}
	// Deregistration issues simulated NIC commands; iterate in a
	// stable order so seed replay sees the same event schedule.
	keys := make([]regKey, 0, len(t.regions))
	for k := range t.regions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].as.ID() != keys[j].as.ID() {
			return keys[i].as.ID() < keys[j].as.ID()
		}
		return keys[i].va < keys[j].va
	})
	for _, k := range keys {
		r := t.regions[k]
		delete(t.regions, k)
		if err := t.port.DeregisterMemory(p, r); err != nil {
			return err
		}
	}
	return nil
}

// gmOp is an in-flight GM operation.
type gmOp struct {
	t        *GMTransport
	key      gmEvKey
	next     *gmOp // the Op enrolled behind this one under the same key
	done     bool
	released bool
	st       Status
}

// Done implements Op. GM completions are delivered only by draining
// the port's event queue, and draining charges per-event host work
// that needs a process to bill — so on this transport Done flips true
// only after some Wait (on any Op of the endpoint) has drained the
// queue past this operation's event. Poll with Wait, not Done.
func (o *gmOp) Done() bool { return o.done }

// Wait implements Op.
func (o *gmOp) Wait(p *sim.Proc) Status {
	if !o.done {
		o.t.drainUntil(p, o)
	}
	return o.st
}

// WaitTimeout implements TimedOp: the event drain runs against a
// deadline (each blocking consume bounded by the time remaining). On
// expiry the operation is still enrolled — callers time-bound waits
// must Cancel it, or a later Wait will find it.
func (o *gmOp) WaitTimeout(p *sim.Proc, d sim.Time) (Status, bool) {
	deadline := p.Now() + d
	for !o.done {
		left := deadline - p.Now()
		if left <= 0 {
			return Status{Err: ErrTimeout}, false
		}
		ev, ok := o.t.port.WaitEventTimeout(p, left)
		if !ok {
			return Status{Err: ErrTimeout}, false
		}
		o.t.dispatch(ev)
	}
	for {
		ev, ok := o.t.port.TryEvent(p)
		if !ok {
			break
		}
		o.t.dispatch(ev)
	}
	return o.st, true
}

// Cancel implements CancelableOp: an unmatched posted receive is
// withdrawn from the port (and from the adapter's dispatch table), so
// its buffer can never be scattered into. Send ops and matched
// receives report false.
func (o *gmOp) Cancel(p *sim.Proc) bool {
	if o.done || o.key.send {
		return false
	}
	if !o.t.port.CancelRecv(p, o.key.tag) {
		return false
	}
	o.t.unwait(o)
	o.done = true
	o.st = Status{Err: ErrTimeout}
	return true
}

// Release implements Op: a done Op is off every FIFO, so it goes back
// to the transport's free list for enroll to hand out again.
//
// allocfree
func (o *gmOp) Release() {
	if !o.done || o.released {
		panic("fabric: GM op released before it completed, or twice")
	}
	o.released = true
	o.t.free = append(o.t.free, o)
}

var _ Transport = (*GMTransport)(nil)
var _ TimedOp = (*gmOp)(nil)
var _ CancelableOp = (*gmOp)(nil)
