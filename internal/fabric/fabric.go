// Package fabric is the unified transport layer of the repository: one
// Transport interface — open/close, register/deregister, tagged
// scatter-gather send/receive over core.Vector, explicit completion
// delivery — with adapters for every interconnect the paper evaluates:
// raw GM ports, raw MX endpoints, and the three socket stacks
// (SOCKETS-GM, SOCKETS-MX, TCP/GigE).
//
// Before this layer existed, every consumer (the netpipe harness, the
// ORFA/ORFS clients, the socket layers, the NBD device) hand-rolled its
// own endpoint setup, buffer registration and send/receive loop per
// interconnect. The fabric factors that boilerplate out the same way
// the paper's MX kernel interface factors it out of in-kernel
// applications (§4): consumers describe memory with address-typed
// vectors and let the transport decide how to move it.
//
// The interface is deliberately the intersection-plus-capabilities
// shape the paper argues for rather than a lowest common denominator:
//
//   - Transports advertise Caps. GM has no vectorial primitives and
//     requires registration; MX is vectorial and registration-free;
//     the socket stacks are byte streams. Consumers branch on Caps —
//     exactly the asymmetry the paper measures, made explicit in one
//     place instead of duplicated per consumer.
//   - Register/Acquire generalize GM's registration model: Register
//     pins a long-lived buffer once (amortized, §2.2.2); Acquire runs
//     per-transfer user buffers through the transport's registration
//     cache (GMKRC, §3.2). On transports without registration both are
//     free no-ops, so consumer code is written once.
//   - Send/PostRecv return Ops. Completion delivery is batched: one
//     blocking wait drains every completion already queued (GM's unique
//     event queue forces consuming them anyway; the fabric routes each
//     to its Op instead of dropping foreign completions on the floor).
//
// A sixth adapter (e.g. a sharded multi-NIC backend) only has to
// implement Transport and pass the conformance suite in
// conformance_test.go.
package fabric

import (
	"errors"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Fault errors: transport-level failures, distinguishable from every
// application-level status so consumers (the striped cluster's
// failover, the degraded-operation experiments) can tell a dead server
// from a full disk. Both satisfy IsFault.
var (
	// ErrPeerDead reports a send addressed to a node whose NIC is dead —
	// the fabric analogue of a driver's dead-peer detection (GM's send
	// timeouts), delivered synchronously so callers fail over instead of
	// filling a window with doomed requests.
	ErrPeerDead = errors.New("fabric: peer unreachable (NIC dead)")
	// ErrTimeout reports a timed wait that expired before the operation
	// completed — the only way to observe a peer that died after
	// accepting a request.
	ErrTimeout = errors.New("fabric: operation timed out")
)

// IsFault reports whether err is a transport fault (dead peer or
// timeout) rather than an application-level failure. Errors wrapped
// with %w are recognized.
func IsFault(err error) bool {
	return errors.Is(err, ErrPeerDead) || errors.Is(err, ErrTimeout)
}

// Caps describes what a transport can do; consumers branch on it
// instead of on concrete adapter types.
type Caps struct {
	// Vectors: one message may gather/scatter a multi-segment
	// core.Vector (MX §4.1). Without it, callers must split header and
	// payload into separate messages (GM).
	Vectors bool
	// Physical: physical-address segments are accepted as-is — the
	// paper's §3.3 kernel extension (GM kernel ports, MX kernel
	// endpoints).
	Physical bool
	// NeedsReg: virtual memory must be registered (Register/Acquire)
	// before Send/PostRecv may name it (GM).
	NeedsReg bool
	// EagerSend: the send Op reports end-to-end delivery (GM's token
	// flow control completes a send when the peer's NIC acknowledged
	// it; a stream socket's write blocks until then), so a sender whose
	// protocol already tells it the message arrived — a ping-pong
	// holding its pong — may skip waiting the Op. It does not make the
	// buffer reusable when Send returns: GM hands the extents to the
	// NIC, which gathers them at DMA time. On every transport a sent
	// buffer is reusable once its Op is Done, no sooner; the rule is
	// stated where it is applied, at rfsrv.Server.reply.
	EagerSend bool
	// Stream: byte-stream semantics — matching is ignored, message
	// boundaries are not preserved, receives complete synchronously
	// (the socket adapters).
	Stream bool
}

// Status is the outcome of a completed operation.
type Status struct {
	Src hw.NodeID // sending node (receives on message transports)
	Len int       // bytes transferred
	Err error     // truncation etc.
}

// Op is an in-flight send or receive.
type Op interface {
	// Done reports completion without blocking or charging. On
	// transports whose completions must be drained from a shared event
	// queue (GM), Done only observes completions some Wait has already
	// delivered — use Wait to make progress.
	Done() bool
	// Wait blocks until the operation completes, charging the
	// transport's completion-processing cost exactly once, and returns
	// the outcome.
	Wait(p *sim.Proc) Status
}

// Transport is one endpoint of the unified fabric.
//
// All methods follow the cost discipline of the underlying driver
// models: they charge simulated time to p for exactly the work the
// modelled hardware/driver would do, so measurements taken over the
// fabric reproduce the paper's figures unchanged.
type Transport interface {
	// Node returns the node this endpoint lives on.
	Node() *hw.Node
	// LocalEP returns the endpoint/port number peers address this
	// transport by (0 on connection-oriented streams, which need none).
	LocalEP() uint8
	// Caps returns the transport's capabilities.
	Caps() Caps
	// Register pins [va, va+n) of as for the lifetime of the endpoint
	// (or until Deregister) and enters it into the NIC translation
	// table where the transport needs that. Free on transports without
	// registration.
	Register(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) error
	// Deregister undoes a Register (paying the deregistration cost
	// where the transport has one).
	Deregister(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr) error
	// Acquire prepares the user-virtual segments of v for one transfer
	// through the transport's registration cache. The returned release
	// must be called once the transfer's data phase is over; under a
	// disabled cache it pays the immediate deregistration the paper's
	// Fig 3(b) "without Reg. Cache" curve measures.
	Acquire(p *sim.Proc, v core.Vector) (release func(), err error)
	// Send transmits v to endpoint (dst, dstEP) with match information
	// info. The Op completes when the local buffer is reusable
	// end-to-end (see Caps.EagerSend for when that wait is required).
	Send(p *sim.Proc, dst hw.NodeID, dstEP uint8, info uint64, v core.Vector) (Op, error)
	// PostRecv posts v for the next message matching match. Transports
	// without wildcard matching (GM) only accept exact matches.
	PostRecv(p *sim.Proc, match core.Match, v core.Vector) (Op, error)
	// Close tears the endpoint down, deregistering what it registered.
	Close(p *sim.Proc) error
}

// TimedOp is implemented by Ops whose completion can be awaited with a
// deadline (the message transports). ok is false — and the operation
// is still in flight — when d elapsed first; the Status returned then
// carries ErrTimeout and nothing else.
type TimedOp interface {
	Op
	// WaitTimeout is Wait with a deadline of d from now.
	WaitTimeout(p *sim.Proc, d sim.Time) (Status, bool)
}

// CancelableOp is implemented by receive Ops that can be withdrawn
// before they match, guaranteeing the buffer is never scattered into.
type CancelableOp interface {
	Op
	// Cancel withdraws the posted receive; false means it already
	// matched (the caller must Wait it to quiescence instead).
	Cancel(p *sim.Proc) bool
}

// WaitTimeout waits op for at most d (d <= 0 means forever). On
// transports whose Ops do not support deadlines it degrades to a plain
// Wait. ok is false only on expiry, with Status{Err: ErrTimeout}.
func WaitTimeout(p *sim.Proc, op Op, d sim.Time) (Status, bool) {
	if d > 0 {
		if t, ok := op.(TimedOp); ok {
			return t.WaitTimeout(p, d)
		}
	}
	return op.Wait(p), true
}

// Cancel withdraws a posted receive whose reply the caller has given
// up on. It reports whether the withdrawal took: false means the
// operation matched (or the transport cannot cancel) and must be
// Waited to quiescence before its buffer is reused.
func Cancel(p *sim.Proc, op Op) bool {
	if c, ok := op.(CancelableOp); ok {
		return c.Cancel(p)
	}
	return false
}

// completedOp is a pre-completed operation (stream transports, whose
// blocking calls finish before returning).
type completedOp struct{ st Status }

// Done implements Op (always complete).
func (o completedOp) Done() bool { return true }

// Wait implements Op: the stored outcome, no blocking, no charge.
func (o completedOp) Wait(p *sim.Proc) Status { return o.st }
