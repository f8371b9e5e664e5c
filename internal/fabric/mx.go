package fabric

// This file is the MX adapter: a Transport over one MX endpoint —
// vectorial, address-typed, registration-free, with per-operation
// waits (the paper's kernel API, §4).
import (
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/vm"
)

// MXTransport adapts a raw MX endpoint to the fabric. The mapping is
// nearly one-to-one — which is the paper's point: the MX kernel
// interface already is the API in-kernel applications want (§4.2).
// Registration is a no-op (MX pins internally per message), vectors
// and wildcard matching pass straight through.
type MXTransport struct {
	ep   *mx.Endpoint
	node *hw.Node
}

// NewMX opens MX endpoint epID on m (kernel or user per kernel) and
// wraps it as a fabric transport. opts are the Fig 6 copy-removal
// modes.
func NewMX(m *mx.MX, epID uint8, kernel bool, opts ...mx.Option) (*MXTransport, error) {
	ep, err := m.OpenEndpoint(epID, kernel, opts...)
	if err != nil {
		return nil, err
	}
	return &MXTransport{ep: ep, node: m.Node()}, nil
}

// Endpoint exposes the underlying MX endpoint (stats, tests).
func (t *MXTransport) Endpoint() *mx.Endpoint { return t.ep }

// Node implements Transport.
func (t *MXTransport) Node() *hw.Node { return t.node }

// LocalEP implements Transport.
func (t *MXTransport) LocalEP() uint8 { return t.ep.ID() }

// Caps implements Transport: vectorial, no registration, physical
// addressing on kernel endpoints; sends must be waited before buffer
// reuse (rendezvous), and a message longer than the medium limit is
// one.
func (t *MXTransport) Caps() Caps {
	return Caps{Vectors: true, Physical: t.ep.Kernel(), EagerMax: t.node.Cluster.Params.MXMediumMax}
}

// Register implements Transport: nothing to do, MX has no
// application-visible registration.
func (t *MXTransport) Register(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) error {
	return nil
}

// Deregister implements Transport.
func (t *MXTransport) Deregister(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr) error {
	return nil
}

// Acquire implements Transport: free — MX pins per message internally.
func (t *MXTransport) Acquire(p *sim.Proc, v core.Vector) (func(), error) {
	return func() {}, nil
}

// Send implements Transport. A destination whose NIC is dead fails
// synchronously with ErrPeerDead (the driver's dead-peer detection),
// so callers fail over instead of queueing doomed messages.
func (t *MXTransport) Send(p *sim.Proc, dst hw.NodeID, dstEP uint8, info uint64, v core.Vector) (Op, error) {
	if t.node.Cluster.Node(dst).NIC.Dead() {
		return nil, ErrPeerDead
	}
	req, err := t.ep.Send(p, dst, dstEP, info, v)
	if err != nil {
		return nil, err
	}
	return mxOp{req}, nil
}

// PostRecv implements Transport.
func (t *MXTransport) PostRecv(p *sim.Proc, match core.Match, v core.Vector) (Op, error) {
	req, err := t.ep.Recv(p, match, v)
	if err != nil {
		return nil, err
	}
	return mxOp{req}, nil
}

// Close implements Transport.
func (t *MXTransport) Close(p *sim.Proc) error { return nil }

// mxOp wraps an MX request. It is pointer-shaped — the request already
// knows its endpoint — so boxing it into an Op allocates nothing.
type mxOp struct{ req *mx.Request }

// Done implements Op.
func (o mxOp) Done() bool { return o.req.Done() }

// Wait implements Op.
func (o mxOp) Wait(p *sim.Proc) Status {
	st := o.req.Wait(p)
	return Status{Src: st.Src, Len: st.Len, Err: st.Err}
}

// WaitTimeout implements TimedOp via MX's native deadline wait.
func (o mxOp) WaitTimeout(p *sim.Proc, d sim.Time) (Status, bool) {
	st, ok := o.req.WaitTimeout(p, d)
	if !ok {
		return Status{Err: ErrTimeout}, false
	}
	return Status{Src: st.Src, Len: st.Len, Err: st.Err}, true
}

// Cancel implements CancelableOp via mx_cancel: an unmatched posted
// receive is withdrawn and its buffer can never be scattered into.
func (o mxOp) Cancel(p *sim.Proc) bool {
	return o.req.Cancel(p)
}

// OnDone implements NotifyOp via the request's completion callback.
func (o mxOp) OnDone(fn func()) { o.req.OnDone(fn) }

var _ Transport = (*MXTransport)(nil)
var _ TimedOp = mxOp{}
var _ CancelableOp = mxOp{}
var _ NotifyOp = mxOp{}
