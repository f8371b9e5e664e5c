package fabric

// This file adapts the byte-stream stacks (SOCKETS-GM, SOCKETS-MX,
// TCP) to the Transport interface: matching is ignored, message
// boundaries are not preserved, and operations complete synchronously.
import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vm"
)

// StreamConn is the blocking stream-connection shape the socket stacks
// expose (sockets.Conn satisfies it structurally; fabric deliberately
// does not import package sockets so that sockets can sit on the
// fabric's buffer pool without an import cycle).
type StreamConn interface {
	Send(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error)
	Recv(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error)
	Close(p *sim.Proc) error
}

// StreamTransport adapts one side of an established stream connection
// of any family (SOCKETS-GM, SOCKETS-MX, TCP) to the fabric. Streams
// have no tags and no boundaries, so matching is ignored and receives
// complete synchronously (the blocking socket call has returned by the
// time the Op exists); PostRecv loops until the posted vector is full
// or EOF, the way stream consumers must.
type StreamTransport struct {
	node *hw.Node
	peer hw.NodeID
	conn StreamConn
}

// NewStream wraps an established stream connection on node (peer is
// the remote node, reported in receive Statuses).
func NewStream(node *hw.Node, peer hw.NodeID, conn StreamConn) *StreamTransport {
	return &StreamTransport{node: node, peer: peer, conn: conn}
}

// Node implements Transport.
func (t *StreamTransport) Node() *hw.Node { return t.node }

// LocalEP implements Transport: streams are connection-oriented and
// need no endpoint number.
func (t *StreamTransport) LocalEP() uint8 { return 0 }

// Caps implements Transport.
func (t *StreamTransport) Caps() Caps {
	return Caps{Stream: true, EagerSend: true}
}

// Register implements Transport: streams take plain virtual buffers.
func (t *StreamTransport) Register(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) error {
	return nil
}

// Deregister implements Transport.
func (t *StreamTransport) Deregister(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr) error {
	return nil
}

// Acquire implements Transport.
func (t *StreamTransport) Acquire(p *sim.Proc, v core.Vector) (func(), error) {
	return func() {}, nil
}

// seg extracts the single virtual segment streams can address.
func (t *StreamTransport) seg(v core.Vector) (core.Segment, error) {
	if len(v) != 1 || v[0].Type == core.Physical {
		return core.Segment{}, fmt.Errorf("fabric: stream sockets address one virtual buffer per call")
	}
	return v[0], nil
}

// Send implements Transport: a blocking socket write of the whole
// segment; the returned Op is already complete.
func (t *StreamTransport) Send(p *sim.Proc, dst hw.NodeID, dstEP uint8, info uint64, v core.Vector) (Op, error) {
	s, err := t.seg(v)
	if err != nil {
		return nil, err
	}
	sent, err := t.conn.Send(p, s.AS, s.VA, s.Len)
	if err != nil {
		return nil, err
	}
	if sent != s.Len {
		return nil, fmt.Errorf("fabric: short stream send %d/%d", sent, s.Len)
	}
	return completedOp{Status{Src: t.peer, Len: sent}}, nil
}

// PostRecv implements Transport: loop the blocking socket read until
// the buffer is full or the peer closed; the returned Op is already
// complete. A zero-length read before any data means EOF.
func (t *StreamTransport) PostRecv(p *sim.Proc, match core.Match, v core.Vector) (Op, error) {
	s, err := t.seg(v)
	if err != nil {
		return nil, err
	}
	got := 0
	for got < s.Len {
		r, err := t.conn.Recv(p, s.AS, s.VA+vm.VirtAddr(got), s.Len-got)
		if err != nil {
			// Report the bytes already landed alongside the error, as
			// sockets.RecvAll does: partial stream reads are real data.
			return completedOp{Status{Src: t.peer, Len: got, Err: err}}, nil
		}
		if r == 0 {
			break
		}
		got += r
	}
	return completedOp{Status{Src: t.peer, Len: got}}, nil
}

// Close implements Transport.
func (t *StreamTransport) Close(p *sim.Proc) error { return t.conn.Close(p) }

var _ Transport = (*StreamTransport)(nil)
