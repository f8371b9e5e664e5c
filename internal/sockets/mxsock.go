package sockets

// This file is SOCKETS-MX: the stream stack over MX endpoints, whose
// rendezvous transfers lift large-message bandwidth (Fig 8(b)).
import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/vm"
)

// overflowSize bounds how much a single inbound message may exceed the
// posted user buffer; the excess lands in a kernel overflow buffer and
// is drained by later Recv calls.
const overflowSize = 1 << 20

// MXStack is the SOCKETS-MX provider for one node. Deployments use one
// endpoint number on every node, so a peer's endpoint equals ours.
type MXStack struct {
	*mux
	p  *hw.Params
	ep *mx.Endpoint

	ctl *fabric.Buffer // control send buffer, owned for the stack's lifetime
}

// NewMXStack attaches a SOCKETS-MX stack to a node, using MX kernel
// endpoint epID.
func NewMXStack(m *mx.MX, epID uint8) (*MXStack, error) {
	ep, err := m.OpenEndpoint(epID, true)
	if err != nil {
		return nil, err
	}
	s := &MXStack{p: m.Node().Cluster.Params, ep: ep}
	s.mux = newMux(m.Node(), s)
	ctl, err := fabric.PoolOf(s.node).Get(256)
	if err != nil {
		return nil, err
	}
	s.ctl = ctl
	s.node.Cluster.Env.Spawn(s.node.Name+"-sockmx-ctl", s.ctlPump)
	return s, nil
}

// mxConn is one SOCKETS-MX connection endpoint.
type mxConn struct {
	*stream
	stack       *MXStack
	overflowBuf *fabric.Buffer
}

// open implements myrinet. The per-connection overflow buffer (1 MB)
// is the expensive part of a SOCKETS-MX connection; pooling it makes
// dial/close cycles cheap.
func (s *MXStack) open(st *stream) (Conn, error) {
	overflow, err := fabric.PoolOf(s.node).Get(overflowSize)
	if err != nil {
		return nil, err
	}
	return &mxConn{stream: st, stack: s, overflowBuf: overflow}, nil
}

// sendCtl implements myrinet.
func (s *MXStack) sendCtl(p *sim.Proc, dst hw.NodeID, m ctlMsg) {
	s.node.Kernel.WriteBytes(s.ctl.VA(), m.encode())
	req, err := s.ep.Send(p, dst, s.ep.ID(), chCtl,
		core.Of(core.KernelSeg(s.node.Kernel, s.ctl.VA(), ctlLen)))
	if err != nil {
		panic(err)
	}
	req.Wait(p)
}

// ctlPump handles SYN/SYN-ACK/FIN for the whole stack. A FIN only
// marks the connection: a Recv blocked in MX polls for it.
func (s *MXStack) ctlPump(p *sim.Proc) {
	kern := s.node.Kernel
	buf, err := fabric.PoolOf(s.node).Get(256)
	if err != nil {
		panic(err)
	}
	bufVA := buf.VA()
	for {
		req, err := s.ep.Recv(p, core.Exact(chCtl), core.Of(core.KernelSeg(kern, bufVA, 256)))
		if err != nil {
			panic(err)
		}
		st := req.Wait(p)
		raw, _ := kern.ReadBytes(bufVA, st.Len)
		s.handle(p, st.Src, raw)
	}
}

// Send implements Conn: a system call, the thin SOCKETS-MX protocol
// layer, then a native MX send of the user buffer itself.
func (c *mxConn) Send(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	s := c.stack
	s.node.CPU.Syscall(p)
	s.node.CPU.Compute(p, s.p.SockMXOverhead)
	req, err := s.ep.Send(p, c.peerNode, s.ep.ID(), dataTag(c.peerID),
		core.Of(core.UserSeg(as, va, n)))
	if err != nil {
		return 0, err
	}
	st := req.Wait(p)
	return st.Len, st.Err
}

// Recv implements Conn: drain buffered overflow first; otherwise post
// a vectorial [user | kernel-overflow] receive so stream bytes land
// directly in the application buffer (MX's vectorial primitives are
// what make this possible — §4.1).
func (c *mxConn) Recv(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	s := c.stack
	// Pin the overflow buffer before any charge can park this proc: a
	// concurrent Close must not recycle it once we are committed to
	// posting a receive over it.
	c.overflowBuf.Pin()
	defer c.overflowBuf.Unpin()
	s.node.CPU.Syscall(p)
	s.node.CPU.Compute(p, s.p.SockMXOverhead)
	if len(c.buffered) > 0 {
		return drain(p, s.node, &c.buffered, as, va, n)
	}
	if c.eof {
		return 0, nil
	}
	req, err := s.ep.Recv(p, core.Exact(dataTag(c.localID)), core.Vector{
		core.UserSeg(as, va, n),
		core.KernelSeg(s.node.Kernel, c.overflowBuf.VA(), overflowSize),
	})
	if err != nil {
		return 0, err
	}
	// Block until data or FIN.
	for !req.Done() && !c.eof {
		if st, ok := req.WaitTimeout(p, sim.Time(1e5)); ok {
			return c.finishRecv(p, st, n)
		}
	}
	if req.Done() {
		st, _ := req.WaitTimeout(p, 0)
		return c.finishRecv(p, st, n)
	}
	// EOF raced the receive. Withdraw the posted receive so it can
	// never scatter into the overflow buffer after the connection
	// releases it.
	if s.ep.CancelRecv(p, req) {
		return 0, nil
	}
	// The receive matched concurrently (e.g. a rendezvous whose data
	// is still in flight): completion is bounded, so consume it and
	// deliver the data rather than dropping it at EOF.
	st := req.Wait(p)
	return c.finishRecv(p, st, n)
}

func (c *mxConn) finishRecv(p *sim.Proc, st mx.Status, n int) (int, error) {
	if st.Err != nil {
		return 0, st.Err
	}
	got := st.Len
	if got > n {
		// Overflow bytes went to the kernel buffer; stage them.
		extra := got - n
		raw, err := c.stack.node.Kernel.ReadBytes(c.overflowBuf.VA(), extra)
		if err != nil {
			return 0, err
		}
		c.buffered = append(c.buffered, raw...)
		got = n
	}
	return got, nil
}

// Close implements Conn.
func (c *mxConn) Close(p *sim.Proc) error {
	if !c.stack.close(p, c.stream) {
		return nil
	}
	// Hand the 1 MB overflow buffer back; the pool defers recycling
	// until an in-flight Recv unpins, and an EOF-raced posted receive
	// was withdrawn (connection IDs are never reused, so it is
	// otherwise quiescent).
	c.overflowBuf.Release()
	return nil
}

var _ Stack = (*MXStack)(nil)
