package sockets

// This file is SOCKETS-GM: the stream stack over GM ports, paying
// GM's registration and event-queue costs on every transfer.
import (
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// gmChunk is the staging-buffer granularity of SOCKETS-GM: every send
// is copied into a registered kernel bounce buffer of this size and
// shipped chunk by chunk (GM offers no vectors and requires registered
// or physical memory, so the user buffer cannot be handed to the NIC
// directly without the whole GMKRC machinery — §5.3: "memory
// registration problems are similar to ORFS direct file access
// troubles").
const gmChunk = 32 * 1024

// GMStack is the SOCKETS-GM provider for one node.
type GMStack struct {
	*mux
	p    *hw.Params
	port *gm.Port

	// The dispatching kernel thread (§5.3): all completions funnel
	// through it, adding a context switch to every blocking wait.
	waiters map[uint64]*sim.Chan[gm.Event]

	ctl   *fabric.Buffer // owned for the stack's lifetime
	ctlXS []mem.Extent
}

// NewGMStack attaches a SOCKETS-GM stack to a node on GM kernel port
// portID.
func NewGMStack(g *gm.GM, portID uint8) (*GMStack, error) {
	port, err := g.OpenPort(portID, true)
	if err != nil {
		return nil, err
	}
	s := &GMStack{p: g.Node().Cluster.Params, port: port, waiters: make(map[uint64]*sim.Chan[gm.Event])}
	s.mux = newMux(g.Node(), s)
	ctl, err := fabric.PoolOf(s.node).Get(256)
	if err != nil {
		return nil, err
	}
	s.ctl, s.ctlXS = ctl, ctl.Extents(256)
	s.node.Cluster.Env.Spawn(s.node.Name+"-sockgm-dispatch", s.dispatcher)
	s.node.Cluster.Env.Spawn(s.node.Name+"-sockgm-ctl", s.ctlPump)
	return s, nil
}

// sendKey distinguishes send-completion waiters from receive waiters
// in the dispatcher's table.
const sendKey = uint64(1) << 63

// dispatcher is the extra kernel thread GM's completion model forces
// (§5.3): it blocks on the port's unique event queue and hands each
// completion to whichever socket operation is waiting for it. The
// thread's sleep/wake cost (charged inside gm.Port.WaitEvent) is what
// lifts SOCKETS-GM's one-way latency to ~15 µs.
func (s *GMStack) dispatcher(p *sim.Proc) {
	for {
		ev := s.port.WaitEvent(p)
		var key uint64
		switch ev.Type {
		case gm.RecvComplete:
			key = ev.Tag
		case gm.SendComplete:
			key = ev.Tag | sendKey
		default:
			continue
		}
		if w := s.waiters[key]; w != nil {
			delete(s.waiters, key)
			w.Send(ev)
		}
		// Unclaimed completions (e.g. a FIN racing a close) are dropped.
	}
}

// reserve registers interest in a completion before the operation that
// produces it is issued (the dispatcher drops unclaimed completions).
func (s *GMStack) reserve(key uint64) *sim.Chan[gm.Event] {
	ch := sim.NewChan[gm.Event](s.node.Cluster.Env)
	s.waiters[key] = ch
	return ch
}

// gmConn is one SOCKETS-GM connection endpoint.
type gmConn struct {
	*stream
	stack      *GMStack
	seq        uint64 // per-conn data sequence (tags successive chunks)
	rseq       uint64
	pendingTag uint64 // tag of an in-flight Recv (for FIN unblocking)

	txXS, rxXS   []mem.Extent
	txBuf, rxBuf *fabric.Buffer
}

// open implements myrinet.
func (s *GMStack) open(st *stream) (Conn, error) {
	// Per-connection bounce buffers come from the node's shared fabric
	// pool: closed connections' buffers are recycled across every
	// consumer on the node instead of leaking one mapping per dial.
	pool := fabric.PoolOf(s.node)
	tx, err := pool.Get(gmChunk)
	if err != nil {
		return nil, err
	}
	rx, err := pool.Get(gmChunk)
	if err != nil {
		tx.Release()
		return nil, err
	}
	c := &gmConn{stream: st, stack: s, txBuf: tx, rxBuf: rx,
		txXS: tx.Extents(gmChunk), rxXS: rx.Extents(gmChunk)}
	st.onFIN = c.unblockRecv
	return c, nil
}

// sendCtl implements myrinet (GM matches by exact tag, so
// per-connection control tags would need per-connection posted
// receives).
func (s *GMStack) sendCtl(p *sim.Proc, dst hw.NodeID, m ctlMsg) {
	s.node.Kernel.WriteBytes(s.ctl.VA(), m.encode())
	xs := []mem.Extent{{Addr: s.ctlXS[0].Addr, Len: ctlLen}}
	if err := s.port.SendPhysical(p, dst, s.port.ID(), chCtl, xs); err != nil {
		panic(err)
	}
}

// ctlPump keeps a control receive posted and handles connection
// management events handed over by the dispatcher.
func (s *GMStack) ctlPump(p *sim.Proc) {
	kern := s.node.Kernel
	buf, err := fabric.PoolOf(s.node).Get(256)
	if err != nil {
		panic(err)
	}
	bufVA, bufXS := buf.VA(), buf.Extents(256)
	for {
		ch := s.reserve(chCtl)
		if err := s.port.PostRecvPhysical(p, chCtl, bufXS); err != nil {
			panic(err)
		}
		ev := ch.Recv(p)
		raw, _ := kern.ReadBytes(bufVA, ev.Len)
		s.handle(p, ev.Src, raw)
	}
}

// unblockRecv wakes a Recv parked on the dispatcher when the peer's
// FIN arrives, with a zero-length event.
func (c *gmConn) unblockRecv() {
	s := c.stack
	if w := s.waiters[c.pendingTag]; c.pendingTag != 0 && w != nil {
		delete(s.waiters, c.pendingTag)
		w.Send(gm.Event{Type: gm.RecvComplete, Len: 0})
	}
}

// Send implements Conn: copy the user buffer into the registered
// kernel bounce (chunk by chunk) and ship each chunk with the
// physical-address primitives. Two copies per byte end to end — the
// §5.3 bandwidth ceiling.
func (c *gmConn) Send(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	s := c.stack
	// Pin the bounce before any charge can park this proc: a
	// concurrent Close must not recycle it once we are committed.
	c.txBuf.Pin()
	defer c.txBuf.Unpin()
	s.node.CPU.Syscall(p)
	s.node.CPU.Compute(p, s.p.SockGMOverhead)
	sent := 0
	for sent < n {
		chunk := n - sent
		if chunk > gmChunk {
			chunk = gmChunk
		}
		// Stage: user → bounce.
		data, err := as.ReadBytes(va+vm.VirtAddr(sent), chunk)
		if err != nil {
			return sent, err
		}
		s.node.CPU.Copy(p, chunk)
		if err := s.node.Kernel.WriteBytes(c.txBuf.VA(), data); err != nil {
			return sent, err
		}
		xs := mem.Clip(c.txXS, chunk)
		c.seq++
		stag := dataTag(c.peerID) + c.seq<<40
		done := s.reserve(stag | sendKey)
		if err := s.port.SendPhysical(p, c.peerNode, s.port.ID(), stag, xs); err != nil {
			delete(s.waiters, stag|sendKey)
			return sent, err
		}
		sent += chunk
		// The single bounce buffer cannot be rewritten until GM
		// reports the send complete — and GM completion is end-to-end
		// (ACK-based), so every chunk serializes on a full delivery: a
		// real SOCKETS-GM bandwidth limiter.
		done.Recv(p)
	}
	return sent, nil
}

// Recv implements Conn: data lands in the registered kernel bounce and
// is copied out to the user buffer after a dispatcher hand-off.
func (c *gmConn) Recv(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	s := c.stack
	// Pin the rx bounce against a concurrent Close recycling it while
	// this Recv is parked (before the first charge can park us).
	c.rxBuf.Pin()
	defer c.rxBuf.Unpin()
	s.node.CPU.Syscall(p)
	s.node.CPU.Compute(p, s.p.SockGMOverhead)
	if len(c.buffered) > 0 {
		return drain(p, s.node, &c.buffered, as, va, n)
	}
	if c.eof {
		return 0, nil
	}
	c.rseq++
	tag := dataTag(c.localID) + c.rseq<<40
	ch := s.reserve(tag)
	c.pendingTag = tag
	if err := s.port.PostRecvPhysical(p, tag, c.rxXS); err != nil {
		delete(s.waiters, tag)
		return 0, err
	}
	ev := ch.Recv(p)
	c.pendingTag = 0
	if ev.Len == 0 {
		// FIN unblocked us with a synthetic event. Withdraw the posted
		// receive so it cannot scatter into the rx bounce after the
		// connection releases it. If the cancel misses, the receive
		// already matched — and GM scatters at match time, so the
		// bounce is already quiescent; its data is dropped at EOF
		// (the completion, if still queued, goes unclaimed like any
		// other completion racing a close).
		s.port.CancelRecv(p, tag)
		return 0, nil
	}
	// Copy bounce → user.
	got := ev.Len
	raw, err := s.node.Kernel.ReadBytes(c.rxBuf.VA(), got)
	if err != nil {
		return 0, err
	}
	take := got
	if take > n {
		take = n
		c.buffered = append(c.buffered, raw[take:]...)
	}
	s.node.CPU.Copy(p, take)
	if err := as.WriteBytes(va, raw[:take]); err != nil {
		return 0, err
	}
	return take, nil
}

// Close implements Conn.
func (c *gmConn) Close(p *sim.Proc) error {
	if !c.stack.close(p, c.stream) {
		return nil
	}
	// Hand both bounces back; the pool defers actual recycling until
	// in-flight operations unpin. FIN-stale posted receives were
	// withdrawn (Port.CancelRecv) when the race was detected, so both
	// buffers recycle instead of leaking.
	c.txBuf.Release()
	c.rxBuf.Release()
	return nil
}

var _ Stack = (*GMStack)(nil)
