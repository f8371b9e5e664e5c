package sockets

// This file is the connection layer every stack shares: listening
// ports and their accept queues, and — for the two Myrinet stacks —
// connection identifiers, the SYN / SYN-ACK / FIN handshake and its
// one control message. What a stack keeps for itself is how a control
// message and a chunk of stream data travel (§5.3).
import (
	"encoding/binary"
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vm"
)

// listener is one listening port's accept queue.
type listener struct{ backlog *sim.Chan[Conn] }

// Accept implements Listener.
func (l *listener) Accept(p *sim.Proc) (Conn, error) { return l.backlog.Recv(p), nil }

// ports is a stack's table of listening ports.
type ports struct {
	env       *sim.Engine
	listeners map[Port]*listener
}

func newPorts(env *sim.Engine) ports {
	return ports{env: env, listeners: make(map[Port]*listener)}
}

// Listen implements Stack.
func (t *ports) Listen(port Port) (Listener, error) {
	if _, dup := t.listeners[port]; dup {
		return nil, fmt.Errorf("sockets: port %d already listening", port)
	}
	l := &listener{backlog: sim.NewChan[Conn](t.env)}
	t.listeners[port] = l
	return l, nil
}

// drain copies up to n bytes a connection already holds out to the
// application buffer.
func drain(p *sim.Proc, node *hw.Node, held *[]byte, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error) {
	take := min(n, len(*held))
	node.CPU.Copy(p, take)
	if err := as.WriteBytes(va, (*held)[:take]); err != nil {
		return 0, err
	}
	*held = (*held)[take:]
	return take, nil
}

// Wire tags of the Myrinet stacks (MX match information, GM tags): the
// channel in the low 8 bits, the destination connection above. All
// control traffic of a stack shares the one tag chCtl; the connection a
// control message addresses rides in its payload.
const (
	chCtl  uint64 = 1 // SYN / SYN-ACK / FIN
	chData uint64 = 2
)

func dataTag(conn uint32) uint64 { return uint64(conn)<<8 | chData }

// Control message kinds.
const (
	ctlSYN    uint8 = iota + 1 // a = dialer's connection, b = port
	ctlSYNACK                  // a = acceptor's connection, b = dialer's
	ctlFIN                     // a = the receiver's connection
)

// ctlLen is the control message's wire size: kind, a, b.
const ctlLen = 9

// ctlMsg is the connection layer's one control message.
type ctlMsg struct {
	kind uint8
	a, b uint32
}

func (m ctlMsg) encode() []byte {
	buf := make([]byte, ctlLen)
	buf[0] = m.kind
	binary.LittleEndian.PutUint32(buf[1:], m.a)
	binary.LittleEndian.PutUint32(buf[5:], m.b)
	return buf
}

// myrinet is what a Myrinet stack brings to the connection layer.
type myrinet interface {
	// sendCtl delivers m to dst's control pump.
	sendCtl(p *sim.Proc, dst hw.NodeID, m ctlMsg)
	// open builds the stack's connection — its buffers — around st.
	open(st *stream) (Conn, error)
}

// stream is the state of one connection end that does not depend on
// the stack carrying it.
type stream struct {
	localID, peerID uint32
	peerNode        hw.NodeID
	conn            Conn // the stack's connection around this stream

	established *sim.Signal
	buffered    []byte // received beyond what Recv asked for
	eof, closed bool
	// onFIN, when set, tells the stack that eof just became true (a
	// Recv parked where only the stack can reach it).
	onFIN func()
}

// mux is the connection table of one Myrinet stack.
type mux struct {
	ports
	node     *hw.Node
	stack    myrinet
	conns    map[uint32]*stream // every open connection, by local id
	dials    map[uint32]*stream // awaiting SYN-ACK
	nextConn uint32
}

func newMux(node *hw.Node, stack myrinet) *mux {
	return &mux{
		ports: newPorts(node.Cluster.Env), node: node, stack: stack,
		conns: make(map[uint32]*stream), dials: make(map[uint32]*stream), nextConn: 1,
	}
}

func (m *mux) newStream(peer hw.NodeID) (*stream, error) {
	st := &stream{localID: m.nextConn, peerNode: peer, established: sim.NewSignal(m.env)}
	m.nextConn++
	var err error
	if st.conn, err = m.stack.open(st); err != nil {
		return nil, err
	}
	m.conns[st.localID] = st
	return st, nil
}

// Dial implements Stack.
func (m *mux) Dial(p *sim.Proc, peerNode int, port Port) (Conn, error) {
	m.node.CPU.Syscall(p)
	st, err := m.newStream(hw.NodeID(peerNode))
	if err != nil {
		return nil, err
	}
	m.dials[st.localID] = st
	m.stack.sendCtl(p, st.peerNode, ctlMsg{ctlSYN, st.localID, uint32(port)})
	if !st.established.WaitTimeout(p, 10*sim.Time(1e6)) {
		return nil, ErrRefused
	}
	return st.conn, nil
}

// handle runs one received control message (the stack's control pump
// calls it). A SYN for a port nobody listens on is dropped: the dialer
// times out.
func (m *mux) handle(p *sim.Proc, src hw.NodeID, raw []byte) {
	if len(raw) < ctlLen {
		return
	}
	a, b := binary.LittleEndian.Uint32(raw[1:]), binary.LittleEndian.Uint32(raw[5:])
	switch raw[0] {
	case ctlSYN:
		l := m.listeners[Port(b)]
		if l == nil {
			return
		}
		st, err := m.newStream(src)
		if err != nil {
			return
		}
		st.peerID = a
		st.established.Fire()
		m.stack.sendCtl(p, src, ctlMsg{ctlSYNACK, st.localID, a})
		l.backlog.Send(st.conn)
	case ctlSYNACK:
		if st := m.dials[b]; st != nil {
			delete(m.dials, b)
			st.peerID = a
			st.established.Fire()
		}
	case ctlFIN:
		if st := m.conns[a]; st != nil {
			st.eof = true
			if st.onFIN != nil {
				st.onFIN()
			}
		}
	}
}

// close is the shared half of Conn.Close: it reports false when the
// connection was closed already, else sends the FIN and forgets the
// connection, leaving the stack to release its buffers.
func (m *mux) close(p *sim.Proc, st *stream) bool {
	if st.closed {
		return false
	}
	st.closed = true
	m.node.CPU.Syscall(p)
	m.stack.sendCtl(p, st.peerNode, ctlMsg{ctlFIN, st.peerID, 0})
	delete(m.conns, st.localID)
	return true
}
