package sockets

// This file is the TCP/GigE stack: the commodity baseline the paper
// compares the Myrinet stacks against.
import (
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vm"
)

// TCPStack is the baseline the paper contrasts against: the standard
// socket interface over TCP/IP on Gigabit Ethernet. Rather than
// modelling the whole protocol machine, it charges the well-known
// costs: per-message stack traversal (~tens of µs of latency),
// checksum + fragmentation work proportional to the byte count
// ("TCP/IP is known to use 50 % of the overall transaction cost",
// §5.3 citing [Sum00]), a copy on each side, and 125 MB/s of wire.
type TCPStack struct {
	ports
	node *hw.Node
	p    *hw.Params

	// ethernet transmit link of this node (shared by all connections).
	link *sim.Resource
}

// tcpRegistry wires the per-node stacks of one cluster together.
type tcpRegistry struct {
	stacks map[hw.NodeID]*TCPStack
}

var tcpNets = map[*sim.Engine]*tcpRegistry{}

// NewTCPStack attaches the TCP/GigE baseline stack to a node.
func NewTCPStack(node *hw.Node) *TCPStack {
	s := &TCPStack{
		ports: newPorts(node.Cluster.Env),
		node:  node,
		p:     node.Cluster.Params,
		link:  sim.NewResource(node.Cluster.Env, node.Name+"-eth", 1),
	}
	reg := tcpNets[node.Cluster.Env]
	if reg == nil {
		reg = &tcpRegistry{stacks: make(map[hw.NodeID]*TCPStack)}
		tcpNets[node.Cluster.Env] = reg
	}
	reg.stacks[node.ID] = s
	return s
}

// tcpConn is one connection endpoint; peers hold pointers to each
// other and exchange byte slices through a simulated wire.
type tcpConn struct {
	stack  *TCPStack
	peer   *tcpConn
	inbox  *sim.Chan[[]byte]
	buf    []byte
	eof    bool
	closed bool
}

// Dial implements Stack.
func (s *TCPStack) Dial(p *sim.Proc, peerNode int, port Port) (Conn, error) {
	reg := tcpNets[s.node.Cluster.Env]
	peer := reg.stacks[hw.NodeID(peerNode)]
	if peer == nil {
		return nil, ErrRefused
	}
	l := peer.listeners[port]
	if l == nil {
		return nil, ErrRefused
	}
	s.node.CPU.Syscall(p)
	// Three-way handshake: ~1.5 RTTs of base latency.
	p.Sleep(3 * s.p.TCPLatency)
	local := &tcpConn{stack: s, inbox: sim.NewChan[[]byte](s.node.Cluster.Env)}
	remote := &tcpConn{stack: peer, inbox: sim.NewChan[[]byte](s.node.Cluster.Env)}
	local.peer, remote.peer = remote, local
	l.backlog.Send(remote)
	return local, nil
}

// Send implements Conn.
func (c *tcpConn) Send(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	s := c.stack
	s.node.CPU.Syscall(p)
	data, err := as.ReadBytes(va, n)
	if err != nil {
		return 0, err
	}
	// Stack traversal: copy into socket buffers + checksum +
	// fragmentation, all host CPU work.
	s.node.CPU.Copy(p, n)
	s.node.CPU.Compute(p, s.p.TCPPerMessage+btime(n, s.p.TCPChecksum))
	// Wire: occupy the Ethernet transmitter, then deliver after the
	// base latency (which covers the receive-side stack+interrupt).
	s.link.Use(p, btime(n, s.p.TCPLinkBW))
	peer := c.peer
	s.node.Cluster.Env.AfterDetached(s.p.TCPLatency, func() { peer.inbox.Send(data) })
	return n, nil
}

// Recv implements Conn.
func (c *tcpConn) Recv(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	s := c.stack
	s.node.CPU.Syscall(p)
	for len(c.buf) == 0 {
		if c.eof {
			return 0, nil
		}
		seg := c.inbox.Recv(p)
		if seg == nil {
			c.eof = true
			return 0, nil
		}
		c.buf = append(c.buf, seg...)
	}
	// Receive-side checksum + copy out to the application.
	s.node.CPU.Compute(p, btime(min(n, len(c.buf)), s.p.TCPChecksum))
	return drain(p, s.node, &c.buf, as, va, n)
}

// Close implements Conn.
func (c *tcpConn) Close(p *sim.Proc) error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.stack.node.CPU.Syscall(p)
	peer := c.peer
	c.stack.node.Cluster.Env.AfterDetached(c.stack.p.TCPLatency, func() { peer.inbox.Send(nil) })
	return nil
}

func btime(n int, bw float64) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(float64(n) / bw * 1e9)
}

var _ Stack = (*TCPStack)(nil)
