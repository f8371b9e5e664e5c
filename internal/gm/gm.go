// Package gm models the GM message-passing interface of Myrinet
// networks (GM 2.0.13 in the paper, §2.2.2): ports with a unique event
// queue, explicit memory registration against the NIC translation
// table, send tokens bounding outstanding requests, and — as the
// paper's §3.3 extension — physical-address-based primitives for
// kernel users.
//
// GM's design points reproduced here, each of which the paper
// identifies as a problem for in-kernel applications:
//
//   - All I/O buffers must be registered before use (3 µs/page, with a
//     200 µs deregistration base), so efficient use requires a
//     registration cache (package gmkrc).
//   - There are no vectorial primitives: one Send transfers one
//     virtually contiguous, registered range.
//   - The event model is a single queue per port; the application must
//     consume events in order (no waiting on a specific request).
//   - The kernel interface is an afterthought: every host-side
//     operation from a kernel port pays Params.GMKernelPenalty
//     ("small message latency is 2 µs higher in the kernel", §5.1).
package gm

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// portBits is how many low bits of the wire tag address the port.
const portBits = 8

// nanosecond spells out the sim.Time unit for small constants.
const nanosecond = sim.Time(1)

// GM is the per-node driver instance.
type GM struct {
	node  *hw.Node
	p     *hw.Params
	ports map[uint8]*Port
}

// Attach installs the GM driver on a node. Call once per node.
func Attach(node *hw.Node) *GM {
	g := &GM{node: node, p: node.Cluster.Params, ports: make(map[uint8]*Port)}
	node.NIC.Handle(hw.ProtoGM, g.receive)
	node.SetDriver(hw.ProtoGM, g)
	return g
}

// Node returns the node this driver instance serves.
func (g *GM) Node() *hw.Node { return g.node }

// EventType distinguishes completions in the port event queue.
type EventType int

const (
	// RecvComplete reports an arrived message.
	RecvComplete EventType = iota
	// SendComplete reports that a send's buffer may be reused.
	SendComplete
)

// Event is one entry of a port's unique event queue.
type Event struct {
	Type EventType
	Tag  uint64 // application tag
	Len  int    // payload bytes (received or sent)
	Src  hw.NodeID
	Err  error // e.g. truncation
}

// Port is a GM communication endpoint. The paper notes GM assumes one
// process per port; sharing one kernel port among processes is what
// forces GMKRC's address-space tagging (§3.2).
type Port struct {
	gm     *GM
	id     uint8
	kernel bool

	events *sim.Chan[Event]
	tokens *sim.Resource

	posted     []postedRecv // in posting order; a tag's oldest matches first
	unexpected []arrival
	regions    []*Region // live registrations (directed-send targets)

	// acks is the FIFO of this port's sends whose receiving NIC has
	// acknowledged them, each waiting out the return path. Every entry
	// waits the same delay, taken from this port's own node (ack), so
	// the callbacks fire in the order they were scheduled and fireAck
	// — built once, at OpenPort — completes the oldest.
	acks    []ackRec
	ackHead int
	fireAck func()

	// Stats
	Sends, Recvs sim.Counter
	// DirectedDrops counts directed sends that targeted unregistered
	// remote memory (silently discarded, as real GM does).
	DirectedDrops sim.Counter
}

// arrival is what matching and delivery need of a received message.
// For a message matched on arrival, data is the NIC's pooled payload,
// valid only while the handler runs; the unexpected queue holds a copy.
type arrival struct {
	tag  uint64 // application tag
	src  hw.NodeID
	data []byte
}

// ackRec is one acknowledged send waiting out the return path.
type ackRec struct {
	tag uint64 // application tag
	n   int
}

type postedRecv struct {
	tag     uint64 // application tag
	extents []mem.Extent
	length  int
	virtual bool // posted with a registered virtual range (lookup cost)
}

// OpenPort opens port id. kernel selects the in-kernel interface
// (paper §3: "a MYRINET communication port, that was open in the
// kernel").
func (g *GM) OpenPort(id uint8, kernel bool) (*Port, error) {
	if _, dup := g.ports[id]; dup {
		return nil, fmt.Errorf("gm: port %d already open on %s", id, g.node.Name)
	}
	pt := &Port{
		gm:     g,
		id:     id,
		kernel: kernel,
		events: sim.NewChan[Event](g.node.Cluster.Env),
		tokens: sim.NewResource(g.node.Cluster.Env, fmt.Sprintf("%s-gm%d-tokens", g.node.Name, id), g.p.GMSendTokens),
	}
	pt.fireAck = pt.completeSend
	g.ports[id] = pt
	return pt, nil
}

// Kernel reports whether this is a kernel port.
func (pt *Port) Kernel() bool { return pt.kernel }

// ID returns the port number.
func (pt *Port) ID() uint8 { return pt.id }

// Node returns the node the port lives on.
func (pt *Port) Node() *hw.Node { return pt.gm.node }

// hostOp charges host-side driver work, with the kernel penalty when
// applicable.
func (pt *Port) hostOp(p *sim.Proc, base sim.Time) {
	if pt.kernel {
		base += pt.gm.p.GMKernelPenalty
	}
	pt.gm.node.CPU.Compute(p, base)
}

// Region is a registered memory range.
type Region struct {
	port  *Port
	as    *vm.AddressSpace
	va    vm.VirtAddr
	n     int
	pages int
	dead  bool
}

// VA returns the registered base address.
func (r *Region) VA() vm.VirtAddr { return r.va }

// Len returns the registered length.
func (r *Region) Len() int { return r.n }

// Pages returns the number of registered pages.
func (r *Region) Pages() int { return r.pages }

// RegisterMemory pins [va, va+n) of as and enters its page translations
// into the NIC table (§2.2: "pin pages in physical memory and register
// their address translations into the network interface card").
// It fails, undoing everything, when the NIC table is full.
func (pt *Port) RegisterMemory(p *sim.Proc, as *vm.AddressSpace, va vm.VirtAddr, n int) (*Region, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gm: RegisterMemory length %d", n)
	}
	g := pt.gm
	pages, err := as.Pin(va, n)
	if err != nil {
		return nil, err
	}
	// Charge the documented registration cost (3 µs/page, Fig 1(b)).
	pt.hostOp(p, g.p.RegTime(pages))
	table := g.node.NIC.Table
	start := va.VPN()
	for i := 0; i < pages; i++ {
		vpn := start + uint64(i)
		f := as.FrameAt(vm.VirtAddr(vpn << mem.PageShift))
		if f == nil {
			// Pinned but unmapped cannot happen right after Pin.
			panic("gm: pinned page without frame")
		}
		if err := table.Insert(hw.TransKey{AS: as.ID(), VPN: vpn}, f.Addr()); err != nil {
			for j := 0; j < i; j++ {
				table.Remove(hw.TransKey{AS: as.ID(), VPN: start + uint64(j)})
			}
			as.Unpin(va, n)
			return nil, fmt.Errorf("gm: registration of %d pages failed: %w", pages, err)
		}
	}
	r := &Region{port: pt, as: as, va: va, n: n, pages: pages}
	pt.regions = append(pt.regions, r)
	return r, nil
}

// dropRegion removes a region from the port's live list.
func (pt *Port) dropRegion(r *Region) {
	for i, x := range pt.regions {
		if x == r {
			pt.regions = append(pt.regions[:i], pt.regions[i+1:]...)
			return
		}
	}
}

// regionAt returns the live region containing [va, va+n), or nil.
func (pt *Port) regionAt(va vm.VirtAddr, n int) *Region {
	for _, r := range pt.regions {
		if r.va <= va && va+vm.VirtAddr(n) <= r.va+vm.VirtAddr(r.n) {
			return r
		}
	}
	return nil
}

// DeregisterMemory removes the region's translations and unpins it.
// The cost is dominated by the 200 µs base (Fig 1(b)) — which is why
// deregistration must be delayed and amortized (the pin-down cache).
func (pt *Port) DeregisterMemory(p *sim.Proc, r *Region) error {
	if r.dead {
		return fmt.Errorf("gm: double deregistration")
	}
	r.dead = true
	pt.dropRegion(r)
	g := pt.gm
	pt.hostOp(p, g.p.DeregTime(r.pages))
	start := r.va.VPN()
	for i := 0; i < r.pages; i++ {
		g.node.NIC.Table.Remove(hw.TransKey{AS: r.as.ID(), VPN: start + uint64(i)})
	}
	return r.as.Unpin(r.va, r.n)
}

// DeregisterInstant removes a region's NIC translations and pins
// without charging simulated time. It exists for callers running in
// notification (VMA SPY) context, where there is no process to charge:
// in reality that work happens inside the munmap path of the process
// changing its address space.
func (pt *Port) DeregisterInstant(r *Region) error {
	if r.dead {
		return fmt.Errorf("gm: double deregistration")
	}
	r.dead = true
	pt.dropRegion(r)
	start := r.va.VPN()
	for i := 0; i < r.pages; i++ {
		pt.gm.node.NIC.Table.Remove(hw.TransKey{AS: r.as.ID(), VPN: start + uint64(i)})
	}
	return r.as.Unpin(r.va, r.n)
}

// registered verifies every page of [va, va+n) is in the NIC table and
// returns the physical extents from the table's translations.
func (pt *Port) registered(as *vm.AddressSpace, va vm.VirtAddr, n int) ([]mem.Extent, error) {
	table := pt.gm.node.NIC.Table
	var xs []mem.Extent
	addr := va
	left := n
	for left > 0 {
		pa, ok := table.Lookup(hw.TransKey{AS: as.ID(), VPN: addr.VPN()})
		if !ok {
			return nil, fmt.Errorf("gm: page %#x of space %d not registered", addr, as.ID())
		}
		chunk := mem.PageSize - addr.Offset()
		if chunk > left {
			chunk = left
		}
		xs = mem.AppendExtent(xs, pa+mem.PhysAddr(addr.Offset()), chunk)
		addr += vm.VirtAddr(chunk)
		left -= chunk
	}
	return xs, nil
}

// wireTag packs (application tag, destination port).
func wireTag(tag uint64, port uint8) uint64 { return tag<<portBits | uint64(port) }

// Send transmits [va, va+n) of as — which must be fully registered on
// this port — to (dst, dstPort) with an application tag. The send
// consumes a token until the buffer has left host memory; a
// SendComplete event is then queued.
func (pt *Port) Send(p *sim.Proc, dst hw.NodeID, dstPort uint8, tag uint64, as *vm.AddressSpace, va vm.VirtAddr, n int) error {
	xs, err := pt.registered(as, va, n)
	if err != nil {
		return err
	}
	return pt.sendExtents(p, dst, dstPort, tag, xs, pt.gm.p.GMLookup)
}

// SendPhysical is the paper's §3.3 kernel-interface extension:
// "communication primitives based on physical addresses". No
// registration, no translation-table lookup (the measured 0.5 µs/side
// saving). Only kernel ports may use it.
func (pt *Port) SendPhysical(p *sim.Proc, dst hw.NodeID, dstPort uint8, tag uint64, xs []mem.Extent) error {
	if !pt.kernel {
		return fmt.Errorf("gm: SendPhysical requires a kernel port")
	}
	return pt.sendExtents(p, dst, dstPort, tag, mem.MergeExtents(xs), 0)
}

// sendExtents transmits a message. GM is a reliable interface: the
// send token is held — and the SendComplete event deferred — until the
// receiving NIC acknowledges the message, not merely until the data
// has left host memory. This end-to-end completion is what gates
// bounce-buffer reuse in layers like SOCKETS-GM.
//
// allocfree
func (pt *Port) sendExtents(p *sim.Proc, dst hw.NodeID, dstPort uint8, tag uint64, xs []mem.Extent, lookup sim.Time) error {
	g := pt.gm
	n := mem.TotalLen(xs)
	pt.hostOp(p, g.p.GMHostSend)
	pt.tokens.Acquire(p)
	j := hw.NewTxJob(1)
	j.Gather, j.FwExtra = xs, lookup
	m := j.Msg
	m.Dst, m.Proto, m.Tag = dst, hw.ProtoGM, wireTag(tag, dstPort)
	m.Header[0] = pt.id // source port, for the ACK path
	g.node.NIC.Send(j)
	pt.Sends.Add(n)
	return nil
}

// ack runs on the receiving node when a message arrives and schedules
// the sender-side completion after the sending port's return-path
// delay.
//
// allocfree
func (g *GM) ack(m *hw.Message) {
	if len(m.Header) == 0 {
		return
	}
	srcGM, _ := g.node.Cluster.Node(m.Src).Driver(hw.ProtoGM).(*GM)
	if srcGM == nil {
		return
	}
	srcPort := srcGM.ports[m.Header[0]]
	if srcPort == nil {
		return
	}
	if srcPort.ackHead > 0 && len(srcPort.acks) == cap(srcPort.acks) {
		// Reuse the consumed prefix rather than let append regrow a
		// FIFO that never drains empty.
		k := copy(srcPort.acks, srcPort.acks[srcPort.ackHead:])
		srcPort.acks, srcPort.ackHead = srcPort.acks[:k], 0
	}
	srcPort.acks = append(srcPort.acks, ackRec{tag: m.Tag >> portBits, n: len(m.Payload)})
	g.node.Cluster.Env.AfterDetached(srcGM.p.WireProp+200*nanosecond, srcPort.fireAck)
}

// completeSend is the return path's end for the oldest acknowledged
// send: its token comes back and its SendComplete is queued.
//
// allocfree
func (pt *Port) completeSend() {
	a := pt.acks[pt.ackHead]
	pt.ackHead++
	if pt.ackHead == len(pt.acks) {
		pt.acks, pt.ackHead = pt.acks[:0], 0
	}
	pt.tokens.Release()
	pt.events.Send(Event{Type: SendComplete, Tag: a.tag, Len: a.n})
}

// kindDirected marks remote-memory-access messages on the wire.
const kindDirected uint8 = 1

// DirectedSend is GM's remote memory access ("send, receive or remote
// memory access requests", §2.2.2): the payload is written directly
// into the destination port's *registered* memory at remoteVA, with no
// receive posted and no receive event generated — the remote NIC
// resolves the address through its translation table. The local range
// must be registered too. Targeting unregistered remote memory drops
// the data silently (counted in DirectedDrops), like real GM.
func (pt *Port) DirectedSend(p *sim.Proc, dst hw.NodeID, dstPort uint8, tag uint64, as *vm.AddressSpace, va vm.VirtAddr, n int, remoteVA vm.VirtAddr) error {
	xs, err := pt.registered(as, va, n)
	if err != nil {
		return err
	}
	g := pt.gm
	pt.hostOp(p, g.p.GMHostSend)
	pt.tokens.Acquire(p)
	j := hw.NewTxJob(9)
	j.Gather, j.FwExtra = xs, g.p.GMLookup
	m := j.Msg
	m.Dst, m.Proto, m.Kind, m.Tag = dst, hw.ProtoGM, kindDirected, wireTag(tag, dstPort)
	m.Header[0] = pt.id
	for i := 0; i < 8; i++ {
		m.Header[1+i] = byte(uint64(remoteVA) >> (8 * i))
	}
	g.node.NIC.Send(j)
	pt.Sends.Add(n)
	return nil
}

// deliverDirected runs in the NIC rx pump for a directed message: the
// NIC translates the remote virtual address and DMAs in place.
func (pt *Port) deliverDirected(p *sim.Proc, m *hw.Message) {
	remoteVA := vm.VirtAddr(0)
	for i := 0; i < 8; i++ {
		remoteVA |= vm.VirtAddr(m.Header[1+i]) << (8 * i)
	}
	n := len(m.Payload)
	r := pt.regionAt(remoteVA, n)
	if r == nil {
		pt.DirectedDrops.Add(n)
		return
	}
	// Translation-table lookup on the receive side (virtual target).
	pt.gm.node.NIC.Firmware.Use(p, pt.gm.p.GMLookup)
	xs, err := pt.registered(r.as, remoteVA, n)
	if err != nil {
		pt.DirectedDrops.Add(n)
		return
	}
	pt.gm.node.Mem.Scatter(xs, m.Payload)
	pt.Recvs.Add(n)
}

// PostRecv posts a receive buffer (registered virtual range) for the
// given application tag.
func (pt *Port) PostRecv(p *sim.Proc, tag uint64, as *vm.AddressSpace, va vm.VirtAddr, n int) error {
	xs, err := pt.registered(as, va, n)
	if err != nil {
		return err
	}
	pt.gm.node.CPU.Compute(p, pt.gm.p.GMHostSend/2)
	pt.post(postedRecv{tag: tag, extents: xs, length: n, virtual: true})
	return nil
}

// PostRecvPhysical posts a receive straight into physical extents
// (page-cache pages) — the §3.3 extension. Kernel ports only. The port
// scatters into xs when the receive matches, so xs must stay as it is
// until then.
//
// allocfree
func (pt *Port) PostRecvPhysical(p *sim.Proc, tag uint64, xs []mem.Extent) error {
	if !pt.kernel {
		//analyze:allow allocfree misuse error path
		return fmt.Errorf("gm: PostRecvPhysical requires a kernel port")
	}
	pt.gm.node.CPU.Compute(p, pt.gm.p.GMHostSend/2)
	pt.post(postedRecv{tag: tag, extents: mem.MergeExtents(xs), length: mem.TotalLen(xs)})
	return nil
}

// CancelRecv withdraws the most recently posted, still unmatched
// receive for tag, reporting whether one was withdrawn. Once it
// returns true the receive's buffer can never be scattered into; when
// it returns false the receive has already matched, which in GM means
// the NIC has already scattered the payload (delivery is synchronous
// at match time) — either way the buffer is quiescent afterwards.
//
// allocfree
func (pt *Port) CancelRecv(p *sim.Proc, tag uint64) bool {
	for i := len(pt.posted) - 1; i >= 0; i-- {
		if pt.posted[i].tag == tag {
			pt.unpost(i)
			pt.gm.node.CPU.Compute(p, pt.gm.p.GMHostSend/2) // descriptor removal
			return true
		}
	}
	return false
}

// unpost removes the i-th posted receive, keeping the others' order.
//
// allocfree
func (pt *Port) unpost(i int) {
	last := len(pt.posted) - 1
	copy(pt.posted[i:], pt.posted[i+1:])
	pt.posted[last] = postedRecv{} // the dropped extents are the caller's
	pt.posted = pt.posted[:last]
}

// post matches a new receive against the unexpected queue, or queues
// it behind the port's other posted receives.
//
// allocfree
func (pt *Port) post(pr postedRecv) {
	// Check the unexpected queue first: a message may already have
	// arrived. GM proper drops unexpected messages and relies on its
	// token flow control; we stage them NIC-side and charge a host
	// copy on the late match, which is kinder but does not change any
	// measured path (the benchmarks always pre-post).
	for i, a := range pt.unexpected {
		if a.tag == pr.tag {
			pt.unexpected = append(pt.unexpected[:i], pt.unexpected[i+1:]...)
			pt.gm.node.CPU.CopyStats.Add(len(a.data))
			pt.deliver(a, pr, pt.gm.p.CopyTime(len(a.data)))
			return
		}
	}
	pt.posted = append(pt.posted, pr)
}

// receive runs in the NIC's receive process.
//
// allocfree
func (g *GM) receive(p *sim.Proc, m *hw.Message) {
	g.ack(m) // NIC-level acknowledgement, regardless of matching
	pt := g.ports[uint8(m.Tag&(1<<portBits-1))]
	if pt == nil {
		// Message to a closed port: dropped on the floor.
		return
	}
	if m.Kind == kindDirected {
		pt.deliverDirected(p, m)
		return
	}
	tag := m.Tag >> portBits
	i := 0
	for i < len(pt.posted) && pt.posted[i].tag != tag {
		i++
	}
	if i == len(pt.posted) {
		// The payload buffer returns to the NIC's pool when this
		// handler does (hw.Message): stage a copy.
		pt.unexpected = append(pt.unexpected, arrival{tag: tag, src: m.Src, data: append([]byte(nil), m.Payload...)})
		return
	}
	pr := pt.posted[i]
	pt.unpost(i)
	if pr.virtual {
		// The NIC resolves the posted buffer through its translation
		// table: the lookup cost physical addressing avoids.
		g.node.NIC.Firmware.Use(p, g.p.GMLookup)
	}
	pt.deliver(arrival{tag: tag, src: m.Src, data: m.Payload}, pr, 0)
}

func (pt *Port) deliver(a arrival, pr postedRecv, extra sim.Time) {
	n := len(a.data)
	ev := Event{Type: RecvComplete, Tag: a.tag, Len: n, Src: a.src}
	if n > pr.length {
		n = pr.length
		ev.Len = n
		ev.Err = fmt.Errorf("gm: message truncated to %d bytes", pr.length)
	}
	pt.gm.node.Mem.Scatter(pr.extents, a.data[:n])
	pt.Recvs.Add(n)
	if extra > 0 {
		env := pt.gm.node.Cluster.Env
		env.AfterDetached(extra, func() { pt.events.Send(ev) })
		return
	}
	pt.events.Send(ev)
}

// PollEvent consumes the next event by busy-waiting on the queue, the
// way GM's benchmark programs (and MPI layers) use gm_receive_event:
// the CPU spins, so delivery is immediate but a core is burned. This is
// the mode behind the paper's raw latency figures (Fig 4(a), 5(a)).
func (pt *Port) PollEvent(p *sim.Proc) Event {
	ev := pt.events.Recv(p)
	pt.chargeEvent(p, ev)
	return ev
}

// WaitEvent consumes the next event, sleeping if none is pending —
// the only option for an in-kernel service (a filesystem client or
// socket layer cannot spin). GM's "limited completion notification
// mechanisms" (§5.3) make a blocking wakeup go through an extra
// dispatching thread, so an actual sleep costs a context switch on
// top of the event processing. This asymmetry — absent from MX, whose
// flexible waits sleep efficiently — is a large part of why GM's
// kernel interface loses in ORFS and SOCKETS-GM.
func (pt *Port) WaitEvent(p *sim.Proc) Event {
	slept := pt.events.Len() == 0
	ev := pt.events.Recv(p)
	if slept {
		pt.gm.node.CPU.ContextSwitch(p)
	}
	pt.chargeEvent(p, ev)
	return ev
}

// TryEvent consumes the next event if one is already queued, without
// blocking. It charges the same per-event host cost as PollEvent, minus
// any sleep (there is none: the queue is non-empty). This is the
// building block of batched completion delivery: after one blocking
// wait, a consumer drains everything already queued in a single pass.
func (pt *Port) TryEvent(p *sim.Proc) (Event, bool) {
	ev, ok := pt.events.TryRecv()
	if ok {
		pt.chargeEvent(p, ev)
	}
	return ev, ok
}

// WaitEventTimeout is WaitEvent with a deadline.
func (pt *Port) WaitEventTimeout(p *sim.Proc, d sim.Time) (Event, bool) {
	slept := pt.events.Len() == 0
	ev, ok := pt.events.RecvTimeout(p, d)
	if ok {
		if slept {
			pt.gm.node.CPU.ContextSwitch(p)
		}
		pt.chargeEvent(p, ev)
	}
	return ev, ok
}

func (pt *Port) chargeEvent(p *sim.Proc, ev Event) {
	if ev.Type == RecvComplete {
		pt.hostOp(p, pt.gm.p.GMHostEvent)
	} else {
		pt.gm.node.CPU.Compute(p, pt.gm.p.GMHostEvent)
	}
}

// PendingEvents returns the queued event count (diagnostics).
func (pt *Port) PendingEvents() int { return pt.events.Len() }
