package hw

// This file models the NIC: firmware processors, DMA engines, the
// fragment pipeline that moves real bytes between host memory and the
// link, and the translation table backing registered virtual memory.
import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Message is one message on the Myrinet fabric. Payload carries real
// bytes; WireLen (envelope + header + payload) governs timing. Fields
// Proto/Kind/Tag/Header are interpreted by the drivers (GM, MX).
//
// Payload is set by the sending NIC and lives in a pooled buffer that
// belongs to the NIC: it is valid only until the receiving driver's
// Handler returns, at which point the buffer goes back to the pool and
// the next message may overwrite it. A handler that keeps bytes — an
// unexpected-message queue, say — copies them.
type Message struct {
	Src, Dst NodeID
	Proto    uint8  // registered driver (protocol) on the destination
	Kind     uint8  // driver-defined message kind
	Tag      uint64 // driver-defined (GM port / MX match bits)
	Seq      uint64 // assigned by the sending NIC
	Header   []byte // small control payload
	Payload  []byte // bulk data (gathered at send DMA time); see above

	// TxDone fires when the last fragment has left the sender's DMA
	// engine (local send completion — the buffer may be reused). A
	// driver that supplies none gets one from Send, backed by the
	// message itself.
	TxDone *sim.Signal

	txDone  sim.Signal // what Send points TxDone at when the driver left it nil
	staged  *Staged    // the pooled buffer behind Payload, nil when there is none
	wireLen int
	frags   int
	arrived int
}

// WireLen returns the total on-wire byte count used for timing.
func (m *Message) WireLen() int { return m.wireLen }

// PayloadLen returns len(Header) + len(Payload) — the logical size.
func (m *Message) PayloadLen() int { return len(m.Header) + len(m.Payload) }

// TxJob describes a send handed to the NIC by a driver. Exactly one of
// Gather or Inline provides the payload: Gather is a zero-copy DMA from
// host physical memory (bytes are read at DMA time, so late stores —
// the hazard registration/pinning exists to prevent — are faithfully
// visible); Inline is data already pushed into NIC memory by the host
// (PIO, or a bounce-buffer copy the driver charged separately), staged
// with NIC.Stage. An Inline buffer belongs to the NIC from Send on —
// the sender must not touch it again — and becomes the message's
// Payload, under the ownership rule stated on Message.
type TxJob struct {
	Msg     *Message
	Gather  []mem.Extent // host memory to DMA from (nil for inline)
	Inline  *Staged      // payload already in NIC SRAM
	FwExtra sim.Time     // extra firmware work (e.g. GM translation lookup)
	PIO     bool         // no DMA stage (payload arrived by PIO)
}

// txRecord is everything one send needs on the heap — the job, its
// message and the message's header bytes — in a single object.
type txRecord struct {
	job TxJob
	msg Message
	hdr [16]byte // the drivers' headers are 1 to 14 bytes
}

// NewTxJob returns a zero job whose Msg is set and has a zeroed Header
// of the given length, all in one allocation (headers longer than the
// record's inline array get their own). The driver fills in the rest
// and hands the job to Send.
func NewTxJob(header int) *TxJob {
	r := &txRecord{}
	r.job.Msg = &r.msg
	if header <= len(r.hdr) {
		r.msg.Header = r.hdr[:header:header]
	} else {
		r.msg.Header = make([]byte, header)
	}
	return &r.job
}

// Handler is a driver's receive entry point. It runs in the NIC's
// receive process after all fragment timing has been charged; it
// must scatter/deliver data and fire events quickly (host-side heavy
// work belongs in host processes, not here).
type Handler func(p *sim.Proc, m *Message)

// NIC models one Myrinet interface: a firmware processor (LANai), send
// and receive DMA engines, a transmit link, and a translation table for
// registered memory. Stages are separate resources connected by queues,
// so fragments of a large message pipeline through DMA→link→DMA exactly
// like cut-through hardware, and distinct messages queue against each
// other realistically.
//
// The transmit and link stages each take their input from one FIFO per
// destination node (sendQueue) under one rule, applied at every
// fragment boundary: the waiting single-fragment message with the
// lowest Seq goes first, else the oldest head. So a clear-to-send or a
// request for one node passes another node's 64 KB train after the
// fragment on the wire, as a real MCP's packet scheduler lets it, while
// the order between a pair of nodes is kept, multi-fragment messages
// still go one at a time oldest first, and traffic to a single
// destination is served FIFO.
//
// The transmit and link stages only forward, so they are not processes
// but chains of event callbacks (txStage, linkStage) that run on
// whichever goroutine holds the engine's baton: a message crosses the
// fabric on its sender's stack, with no goroutine switch per fragment.
// Each callback waiter takes the event slot a process's wake-up would
// take (sim.Chan.RecvFunc, sim.Resource.AcquireFunc), so the stages
// contend for the firmware, the DMA engine and the link in the same
// order as processes would. The receive stage stays a process (rxPump)
// because the drivers' handlers block.
type NIC struct {
	node  *Node
	p     *Params
	model LinkModel

	Firmware *sim.Resource
	TxDMA    *sim.Resource
	RxDMA    *sim.Resource
	Link     *sim.Resource

	Table *TransTable

	txq      sendQueue[*TxJob]
	linkq    sendQueue[*frag]
	rxq      *sim.Chan[*frag]
	tx       txStage
	link     linkStage
	handlers map[uint8]Handler
	seq      uint64
	fragFree []*frag // recycled fragment records (see getFrag)

	// Fault state (see Kill, StallFor): a dead NIC drops every frame
	// it would transmit or deliver; a stalled one delays its stages.
	dead       bool
	stallUntil sim.Time

	// Stats
	TxMsgs, RxMsgs sim.Counter

	// Dropped counts frames discarded by fault injection (this NIC dead
	// at transmit or delivery time).
	Dropped sim.Counter

	// probe, when a test sets it, hears of every pipeline step as it
	// completes: the stage, the message, and the fragment (-1 for the
	// per-message firmware work). The golden-schedule test reads the
	// pipeline's event order through it.
	probe func(stage string, m *Message, frag int)
}

type frag struct {
	msg  *Message
	idx  int
	size int  // wire bytes of this fragment
	src  *NIC // owner; the record recycles to src's pool when done
	dst  *NIC // destination NIC, set by the link stage at transmit time
	// deliver hands the fragment to dst after the wire delay. Built
	// once per record and reused across recycles, so the per-fragment
	// delivery path allocates neither a closure nor a frag in steady
	// state.
	deliver func()
}

// getFrag takes a fragment record from the transmit pool.
//
// allocfree
func (n *NIC) getFrag(m *Message, idx, size int) *frag {
	var f *frag
	if k := len(n.fragFree); k > 0 {
		f = n.fragFree[k-1]
		n.fragFree = n.fragFree[:k-1]
	} else {
		//analyze:allow allocfree pool-miss cold path, record recycled forever after
		f = &frag{src: n}
		//analyze:allow allocfree built once per record, reused across recycles
		f.deliver = func() {
			// Death is checked at delivery time: a frame already on the
			// wire when the destination dies hits a dead card and
			// vanishes.
			if f.dst.dead {
				f.dst.Dropped.Add(f.size)
				f.src.putFrag(f)
				return
			}
			f.dst.rxq.Send(f)
		}
	}
	f.msg, f.idx, f.size = m, idx, size
	return f
}

// putFrag recycles a fragment record nobody references anymore.
//
// allocfree
func (n *NIC) putFrag(f *frag) {
	f.msg, f.dst = nil, nil
	n.fragFree = append(n.fragFree, f)
}

func newNIC(node *Node, model LinkModel) *NIC {
	env := node.Cluster.Env
	p := node.Cluster.Params
	n := &NIC{
		node:     node,
		p:        p,
		model:    model,
		Firmware: sim.NewResource(env, node.Name+"-lanai", 1),
		TxDMA:    sim.NewResource(env, node.Name+"-txdma", 1),
		RxDMA:    sim.NewResource(env, node.Name+"-rxdma", 1),
		Link:     sim.NewResource(env, node.Name+"-txlink", 1),
		Table:    NewTransTable(p.TransTableCap),
		txq:      sendQueue[*TxJob]{env: env},
		linkq:    sendQueue[*frag]{env: env},
		rxq:      sim.NewChan[*frag](env),
		handlers: make(map[uint8]Handler),
	}
	// A stage's continuations are method values built here, once: a
	// method value is a closure, and the stages must not allocate one
	// per fragment.
	n.tx = txStage{
		begin:  n.txBegin,
		fwHeld: n.txFwHeld, fwDone: n.txFwDone,
		dmaHeld: n.txDMAHeld, dmaDone: n.txDMADone,
	}
	n.link = linkStage{
		begin: n.linkBegin, held: n.linkHeld, done: n.linkDone,
	}
	// Each stage starts from an event, in the slots (and the order) the
	// three stage processes used to start in.
	env.AfterDetached(0, n.txNext)
	env.AfterDetached(0, n.linkNext)
	env.Spawn(node.Name+"-nic-rx", n.rxPump)
	return n
}

// Node returns the owning node.
func (n *NIC) Node() *Node { return n.node }

// Model returns the card generation.
func (n *NIC) Model() LinkModel { return n.model }

// ---- fault injection ----
//
// The fault surface is deliberately at the NIC: killing or stalling a
// node's interface is what a pulled cable, a crashed host or a wedged
// firmware looks like to the rest of the cluster — frames stop, and
// nothing above the link layer gets to say goodbye. Drivers observe
// faults only as silence (plus Dead, which models their own
// dead-peer detection, e.g. GM's send timeouts).

// Dead reports whether the NIC has been killed.
func (n *NIC) Dead() bool { return n.dead }

// Kill marks the NIC dead, effective immediately: frames in flight to
// or from it are dropped at their next pipeline stage, and every later
// transmit or delivery is discarded. Host processes are untouched —
// exactly the failure mode where a server machine keeps running but
// falls off the fabric.
func (n *NIC) Kill() { n.dead = true }

// KillAfter schedules Kill after virtual delay d — the scheduled-fault
// entry point the degraded-operation experiments use.
func (n *NIC) KillAfter(d sim.Time) {
	n.node.Cluster.Env.After(d, n.Kill)
}

// Revive clears a Kill. Frames dropped while dead stay dropped; the
// NIC simply starts forwarding again (the driver-visible state on both
// sides is whatever survived the outage).
func (n *NIC) Revive() { n.dead = false }

// StallFor freezes the NIC's transmit, link and receive stages until
// now+d (extending any stall already in effect): frames queue and are
// delivered late rather than dropped — the transient-fault analogue of
// Kill.
func (n *NIC) StallFor(d sim.Time) {
	until := n.node.Cluster.Env.Now() + d
	if until > n.stallUntil {
		n.stallUntil = until
	}
}

// step reports a completed pipeline step to the test probe, if any.
//
// allocfree
func (n *NIC) step(stage string, m *Message, frag int) {
	if n.probe != nil {
		n.probe(stage, m, frag)
	}
}

// stall parks the receive process until any stall in effect has passed.
func (n *NIC) stall(p *sim.Proc) {
	for n.stallUntil > p.Now() {
		p.Sleep(n.stallUntil - p.Now())
	}
}

// stalled is stall for a callback stage: when a stall is in effect it
// schedules resume — which checks again — for the stall's end and
// reports true.
//
// allocfree
func (n *NIC) stalled(resume func()) bool {
	env := n.node.Cluster.Env
	if d := n.stallUntil - env.Now(); d > 0 {
		env.AfterDetached(d, resume)
		return true
	}
	return false
}

// Handle registers the receive handler for a protocol number. Drivers
// call this once at attach time.
func (n *NIC) Handle(proto uint8, h Handler) {
	if n.handlers[proto] != nil {
		panic(fmt.Sprintf("hw: duplicate handler for proto %d on %s", proto, n.node.Name))
	}
	n.handlers[proto] = h
}

// Send enqueues a transmit job. It returns immediately (the caller has
// already charged its host-side costs); j.Msg.TxDone fires when the
// payload has fully left host memory.
func (n *NIC) Send(j *TxJob) {
	m := j.Msg
	m.Src = n.node.ID
	m.Seq = n.seq
	n.seq++
	if m.TxDone == nil {
		m.txDone.Init(n.node.Cluster.Env)
		m.TxDone = &m.txDone
	}
	if j.Inline != nil && j.Gather != nil {
		panic("hw: TxJob with both Inline and Gather")
	}
	payload := j.Inline.Len() + mem.TotalLen(j.Gather)
	m.wireLen = n.p.WireEnvelope + len(m.Header) + payload
	m.frags = n.p.Frags(m.wireLen)
	n.TxMsgs.Add(payload)
	n.txq.push(m, j)
}

// txStage is the firmware send loop: per message, charge firmware
// processing; per fragment, run the send DMA engine and hand the
// fragment to the link stage. It works on one job at a time, which
// stays at the head of its FIFO in txq until its last fragment is out,
// so its loop state lives here rather than on a process's stack.
//
// At each fragment boundary the stage asks txq's rule again. When the
// answer is another FIFO — a single-fragment message to another node —
// the job's loop is set aside in held, the small message goes through
// firmware and DMA, and the rule then returns to the held job: it was
// the oldest head when it started, and every head since is younger.
type txStage struct {
	txLoop        // the job in hand
	held   txLoop // a multi-fragment job overtaken at a fragment boundary; job nil when none

	// Continuations (see newNIC).
	begin                            func()
	fwHeld, fwDone, dmaHeld, dmaDone func()
}

// txLoop is one job's progress through the transmit stage.
type txLoop struct {
	job    *TxJob
	q      int // its FIFO in txq
	gather bool
	total  int        // payload bytes of the message
	got    int        // payload bytes that have left host memory
	frag   int        // index of the fragment in hand
	size   int        // its wire bytes
	want   int        // its payload bytes
	cursor mem.Cursor // read position in job.Gather
}

// txNext waits for the next transmit job.
//
// allocfree
func (n *NIC) txNext() {
	if n.txq.empty() {
		n.txq.wait(n.tx.begin)
		return
	}
	n.txBegin()
}

// txRetire takes the finished job in hand off its FIFO and goes on to
// the next.
//
// allocfree
func (n *NIC) txRetire() {
	n.txq.pop(n.tx.q)
	n.tx.job = nil
	n.txNext()
}

// txBegin takes the job the rule picks once no stall is in effect: a
// held job resumes its fragments, any other gets firmware send
// processing, or nothing at all on a dead card.
//
// allocfree
func (n *NIC) txBegin() {
	if n.stalled(n.tx.begin) {
		return
	}
	t := &n.tx
	q := n.txq.pick()
	j := n.txq.head(q)
	if j == t.held.job {
		t.txLoop, t.held = t.held, txLoop{}
		n.txFrags()
		return
	}
	t.job, t.q = j, q
	if m := t.job.Msg; n.dead {
		// The payload never leaves, but the local buffer is free —
		// senders must not strand on TxDone for a frame the dead
		// card silently ate.
		n.Dropped.Add(m.wireLen)
		m.TxDone.Fire()
		n.txRetire()
		return
	}
	n.Firmware.AcquireFunc(n.tx.fwHeld)
}

// txFwHeld runs with the firmware processor held for the job's send
// processing.
//
// allocfree
func (n *NIC) txFwHeld() {
	j := n.tx.job
	n.node.Cluster.Env.AfterDetached(n.p.FwSendTime(n.isMX(j.Msg.Proto), j.Msg.frags)+j.FwExtra, n.tx.fwDone)
}

// txFwDone ends firmware processing and sets the message's payload
// buffer up for its fragments.
//
// allocfree
func (n *NIC) txFwDone() {
	n.Firmware.Release()
	t := &n.tx
	j, m := t.job, t.job.Msg
	n.step("fw-send", m, -1)
	t.gather = j.Gather != nil
	t.total = mem.TotalLen(j.Gather) + j.Inline.Len()
	if !t.gather {
		// Inline payload (PIO or bounce copy): the application
		// buffer is already free.
		if m.staged = j.Inline; m.staged != nil {
			m.Payload = m.staged.b
		}
		m.TxDone.Fire()
	} else {
		// One pooled payload buffer per message, gathered into
		// fragment by fragment below.
		m.staged = getPayload(t.total)
		m.Payload = m.staged.b[:0]
	}
	t.cursor = n.node.Mem.Cursor(j.Gather)
	t.got, t.frag = 0, 0
	n.txFrags()
}

// txFrags sends the message's remaining fragments: it returns as soon
// as one has to cross the PCI bus (txDMADone comes back here), loops
// without an event over fragments that arrived by PIO, yields to a
// single-fragment message the rule puts first at a fragment boundary,
// and retires the job after the last.
//
// allocfree
func (n *NIC) txFrags() {
	t := &n.tx
	j, m := t.job, t.job.Msg
	for t.frag < m.frags {
		if n.dead {
			// The card died mid-message: the remaining fragments
			// never leave, and the receiver's partial message can
			// never complete. The local buffer is free regardless.
			// (The payload buffer is not: fragments already sent
			// reference it, so it is left to the GC, never pooled.)
			for g := t.frag; g < m.frags; g++ {
				n.Dropped.Add(n.fragBytes(m, g))
			}
			m.TxDone.Fire()
			break
		}
		if t.frag > 0 && n.txq.pick() != t.q {
			t.held = t.txLoop
			n.txBegin()
			return
		}
		t.size = n.fragBytes(m, t.frag)
		// Payload bytes carried by this fragment (the envelope and
		// header occupy the front of fragment 0).
		t.want = t.size
		if t.frag == 0 {
			t.want -= n.p.WireEnvelope + len(m.Header)
			if t.want < 0 {
				t.want = 0
			}
		}
		if t.want > t.total-t.got {
			t.want = t.total - t.got
		}
		if !j.PIO {
			// Both zero-copy (gather) and bounce (inline) payloads
			// cross the PCI bus fragment by fragment, pipelining
			// with the link stage like the real cut-through MCP.
			n.TxDMA.AcquireFunc(t.dmaHeld)
			return
		}
		n.txEmit()
	}
	n.txRetire()
}

// txDMAHeld runs with the send DMA engine held for the fragment in hand.
//
// allocfree
func (n *NIC) txDMAHeld() {
	n.node.Cluster.Env.AfterDetached(n.p.DMATime(n.model, n.tx.want), n.tx.dmaDone)
}

// txDMADone ends the fragment's DMA and goes on with the message.
//
// allocfree
func (n *NIC) txDMADone() {
	n.TxDMA.Release()
	n.step("txdma", n.tx.job.Msg, n.tx.frag)
	n.txEmit()
	n.txFrags()
}

// txEmit hands the fragment in hand to the link stage.
//
// allocfree
func (n *NIC) txEmit() {
	t := &n.tx
	m := t.job.Msg
	if t.gather && t.want > 0 {
		// Bytes leave host memory now: stores after this point
		// are not part of the message (the hazard pinning and
		// registration exist to prevent).
		m.Payload = m.staged.b[:t.got+t.want]
		t.cursor.Read(m.Payload[t.got:])
	}
	t.got += t.want
	n.linkq.push(m, n.getFrag(m, t.frag, t.size))
	if t.gather && t.frag == m.frags-1 {
		m.TxDone.Fire()
	}
	t.frag++
}

// fragBytes returns the wire size of fragment f of m.
func (n *NIC) fragBytes(m *Message, f int) int {
	if f < m.frags-1 {
		return n.p.FragSize
	}
	last := m.wireLen - (m.frags-1)*n.p.FragSize
	if last <= 0 {
		last = m.wireLen
	}
	return last
}

// linkStage serializes fragments onto the wire and delivers them to the
// destination NIC after the propagation delay, one fragment at a time,
// taking each from linkq under the rule (see NIC): a single-fragment
// message goes out after the fragment on the wire, ahead of other
// nodes' queued bulk fragments.
type linkStage struct {
	frag *frag // the fragment in hand

	// Continuations (see newNIC).
	begin, held, done func()
}

// linkNext waits for the next fragment.
//
// allocfree
func (n *NIC) linkNext() {
	n.link.frag = nil
	if n.linkq.empty() {
		n.linkq.wait(n.link.begin)
		return
	}
	n.linkBegin()
}

// linkBegin takes the fragment the rule picks once no stall is in
// effect and puts it on the wire, or drops it on a dead card.
//
// allocfree
func (n *NIC) linkBegin() {
	if n.stalled(n.link.begin) {
		return
	}
	f := n.linkq.pop(n.linkq.pick())
	if n.dead {
		// Frames still queued for the wire when the card died.
		n.Dropped.Add(f.size)
		n.putFrag(f)
		n.linkNext()
		return
	}
	n.link.frag = f
	n.Link.AcquireFunc(n.link.held)
}

// linkHeld runs with the transmitter held for the fragment in hand.
//
// allocfree
func (n *NIC) linkHeld() {
	n.node.Cluster.Env.AfterDetached(n.p.LinkTime(n.model, n.link.frag.size), n.link.done)
}

// linkDone ends the fragment's transmission: it reaches the destination
// NIC one propagation delay later.
//
// allocfree
func (n *NIC) linkDone() {
	n.Link.Release()
	f := n.link.frag
	n.step("link", f.msg, f.idx)
	f.dst = n.node.Cluster.Node(f.msg.Dst).NIC
	n.node.Cluster.Env.AfterDetached(n.p.WireProp, f.deliver)
	n.linkNext()
}

// rxPump drains arriving fragments: per fragment, run the receive DMA
// engine; on the last fragment of a message, charge receive firmware
// processing and invoke the driver handler.
func (n *NIC) rxPump(p *sim.Proc) {
	for {
		f := n.rxq.Recv(p)
		n.stall(p)
		if n.dead {
			n.Dropped.Add(f.size)
			f.src.putFrag(f)
			continue
		}
		// Copy what the rest of the iteration needs and recycle the
		// record before yielding in RxDMA (the source NIC may reuse it
		// for a later fragment meanwhile).
		m, size := f.msg, f.size
		f.src.putFrag(f)
		n.RxDMA.Use(p, n.p.DMATime(n.model, size))
		m.arrived++
		n.step("rxdma", m, m.arrived-1)
		if m.arrived < m.frags {
			continue
		}
		n.Firmware.Use(p, n.p.FwRecvTime(n.isMX(m.Proto), m.frags))
		n.step("fw-recv", m, -1)
		n.RxMsgs.Add(m.PayloadLen())
		h := n.handlers[m.Proto]
		if h == nil {
			panic(fmt.Sprintf("hw: node %s received proto %d with no handler", n.node.Name, m.Proto))
		}
		h(p, m)
		// The handler has scattered (or copied) what it wanted: the
		// payload buffer goes back to the pool. Only a message that
		// arrived whole gets here, so a buffer whose message lost
		// frames to a fault never re-enters the pool.
		if st := m.staged; st != nil {
			m.staged, m.Payload = nil, nil
			putPayload(st)
		}
	}
}

// Protocol numbers. Firmware processing costs differ between the GM and
// MX MCPs, so the NIC needs to know which family a message belongs to.
const (
	ProtoGM  uint8 = 1
	ProtoMX  uint8 = 2
	ProtoTCP uint8 = 3
)

func (n *NIC) isMX(proto uint8) bool { return proto == ProtoMX }

// FwSendTime is firmware send processing for a message of the given
// fragment count under the GM or MX MCP.
func (p *Params) FwSendTime(mx bool, frags int) sim.Time {
	if mx {
		return p.MXFwSend + sim.Time(frags-1)*p.MXFwFrag
	}
	return p.GMFwSend + sim.Time(frags-1)*p.GMFwFrag
}

// FwRecvTime is firmware receive processing.
func (p *Params) FwRecvTime(mx bool, frags int) sim.Time {
	if mx {
		return p.MXFwRecv + sim.Time(frags-1)*p.MXFwFrag
	}
	return p.GMFwRecv + sim.Time(frags-1)*p.GMFwFrag
}

// TransTable is the NIC's page-translation table: the registered-memory
// state the paper's §2.2 describes. Entries map (ASID, virtual page) to
// a physical frame address. Capacity is bounded; GM registration fails
// when full (forcing deregistration, hence the pin-down cache).
type TransTable struct {
	capacity int
	entries  map[TransKey]mem.PhysAddr
}

// TransKey identifies one registered page. The ASID field is the
// address-space descriptor GMKRC packs into the upper bits of NIC
// pointers to disambiguate processes sharing a kernel port (§3.2).
type TransKey struct {
	AS  uint32
	VPN uint64
}

// NewTransTable returns an empty table with the given entry capacity.
func NewTransTable(capacity int) *TransTable {
	return &TransTable{capacity: capacity, entries: make(map[TransKey]mem.PhysAddr)}
}

// Used returns the number of live entries.
func (t *TransTable) Used() int { return len(t.entries) }

// Capacity returns the table capacity.
func (t *TransTable) Capacity() int { return t.capacity }

// Insert adds a page translation. It fails when the table is full.
func (t *TransTable) Insert(k TransKey, pa mem.PhysAddr) error {
	if _, ok := t.entries[k]; !ok && len(t.entries) >= t.capacity {
		return fmt.Errorf("hw: NIC translation table full (%d entries)", t.capacity)
	}
	t.entries[k] = pa
	return nil
}

// Remove drops a translation (no-op if absent).
func (t *TransTable) Remove(k TransKey) { delete(t.entries, k) }

// Lookup returns the physical address for a registered page.
func (t *TransTable) Lookup(k TransKey) (mem.PhysAddr, bool) {
	pa, ok := t.entries[k]
	return pa, ok
}
