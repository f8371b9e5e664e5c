// Package nbd implements the Network Block Device client/server pair
// the paper names as its third in-kernel application (§5.4, §6): a
// client at the bottom of the storage stack that forwards block
// accesses to a remote server, "allowing remote partition mounting
// such as with iSCSI".
//
// The paper's prediction — which this package lets the benchmarks test
// — is that NBD "manipulates the page-cache in a similar way a
// distributed file system client does", so the physical-address-based
// kernel interface should benefit it the same way it benefits buffered
// ORFS access.
//
// The device is exposed to the VFS as a filesystem with a single file
// ("disk"), the moral equivalent of /dev/nbd0: buffered access to it
// goes through the page cache in page-sized transfers, direct access
// bypasses it, exactly like a raw block device node.
//
// The client is windowed: its request slots come from a fabric.Window
// (the same type rfsrv.Session holds), and the device's two pipelined
// loops — the combined page-cache fetch and the direct read — keep
// their in-flight block requests in a fabric.Pipeline, which retires
// every one of them on every exit. The wire stays the block protocol's
// own (one reply message per block, where an rfsrv read takes two). A
// request's reply deadline is a protocol constant (replyDeadline), so a
// server that dies with a request in flight fails its waiter instead of
// parking it for good.
package nbd

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/vm"
)

// BlockSize is the device block size (one page, matching the
// page-cache granularity the paper discusses).
const BlockSize = mem.PageSize

// replyDeadline is how long a block request waits for its reply,
// counted from its issue. It is a protocol constant, not a knob: a
// fault-free block round trip takes microseconds, and milliseconds
// under the multiserver figure's load, so only a server that died
// with the request in flight trips it.
const replyDeadline = 100 * time.Millisecond

// protocol kinds (hw.Message.Kind).
const (
	kindRead uint8 = iota + 1
	kindWrite
	kindReadResp
	kindWriteResp
)

// Server exports a flat disk of n blocks, stored in physical frames so
// reads are served zero-copy.
type Server struct {
	node   *hw.Node
	blocks []*mem.Frame
	zero   *mem.Frame

	// Reads/Writes count served block operations.
	Reads, Writes sim.Counter
}

// NewServer allocates a disk of numBlocks blocks on node.
func NewServer(node *hw.Node, numBlocks int) (*Server, error) {
	zero, err := node.Mem.AllocFrame()
	if err != nil {
		return nil, err
	}
	return &Server{node: node, blocks: make([]*mem.Frame, numBlocks), zero: zero}, nil
}

// NumBlocks returns the disk size in blocks.
func (s *Server) NumBlocks() int { return len(s.blocks) }

// frame returns the backing frame for block i, allocating on first
// write (nil for never-written blocks on the read path).
func (s *Server) frame(i int64, allocate bool) (*mem.Frame, error) {
	if i < 0 || i >= int64(len(s.blocks)) {
		return nil, fmt.Errorf("nbd: block %d out of range", i)
	}
	if s.blocks[i] == nil && allocate {
		f, err := s.node.Mem.AllocFrame()
		if err != nil {
			return nil, err
		}
		s.blocks[i] = f
	}
	return s.blocks[i], nil
}

// ServeMX serves the block protocol on an MX kernel endpoint (through
// the unified fabric).
func (s *Server) ServeMX(m *mx.MX, epID uint8, workers int) error {
	t, err := fabric.NewMX(m, epID, true)
	if err != nil {
		return err
	}
	return s.Serve(t, workers)
}

// Serve starts worker processes serving the block protocol on any
// vectorial fabric transport.
func (s *Server) Serve(t fabric.Transport, workers int) error {
	if caps := t.Caps(); !caps.Vectors || !caps.Physical {
		return fmt.Errorf("nbd: server needs a vectorial transport with physical addressing")
	}
	for w := 0; w < workers; w++ {
		s.node.Cluster.Env.Spawn(fmt.Sprintf("%s-nbd-%d", s.node.Name, w), func(p *sim.Proc) {
			s.worker(p, t)
		})
	}
	return nil
}

// request header: kind(1) seq(8) block(8) ep(1)
const hdrLen = 18

func encHdr(kind uint8, seq uint64, block int64, ep uint8) []byte {
	b := make([]byte, hdrLen)
	b[0] = kind
	binary.LittleEndian.PutUint64(b[1:], seq)
	binary.LittleEndian.PutUint64(b[9:], uint64(block))
	b[17] = ep
	return b
}

func decHdr(b []byte) (kind uint8, seq uint64, block int64, ep uint8, err error) {
	if len(b) < hdrLen {
		return 0, 0, 0, 0, fmt.Errorf("nbd: short header")
	}
	return b[0], binary.LittleEndian.Uint64(b[1:]), int64(binary.LittleEndian.Uint64(b[9:])), b[17], nil
}

func (s *Server) worker(p *sim.Proc, t fabric.Transport) {
	kern := s.node.Kernel
	pool := fabric.PoolOf(s.node)
	bounceBuf, err := pool.Get(hdrLen + BlockSize)
	if err != nil {
		panic(err)
	}
	hdrBuf, err := pool.Get(hdrLen)
	if err != nil {
		panic(err)
	}
	bounce, hdrVA := bounceBuf.VA(), hdrBuf.VA()
	bounceVec := bounceBuf.KernelVec(hdrLen + BlockSize)
	reqMatch := core.Match{Bits: 1, Mask: 1} // requests have the low bit set
	for {
		rr, err := t.PostRecv(p, reqMatch, bounceVec)
		if err != nil {
			panic(err)
		}
		//analyze:allow boundedwait the server idles here until some client sends a request; no peer owes it one
		st := rr.Wait(p)
		raw, _ := kern.ReadBytes(bounce, st.Len)
		kind, seq, block, cep, err := decHdr(raw)
		if err != nil {
			continue
		}
		s.node.CPU.VFS(p) // request dispatch
		switch kind {
		case kindRead:
			s.Reads.Add(BlockSize)
			f, err := s.frame(block, false)
			status := uint8(kindReadResp)
			if err != nil {
				f = s.zero
				status = 0 // error marker: zero-filled reply, kind 0
			}
			if f == nil {
				f = s.zero
			}
			kern.WriteBytes(hdrVA, encHdr(status, seq, block, 0))
			v := core.Vector{
				core.KernelSeg(kern, hdrVA, hdrLen),
				core.PhysSeg(f.Addr(), BlockSize),
			}
			s.reply(p, t, st.Src, cep, seq, v)
		case kindWrite:
			s.Writes.Add(BlockSize)
			// A write whose receive failed or whose payload is not one
			// whole block answers the error marker and leaves the block
			// alone (rfsrv.Server checks its write payloads the same way).
			status := uint8(0)
			if st.Err == nil && st.Len == hdrLen+BlockSize {
				if f, err := s.frame(block, true); err == nil {
					s.node.CPU.Copy(p, BlockSize) // bounce → disk block
					copy(f.Data(), raw[hdrLen:])
					status = kindWriteResp
				}
			}
			kern.WriteBytes(hdrVA, encHdr(status, seq, block, 0))
			s.reply(p, t, st.Src, cep, seq, core.Of(core.KernelSeg(kern, hdrVA, hdrLen)))
		}
	}
}

// reply sends one reply to the client that asked. A client that died
// with its request in flight is a transport fault (dead peer at send
// time), and its reply is dropped — the server and its other clients
// carry on, exactly like rfsrv.Server.reply; any other send error is a
// bug.
func (s *Server) reply(p *sim.Proc, t fabric.Transport, dst hw.NodeID, ep uint8, seq uint64, v core.Vector) {
	if _, err := t.Send(p, dst, ep, seq<<1, v); err != nil && !fabric.IsFault(err) {
		panic(err)
	}
}

// Client is the in-kernel NBD client, speaking the block protocol over
// any vectorial fabric transport. It keeps a fabric.Window of request
// slots (one by default — the synchronous protocol); SetWindow widens
// it so multiple block requests can be queued on the wire at once,
// demuxed by sequence number. A slot is one request's header staging,
// a pooled buffer: the reply header lands at its start, the request
// header stages hdrLen further in.
type Client struct {
	t         fabric.Transport
	node      *hw.Node
	server    hw.NodeID
	serverEP  uint8
	numBlocks int
	seq       uint64
	win       *fabric.Window[*fabric.Buffer]

	// BlockReads/BlockWrites count issued block operations.
	BlockReads, BlockWrites sim.Counter
}

// NewClient connects an NBD client on an MX kernel endpoint.
func NewClient(m *mx.MX, epID uint8, server hw.NodeID, serverEP uint8, numBlocks int) (*Client, error) {
	t, err := fabric.NewMX(m, epID, true)
	if err != nil {
		return nil, err
	}
	return NewFabricClient(t, server, serverEP, numBlocks)
}

// NewFabricClient connects an NBD client over an established fabric
// transport (its header buffers come from the node's shared pool).
func NewFabricClient(t fabric.Transport, server hw.NodeID, serverEP uint8, numBlocks int) (*Client, error) {
	if caps := t.Caps(); !caps.Vectors || !caps.Physical {
		return nil, fmt.Errorf("nbd: client needs a vectorial transport with physical addressing")
	}
	node := t.Node()
	c := &Client{
		t: t, node: node, server: server, serverEP: serverEP,
		numBlocks: numBlocks,
		win:       fabric.NewWindow[*fabric.Buffer](node.Cluster.Env),
	}
	if err := c.SetWindow(1); err != nil {
		return nil, err
	}
	return c, nil
}

// SetWindow widens the request window to w outstanding block requests
// (w = 1 is the synchronous protocol). It can only grow the window.
func (c *Client) SetWindow(w int) error {
	if w < c.win.Size() {
		return fmt.Errorf("nbd: window can only grow (%d -> %d)", c.win.Size(), w)
	}
	for c.win.Size() < w {
		buf, err := fabric.PoolOf(c.node).Get(2 * hdrLen)
		if err != nil {
			return err
		}
		c.win.Add(buf)
	}
	return nil
}

// Window returns the configured request window.
func (c *Client) Window() int { return c.win.Size() }

// InFlight returns the number of outstanding block requests.
func (c *Client) InFlight() int { return c.win.InFlight() }

// NumBlocks returns the device size in blocks.
func (c *Client) NumBlocks() int { return c.numBlocks }

// PendingBlock is one in-flight block request.
type PendingBlock struct {
	c        *Client
	slot     *fabric.Buffer
	seq      uint64
	idx      int64
	wantKind uint8
	op       fabric.Op // the reply receive
	sent     fabric.Op // the request's send
	issued   sim.Time  // the reply deadline runs from here
	done     bool
	err      error
}

// start issues one block request through the window, blocking while
// the window is full. frame is the reply payload destination (reads)
// or the request payload (writes). On error the request never left:
// the slot is back in the window and nothing stays posted.
func (c *Client) start(p *sim.Proc, kind uint8, idx int64, frame *mem.Frame) (*PendingBlock, error) {
	slot := c.win.Acquire(p)
	c.seq++
	seq := c.seq
	kern := c.node.Kernel
	hdrOff := slot.VA() + vm.VirtAddr(hdrLen) // separate request header slot
	recv := core.Vector{core.KernelSeg(kern, slot.VA(), hdrLen)}
	send := core.Vector{core.KernelSeg(kern, hdrOff, hdrLen)}
	wantKind := kindWriteResp
	if kind == kindRead {
		// Reply: header into the slot, payload straight into the
		// caller's frame (vectorial, physically addressed).
		recv = append(recv, core.PhysSeg(frame.Addr(), BlockSize))
		wantKind = kindReadResp
	} else {
		send = append(send, core.PhysSeg(frame.Addr(), BlockSize))
	}
	rr, err := c.t.PostRecv(p, core.Exact(seq<<1), recv)
	if err != nil {
		c.win.Release(slot)
		return nil, err
	}
	var sent fabric.Op
	err = kern.WriteBytes(hdrOff, encHdr(kind, seq, idx, c.t.LocalEP()))
	if err == nil {
		sent, err = c.t.Send(p, c.server, c.serverEP, seq<<1|1, send)
	}
	if err != nil {
		// The receive is tagged with a sequence number that was never
		// sent, so withdrawing it cannot race a delivery.
		fabric.Cancel(p, rr)
		c.win.Release(slot)
		return nil, err
	}
	return &PendingBlock{c: c, slot: slot, seq: seq, idx: idx, wantKind: wantKind, op: rr, sent: sent, issued: p.Now()}, nil
}

// Wait retires the request; requests may be waited in any order. A
// reply that has not come replyDeadline after the request's issue
// fails it as a transport fault (fabric.IsFault): its receive is
// withdrawn — or, if the reply matched meanwhile, waited — and its send
// settled, waited for at most one more deadline, before the slot goes
// back, for the NIC gathers the header slot, and a write's frame, at
// DMA time.
func (pb *PendingBlock) Wait(p *sim.Proc) error {
	if pb.done {
		return pb.err
	}
	pb.done = true
	defer pb.c.win.Release(pb.slot)
	st, ok := fabric.WaitTimeout(p, pb.op, max(pb.issued+replyDeadline-p.Now(), 1))
	if !ok && fabric.Cancel(p, pb.op) {
		if !pb.sent.Done() {
			fabric.WaitTimeout(p, pb.sent, replyDeadline)
		}
		pb.err = fmt.Errorf("nbd: block %d: %w", pb.idx, fabric.ErrTimeout)
		return pb.err
	}
	if !ok {
		//analyze:allow boundedwait the reply already matched (Cancel refused): its completion is under way
		st = pb.op.Wait(p)
	}
	if st.Err != nil {
		pb.err = st.Err
		return pb.err
	}
	raw, _ := pb.c.node.Kernel.ReadBytes(pb.slot.VA(), hdrLen)
	kind, rseq, _, _, err := decHdr(raw)
	if err != nil {
		pb.err = err
		return err
	}
	if rseq != pb.seq {
		pb.err = fmt.Errorf("nbd: reply for seq %d, want %d", rseq, pb.seq)
	} else if kind != pb.wantKind {
		verb := "write"
		if pb.wantKind == kindReadResp {
			verb = "read"
		}
		pb.err = fmt.Errorf("nbd: %s of block %d failed", verb, pb.idx)
	}
	return pb.err
}

// StartRead queues a read of block idx into frame through the window.
func (c *Client) StartRead(p *sim.Proc, idx int64, frame *mem.Frame) (*PendingBlock, error) {
	c.BlockReads.Add(BlockSize)
	return c.start(p, kindRead, idx, frame)
}

// StartWrite queues a write of frame as block idx through the window.
func (c *Client) StartWrite(p *sim.Proc, idx int64, frame *mem.Frame) (*PendingBlock, error) {
	c.BlockWrites.Add(BlockSize)
	return c.start(p, kindWrite, idx, frame)
}

// ReadBlock reads block idx into frame — the page-cache path: the
// frame's physical address goes straight to the network layer.
func (c *Client) ReadBlock(p *sim.Proc, idx int64, frame *mem.Frame) error {
	pb, err := c.StartRead(p, idx, frame)
	if err != nil {
		return err
	}
	return pb.Wait(p)
}

// WriteBlock writes frame — always one whole block — as block idx.
func (c *Client) WriteBlock(p *sim.Proc, idx int64, frame *mem.Frame) error {
	pb, err := c.StartWrite(p, idx, frame)
	if err != nil {
		return err
	}
	return pb.Wait(p)
}

// Device adapts one or more clients to kernel.FileSystem: a filesystem
// holding the single file "disk" of the device's size, so the VFS page
// cache sits on top exactly as it would on a block special file.
//
// With several clients the device is striped at block granularity:
// block b is served by client b mod M (each backend stores its blocks
// at their global indices, sparse), so consecutive blocks of a
// combined page-cache fetch fan out round-robin across servers and the
// aggregate bandwidth grows with the server count — the block-device
// face of the same idea rfsrv.Cluster applies to files. One client
// degenerates to the plain single-server device, request for request.
//
// Unlike the file cluster the striped device needs no size-coherence
// protocol (rfsrv's per-inode size epochs, DESIGN.md §9): a block
// device's size is fixed at construction — NewStripedDevice pins it to
// the smallest backend and Truncate is rejected — so there is no
// end-of-file for writers to move and nothing for a per-client cache
// to go stale on. Capacity changes are a reconstruction, not an op.
type Device struct {
	cls    []*Client
	node   *hw.Node
	blocks int // device size: smallest backend (fixed at construction)
}

// NewDevice wraps a client for mounting.
func NewDevice(cl *Client) *Device {
	return &Device{cls: []*Client{cl}, node: cl.node, blocks: cl.NumBlocks()}
}

// NewStripedDevice builds a block-striped device over one client per
// server. All clients must live on the same node; the device size is
// the smallest backend size (every block must have a home).
func NewStripedDevice(cls []*Client) (*Device, error) {
	if len(cls) == 0 {
		return nil, fmt.Errorf("nbd: striped device needs at least one client")
	}
	blocks := cls[0].NumBlocks()
	for _, c := range cls[1:] {
		if c.node != cls[0].node {
			return nil, fmt.Errorf("nbd: striped device clients must share one node")
		}
		if c.NumBlocks() < blocks {
			blocks = c.NumBlocks()
		}
	}
	return &Device{cls: cls, node: cls[0].node, blocks: blocks}, nil
}

// cl returns the client owning block idx.
func (d *Device) cl(idx int64) *Client {
	return d.cls[int(idx%int64(len(d.cls)))]
}

// numBlocks returns the device size in blocks.
func (d *Device) numBlocks() int { return d.blocks }

const diskIno kernel.InodeID = 2

// FSName implements kernel.FileSystem.
func (d *Device) FSName() string { return "nbd" }

// Root implements kernel.FileSystem.
func (d *Device) Root() kernel.InodeID { return 1 }

func (d *Device) rootAttr() kernel.Attr {
	return kernel.Attr{Ino: 1, Kind: kernel.Directory, Version: 1}
}

func (d *Device) diskAttr() kernel.Attr {
	return kernel.Attr{
		Ino: diskIno, Kind: kernel.RegularFile,
		Size: int64(d.numBlocks()) * BlockSize, Version: 1,
	}
}

// Lookup implements kernel.FileSystem.
func (d *Device) Lookup(p *sim.Proc, dir kernel.InodeID, name string) (kernel.Attr, error) {
	if dir != 1 {
		return kernel.Attr{}, kernel.ErrNotDir
	}
	if name != "disk" {
		return kernel.Attr{}, kernel.ErrNotFound
	}
	return d.diskAttr(), nil
}

// Getattr implements kernel.FileSystem.
func (d *Device) Getattr(p *sim.Proc, ino kernel.InodeID) (kernel.Attr, error) {
	switch ino {
	case 1:
		return d.rootAttr(), nil
	case diskIno:
		return d.diskAttr(), nil
	}
	return kernel.Attr{}, kernel.ErrNotFound
}

// Readdir implements kernel.FileSystem.
func (d *Device) Readdir(p *sim.Proc, dir kernel.InodeID) ([]kernel.DirEntry, error) {
	if dir != 1 {
		return nil, kernel.ErrNotDir
	}
	return []kernel.DirEntry{{Name: "disk", Ino: diskIno, Kind: kernel.RegularFile}}, nil
}

// Create implements kernel.FileSystem (devices hold no new files).
func (d *Device) Create(p *sim.Proc, dir kernel.InodeID, name string) (kernel.Attr, error) {
	return kernel.Attr{}, kernel.ErrExists
}

// Mkdir implements kernel.FileSystem.
func (d *Device) Mkdir(p *sim.Proc, dir kernel.InodeID, name string) (kernel.Attr, error) {
	return kernel.Attr{}, kernel.ErrExists
}

// Unlink implements kernel.FileSystem.
func (d *Device) Unlink(p *sim.Proc, dir kernel.InodeID, name string) error {
	return kernel.ErrNotFound
}

// Rmdir implements kernel.FileSystem.
func (d *Device) Rmdir(p *sim.Proc, dir kernel.InodeID, name string) error {
	return kernel.ErrNotFound
}

// Truncate implements kernel.FileSystem (fixed-size device).
func (d *Device) Truncate(p *sim.Proc, ino kernel.InodeID, size int64) error {
	return kernel.ErrBadOffset
}

// ReadPage implements kernel.FileSystem: one block read, zero-copy
// into the page-cache frame.
func (d *Device) ReadPage(p *sim.Proc, ino kernel.InodeID, idx int64, frame *mem.Frame) (int, error) {
	if ino != diskIno {
		return 0, kernel.ErrNotFound
	}
	if idx >= int64(d.numBlocks()) {
		return 0, nil
	}
	if err := d.cl(idx).ReadBlock(p, idx, frame); err != nil {
		return 0, err
	}
	return BlockSize, nil
}

// ReadPages implements kernel.PageRangeReader: a combined page-cache
// fetch becomes a queue of block requests pipelined through the
// client's window — the paper's prediction that NBD "manipulates the
// page-cache in a similar way a distributed file system client does",
// carried over to the windowed protocol.
func (d *Device) ReadPages(p *sim.Proc, ino kernel.InodeID, idx int64, frames []*mem.Frame) (int, error) {
	if ino != diskIno {
		return 0, kernel.ErrNotFound
	}
	total := 0
	nb := int64(d.numBlocks())
	for i := range frames {
		if idx+int64(i) >= nb {
			frames = frames[:i]
			break
		}
		total += BlockSize
	}
	if len(frames) == 0 {
		return 0, nil
	}
	if err := d.readBlocks(p, idx, frames); err != nil {
		return 0, err
	}
	return total, nil
}

// readBlocks reads consecutive blocks starting at idx into frames,
// routing each block to its owning client and keeping every owner's
// window full.
func (d *Device) readBlocks(p *sim.Proc, idx int64, frames []*mem.Frame) error {
	pl := fabric.NewPipeline(func(p *sim.Proc, pb *PendingBlock, _ bool) error { return pb.Wait(p) })
	for i, f := range frames {
		b := idx + int64(i)
		owner := d.cl(b)
		// Retire oldest-first until the owner can queue one more; the
		// oldest request frees a slot somewhere, and blocks round-robin
		// uniformly, so the owner's slot frees within len(cls) retires.
		if pl.Room(p, owner.win.HasRoom) != nil {
			break
		}
		pb, err := owner.StartRead(p, b, f)
		if err != nil {
			pl.Fail(err)
			break
		}
		pl.Push(pb)
	}
	return pl.Drain(p)
}

// WritePage implements kernel.FileSystem.
func (d *Device) WritePage(p *sim.Proc, ino kernel.InodeID, idx int64, frame *mem.Frame, n int) error {
	if ino != diskIno {
		return kernel.ErrNotFound
	}
	if idx >= int64(d.numBlocks()) {
		return kernel.ErrBadOffset
	}
	return d.cl(idx).WriteBlock(p, idx, frame)
}

// ReadDirect implements kernel.FileSystem: block-aligned direct reads
// assembled from block RPCs through bounce frames. With a window above
// one, up to window block requests are queued, so consecutive blocks
// transfer back to back instead of paying a round trip each.
func (d *Device) ReadDirect(p *sim.Proc, ino kernel.InodeID, off int64, v core.Vector) (int, error) {
	if ino != diskIno {
		return 0, kernel.ErrNotFound
	}
	n := v.TotalLen()
	size := int64(d.numBlocks()) * BlockSize
	if off >= size {
		return 0, nil
	}
	if int64(n) > size-off {
		n = int(size - off)
	}
	xs, err := v.Extents()
	if err != nil {
		return 0, err
	}
	type chunkReq struct {
		pb     *PendingBlock
		bounce *mem.Frame
		done   int // destination offset
		bOff   int // offset within the block
		chunk  int
	}
	done := 0
	pl := fabric.NewPipeline(func(p *sim.Proc, cr chunkReq, failed bool) error {
		err := cr.pb.Wait(p)
		if err == nil && !failed {
			d.node.CPU.Copy(p, cr.chunk)
			d.node.Mem.Scatter(slice(xs, cr.done, cr.chunk), cr.bounce.Data()[cr.bOff:cr.bOff+cr.chunk])
			done += cr.chunk
		}
		d.node.Mem.Put(cr.bounce)
		return err
	})
	for issued := 0; issued < n; {
		idx := (off + int64(issued)) / BlockSize
		bOff := int((off + int64(issued)) % BlockSize)
		chunk := min(BlockSize-bOff, n-issued)
		owner := d.cl(idx)
		if pl.Room(p, owner.win.HasRoom) != nil {
			break
		}
		// An allocation failure surfaces as the error it is, not as a
		// short read the caller would take for EOF.
		bounce, err := d.node.Mem.AllocFrame()
		if err != nil {
			pl.Fail(err)
			break
		}
		pb, err := owner.StartRead(p, idx, bounce)
		if err != nil {
			d.node.Mem.Put(bounce)
			pl.Fail(err)
			break
		}
		pl.Push(chunkReq{pb: pb, bounce: bounce, done: issued, bOff: bOff, chunk: chunk})
		issued += chunk
	}
	err = pl.Drain(p) // before done is read: the retires still add to it
	return done, err
}

// WriteDirect implements kernel.FileSystem.
func (d *Device) WriteDirect(p *sim.Proc, ino kernel.InodeID, off int64, v core.Vector) (int, error) {
	if ino != diskIno {
		return 0, kernel.ErrNotFound
	}
	n := v.TotalLen()
	size := int64(d.numBlocks()) * BlockSize
	if off >= size || int64(n) > size-off {
		return 0, kernel.ErrBadOffset
	}
	bounce, err := d.node.Mem.AllocFrame()
	if err != nil {
		return 0, err
	}
	defer d.node.Mem.Put(bounce)
	xs, err := v.Extents()
	if err != nil {
		return 0, err
	}
	done := 0
	for done < n {
		idx := (off + int64(done)) / BlockSize
		bOff := int((off + int64(done)) % BlockSize)
		chunk := min(BlockSize-bOff, n-done)
		owner := d.cl(idx)
		if bOff != 0 || chunk != BlockSize {
			// Read-modify-write for partial blocks.
			if err := owner.ReadBlock(p, idx, bounce); err != nil {
				return done, err
			}
		}
		// Sampled before the copy is charged, into an owned slice (at
		// most one block): Gather, not a Cursor, on purpose.
		data := d.node.Mem.Gather(slice(xs, done, chunk))
		d.node.CPU.Copy(p, chunk)
		copy(bounce.Data()[bOff:], data)
		if err := owner.WriteBlock(p, idx, bounce); err != nil {
			return done, err
		}
		done += chunk
	}
	return done, nil
}

// slice extracts [off, off+n) of an extent list.
func slice(xs []mem.Extent, off, n int) []mem.Extent {
	var out []mem.Extent
	for _, x := range xs {
		if n == 0 {
			break
		}
		if off >= x.Len {
			off -= x.Len
			continue
		}
		take := x.Len - off
		if take > n {
			take = n
		}
		out = append(out, mem.Extent{Addr: x.Addr + mem.PhysAddr(off), Len: take})
		n -= take
		off = 0
	}
	return out
}

var _ kernel.FileSystem = (*Device)(nil)
