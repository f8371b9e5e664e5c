package fabric

// This file is the shared buffer pool: physically contiguous kernel
// bounce buffers recycled across every consumer on a node, each
// buffer's per-transport registrations cached so they travel with it.
import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Pool is a per-node pool of physically contiguous kernel bounce
// buffers shared by every fabric consumer on the node — the socket
// stacks, the remote-file server and clients, the block device.
//
// Before the pool each consumer MmapContig'd its own staging buffers;
// now closed connections and finished workers return them for reuse.
// For registering transports, a buffer's registrations travel with it
// across reuses (RegisterWith is cached per transport — exercised by
// pool_test.go; in-tree consumers address pooled buffers physically,
// so per-transfer registration caching itself lives in
// Transport.Acquire, which every consumer reaches through the fabric).
type Pool struct {
	node *hw.Node
	free map[int][]*Buffer
	all  []*Buffer // every buffer ever created, for registration invalidation

	// Gets counts handed-out buffers (.N) and their class bytes
	// (.Bytes); Hits the subset served by recycling.
	Gets, Hits sim.Counter
}

// PoolOf returns the node's shared buffer pool, creating it on first
// use. The pool lives on the node itself (hw.Node.FabricPool), so a
// finished simulation's memory is collectable — no global registry.
func PoolOf(node *hw.Node) *Pool {
	if p, ok := node.FabricPool.(*Pool); ok {
		return p
	}
	p := &Pool{node: node, free: make(map[int][]*Buffer)}
	node.FabricPool = p
	return p
}

// class rounds a request up to whole pages — the granularity kernel
// contiguous allocations come in anyway — so recycling costs no more
// simulated memory than the direct MmapContig it replaces.
func class(size int) int {
	return (size + mem.PageSize - 1) / mem.PageSize * mem.PageSize
}

// Get hands out a kernel-contiguous buffer of at least size bytes.
func (p *Pool) Get(size int) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("fabric: pool Get(%d)", size)
	}
	c := class(size)
	p.Gets.Add(c)
	if q := p.free[c]; len(q) > 0 {
		b := q[len(q)-1]
		p.free[c] = q[:len(q)-1]
		b.free, b.released = false, false
		p.Hits.Add(c)
		return b, nil
	}
	va, err := p.node.Kernel.MmapContig(c, "fabric-pool")
	if err != nil {
		return nil, err
	}
	xs, err := p.node.Kernel.Resolve(va, c)
	if err != nil {
		return nil, err
	}
	b := &Buffer{pool: p, va: va, size: c, xs: xs, regs: make(map[Transport]bool)}
	p.all = append(p.all, b)
	return b, nil
}

// invalidate forgets cached registrations for a transport that has
// deregistered memory or closed: over-invalidation merely re-pays a
// registration, while a stale cache entry would skip one the model
// should charge (or fail the next send outright).
func (p *Pool) invalidate(t Transport) {
	for _, b := range p.all {
		delete(b.regs, t)
	}
}

// Buffer is one pooled bounce buffer: kernel-virtual, physically
// contiguous, with its physical extents pre-resolved and its per-
// transport registrations cached across reuses.
type Buffer struct {
	pool *Pool
	va   vm.VirtAddr
	size int
	xs   []mem.Extent
	phys core.Vector // PhysVec's description, rebuilt in place
	regs map[Transport]bool

	// Quiescence tracking: a buffer goes back to the free list only
	// when it has been Released and no operation holds a Pin.
	// Consumers pin around every operation that touches the buffer
	// (including ones that may park), so the release protocol lives
	// here, in one place, instead of as ad-hoc flags in every consumer.
	pins     int
	released bool
	free     bool // currently in the pool's free list
}

// VA returns the buffer's kernel virtual address.
func (b *Buffer) VA() vm.VirtAddr { return b.va }

// Size returns the buffer capacity.
func (b *Buffer) Size() int { return b.size }

// Extents returns the buffer's first n bytes as physical extents.
func (b *Buffer) Extents(n int) []mem.Extent {
	if n > b.size {
		panic(fmt.Sprintf("fabric: buffer extents %d > %d", n, b.size))
	}
	if n == b.size {
		return b.xs
	}
	return mem.Clip(b.xs, n)
}

// KernelVec returns the buffer's first n bytes as a kernel-virtual
// vector.
func (b *Buffer) KernelVec(n int) core.Vector {
	return core.Of(core.KernelSeg(b.pool.node.Kernel, b.va, n))
}

// PhysVec returns the buffer's first n bytes as a physical vector — the
// way a kernel consumer on a physical-capable transport addresses its
// staging, with no translation and no registration. The vector is the
// buffer's own, rebuilt in place: it describes the buffer for whoever
// holds it, and is valid until the next PhysVec call, which only the
// next holder makes once the operations over it are done.
//
// allocfree
func (b *Buffer) PhysVec(n int) core.Vector {
	if n > b.size {
		//analyze:allow allocfree a misuse panics
		panic(fmt.Sprintf("fabric: buffer vector %d > %d", n, b.size))
	}
	b.phys = b.phys[:0]
	for _, x := range b.xs {
		if n == 0 {
			break
		}
		l := min(x.Len, n)
		//analyze:allow allocfree grows once per buffer, to its extent count
		b.phys = append(b.phys, core.PhysSeg(x.Addr, l))
		n -= l
	}
	return b.phys
}

// RegisterWith registers the whole buffer with t once; repeated calls
// for the same transport are free (the pooled analogue of the pin-down
// cache: registration rides with the recycled buffer).
func (b *Buffer) RegisterWith(p *sim.Proc, t Transport) error {
	if !t.Caps().NeedsReg || b.regs[t] {
		return nil
	}
	if err := t.Register(p, b.pool.node.Kernel, b.va, b.size); err != nil {
		return err
	}
	b.regs[t] = true
	return nil
}

// Pin marks an operation in flight over the buffer; the buffer cannot
// re-enter the pool until the matching Unpin. Pin before the first
// charge that may park the process, so a concurrent Release cannot
// recycle the buffer out from under the operation.
func (b *Buffer) Pin() { b.pins++ }

// Unpin ends an operation, completing a deferred Release if this was
// the last pin.
func (b *Buffer) Unpin() {
	if b.pins <= 0 {
		panic("fabric: unpin of unpinned buffer")
	}
	b.pins--
	b.tryFree()
}

// Outstanding returns the number of buffers currently handed out
// (not in the free list).
func (p *Pool) Outstanding() int {
	n := 0
	for _, b := range p.all {
		if !b.free {
			n++
		}
	}
	return n
}

// CheckLeaks is the pool's leak-accounting assertion for tests: once
// every consumer has released its buffers and quiesced, it returns an
// error naming the released buffers still pinned by an operation that
// never finished: they can never recycle.
func (p *Pool) CheckLeaks() error {
	stuck := 0
	for _, b := range p.all {
		if b.released && !b.free {
			stuck++
		}
	}
	if stuck > 0 {
		return fmt.Errorf("fabric: pool leaks: %d released-but-stuck of %d buffers", stuck, len(p.all))
	}
	return nil
}

// Release returns the buffer to the pool once quiescent (registrations
// are kept — the next Get of this class reuses them). With pins still
// held the release completes at the last Unpin. Releasing twice
// panics: a double release would hand the same kernel buffer to two
// independent consumers, which corrupts data silently — better to
// fail loudly.
func (b *Buffer) Release() {
	if b.released {
		panic("fabric: double release of pooled buffer")
	}
	b.released = true
	b.tryFree()
}

func (b *Buffer) tryFree() {
	if b.released && b.pins == 0 && !b.free {
		b.free = true
		b.pool.free[b.size] = append(b.pool.free[b.size], b)
	}
}
