// Package mem models the physical memory of a simulated cluster node at
// page granularity, holding real bytes.
//
// Every data path the paper measures — memory copies, DMA transfers,
// programmed I/O, page-cache fills — moves actual bytes through this
// package, so the test suite can verify end-to-end data integrity of
// each code path, not just its timing.
//
// Frames are identified by physical frame number (PFN); physical
// addresses are PFN*PageSize + offset. The allocator deliberately
// distinguishes between ordinary allocations (which become scattered as
// the free list recycles frames, like user anonymous memory after a
// while) and explicitly contiguous allocations (like kernel bounce
// buffers): the paper's copy-removal optimization only applies to
// physically contiguous runs, so contiguity must be controllable.
//
// Frames are recycled: the Go object behind a freed frame goes to a
// process-wide pool and the next allocation on any node reuses it,
// contents re-zeroed, PFNs assigned as before (the PFN recycle list and
// the fresh-PFN counter — hence physical contiguity and every simulated
// number — do not know the pool exists). A *Frame is therefore valid
// only while its holder owns a reference.
package mem

import (
	"fmt"
	"sync"
)

// PageSize is the page size of the simulated IA32 hosts (paper §3.3).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PhysAddr is a physical byte address in a node's memory.
type PhysAddr uint64

// PFN returns the physical frame number containing the address.
func (a PhysAddr) PFN() uint64 { return uint64(a) >> PageShift }

// Offset returns the offset of the address within its frame.
func (a PhysAddr) Offset() int { return int(uint64(a) & (PageSize - 1)) }

// Frame is one physical page frame.
type Frame struct {
	pfn  uint64
	data [PageSize]byte
	// Ref counts the reasons the frame must stay allocated: one for
	// each address-space mapping plus one for each pin. The page cache
	// and NIC bounce pools hold their own references.
	ref int
}

// PFN returns the frame's physical frame number.
func (f *Frame) PFN() uint64 { return f.pfn }

// Addr returns the physical address of the first byte of the frame.
func (f *Frame) Addr() PhysAddr { return PhysAddr(f.pfn << PageShift) }

// Data returns the frame's backing bytes.
func (f *Frame) Data() []byte { return f.data[:] }

// Get increments the frame's reference count. The caller must already
// hold a reference: a frame whose count reached zero has gone back to
// the pool and may be another node's page by now, so taking a reference
// on it is a use after free and panics.
func (f *Frame) Get() {
	if f.ref <= 0 {
		panic(fmt.Sprintf("mem: Get on free frame %d (ref %d)", f.pfn, f.ref))
	}
	f.ref++
}

// RefCount returns the current reference count.
func (f *Frame) RefCount() int { return f.ref }

// Extent is a physically contiguous byte range: the unit in which
// physical-address-based communication primitives (paper §4.1) describe
// buffers.
type Extent struct {
	Addr PhysAddr
	Len  int
}

// End returns the physical address one past the extent.
func (x Extent) End() PhysAddr { return x.Addr + PhysAddr(x.Len) }

// TotalLen sums the lengths of a slice of extents.
func TotalLen(xs []Extent) int {
	n := 0
	for _, x := range xs {
		n += x.Len
	}
	return n
}

// Memory is the physical memory of one node.
type Memory struct {
	frames   map[uint64]*Frame
	nextPFN  uint64
	freeList []uint64 // LIFO recycle list; makes reused frames scattered
	numPages int      // capacity in frames; 0 = unlimited
	allocked int
}

// New returns a node memory with capacity for numPages frames
// (0 = unlimited).
func New(numPages int) *Memory {
	return &Memory{
		frames:   make(map[uint64]*Frame),
		nextPFN:  1, // keep PFN 0 / address 0 invalid
		numPages: numPages,
	}
}

// Allocated returns the number of live frames.
func (m *Memory) Allocated() int { return m.allocked }

// framePool holds the Go objects of freed frames. It is process-wide
// and emptied by the garbage collector, not a field of Memory: a
// finished rig stays reachable through its parked daemon goroutines, so
// a per-Memory free list would retain every frame the rig ever freed
// (DESIGN.md §14).
var framePool sync.Pool

// newFrame returns a zero-filled frame with the given PFN and reference
// count 1, reusing a pooled object when there is one.
//
// allocfree
func newFrame(pfn uint64) *Frame {
	f, _ := framePool.Get().(*Frame)
	if f == nil {
		//analyze:allow allocfree pool-miss arm: the object recycles from here on
		f = new(Frame)
	} else {
		clear(f.data[:])
	}
	f.pfn, f.ref = pfn, 1
	return f
}

// AllocFrame allocates one frame with reference count 1. Recycled frames
// are preferred (LIFO), which naturally fragments long-lived address
// spaces the way real systems do.
//
// allocfree
func (m *Memory) AllocFrame() (*Frame, error) {
	if m.numPages > 0 && m.allocked >= m.numPages {
		//analyze:allow allocfree out-of-memory error path
		return nil, fmt.Errorf("mem: out of physical memory (%d frames)", m.numPages)
	}
	var pfn uint64
	if n := len(m.freeList); n > 0 {
		pfn = m.freeList[n-1]
		m.freeList = m.freeList[:n-1]
	} else {
		pfn = m.nextPFN
		m.nextPFN++
	}
	f := newFrame(pfn)
	m.frames[pfn] = f
	m.allocked++
	return f, nil
}

// AllocContig allocates n physically contiguous frames (fresh PFNs, never
// recycled ones), each with reference count 1. This models kernel
// contiguous allocations (bounce buffers, DMA rings).
func (m *Memory) AllocContig(n int) ([]*Frame, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mem: AllocContig(%d)", n)
	}
	if m.numPages > 0 && m.allocked+n > m.numPages {
		return nil, fmt.Errorf("mem: out of physical memory for %d contiguous frames", n)
	}
	out := make([]*Frame, n)
	for i := range out {
		f := newFrame(m.nextPFN)
		m.nextPFN++
		m.frames[f.pfn] = f
		m.allocked++
		out[i] = f
	}
	return out, nil
}

// Put decrements a frame's reference count, freeing it when it reaches
// zero. Freed PFNs go to the recycle list and the frame object to the
// process-wide pool: the caller's pointer is dead from here on.
//
// allocfree
func (m *Memory) Put(f *Frame) {
	if f.ref <= 0 {
		//analyze:allow allocfree double-free panic path
		panic(fmt.Sprintf("mem: Put on frame %d with ref %d", f.pfn, f.ref))
	}
	f.ref--
	if f.ref == 0 {
		delete(m.frames, f.pfn)
		m.freeList = append(m.freeList, f.pfn)
		m.allocked--
		framePool.Put(f)
	}
}

// Frame returns the live frame with the given PFN, or nil.
func (m *Memory) Frame(pfn uint64) *Frame { return m.frames[pfn] }

// CheckExtent verifies that an extent lies entirely within live frames.
func (m *Memory) CheckExtent(x Extent) error {
	if x.Len < 0 {
		return fmt.Errorf("mem: negative extent length %d", x.Len)
	}
	for pfn := x.Addr.PFN(); pfn <= (x.End() - 1).PFN(); pfn++ {
		if m.frames[pfn] == nil {
			return fmt.Errorf("mem: extent %#x+%d touches unallocated frame %d", x.Addr, x.Len, pfn)
		}
	}
	return nil
}

// ReadAt copies bytes from physical memory into buf, crossing frame
// boundaries as needed. It panics on access to unallocated frames —
// in the simulation that is a wild DMA, always a bug.
func (m *Memory) ReadAt(addr PhysAddr, buf []byte) {
	for len(buf) > 0 {
		f := m.frames[addr.PFN()]
		if f == nil {
			panic(fmt.Sprintf("mem: read from unallocated frame %d", addr.PFN()))
		}
		off := addr.Offset()
		n := copy(buf, f.data[off:])
		buf = buf[n:]
		addr += PhysAddr(n)
	}
}

// WriteAt copies bytes from buf into physical memory.
func (m *Memory) WriteAt(addr PhysAddr, buf []byte) {
	for len(buf) > 0 {
		f := m.frames[addr.PFN()]
		if f == nil {
			panic(fmt.Sprintf("mem: write to unallocated frame %d", addr.PFN()))
		}
		off := addr.Offset()
		n := copy(f.data[off:], buf)
		buf = buf[n:]
		addr += PhysAddr(n)
	}
}

// Gather reads the bytes described by extents into a single fresh
// slice. The data plane does not use it (it copies through a Cursor,
// which allocates nothing); Gather stays for callers that want an owned
// copy — tests, the NBD bounce path, the stock-GM staging ablation —
// and as the reference the cursor's property test compares against.
func (m *Memory) Gather(xs []Extent) []byte {
	out := make([]byte, TotalLen(xs))
	pos := 0
	for _, x := range xs {
		m.ReadAt(x.Addr, out[pos:pos+x.Len])
		pos += x.Len
	}
	return out
}

// Scatter writes data across the byte ranges described by extents.
// It panics if the extents are shorter than data.
func (m *Memory) Scatter(xs []Extent, data []byte) {
	for _, x := range xs {
		if len(data) == 0 {
			return
		}
		n := x.Len
		if n > len(data) {
			n = len(data)
		}
		m.WriteAt(x.Addr, data[:n])
		data = data[n:]
	}
	if len(data) > 0 {
		panic(fmt.Sprintf("mem: Scatter overflow, %d bytes left", len(data)))
	}
}

// Cursor streams bytes between an extent list and caller-supplied
// slices, front to back, without reslicing the list or allocating: the
// one copy primitive of the data plane. The NIC reads a gather list
// through it fragment by fragment, MX stages bounce and PIO payloads
// with it, and memfs moves file blocks to and from a request's extents
// with it — in each case the bytes go from where they are to where
// they belong with no staging slice in between.
type Cursor struct {
	m   *Memory
	xs  []Extent
	idx int // current extent
	off int // bytes consumed of xs[idx]
}

// Cursor returns a cursor at the first byte of xs.
func (m *Memory) Cursor(xs []Extent) Cursor { return Cursor{m: m, xs: xs} }

// next returns the physically contiguous run at the cursor, at most
// want bytes long, and advances past it. It panics when the extents
// are exhausted.
//
// allocfree
func (c *Cursor) next(want int) Extent {
	if c.idx >= len(c.xs) {
		//analyze:allow allocfree overrun panic path
		panic(fmt.Sprintf("mem: cursor past the end of its extents, %d bytes short", want))
	}
	x := c.xs[c.idx]
	run := Extent{Addr: x.Addr + PhysAddr(c.off), Len: min(x.Len-c.off, want)}
	c.off += run.Len
	if c.off == x.Len {
		c.idx++
		c.off = 0
	}
	return run
}

// Read fills dst with the next len(dst) bytes the extents describe.
//
// allocfree
func (c *Cursor) Read(dst []byte) {
	for len(dst) > 0 {
		run := c.next(len(dst))
		c.m.ReadAt(run.Addr, dst[:run.Len])
		dst = dst[run.Len:]
	}
}

// Write stores src into the next len(src) bytes the extents describe.
//
// allocfree
func (c *Cursor) Write(src []byte) {
	for len(src) > 0 {
		run := c.next(len(src))
		c.m.WriteAt(run.Addr, src[:run.Len])
		src = src[run.Len:]
	}
}

// Clip returns the leading n bytes of an extent list, splitting the
// extent that straddles the boundary.
func Clip(xs []Extent, n int) []Extent {
	var out []Extent
	for _, x := range xs {
		if n == 0 {
			break
		}
		l := x.Len
		if l > n {
			l = n
		}
		out = append(out, Extent{Addr: x.Addr, Len: l})
		n -= l
	}
	return out
}

// AppendExtent appends n bytes at addr to a list its caller is
// building, keeping it merged: a run that starts where the last extent
// ends (End == addr) extends that extent, and a zero-length run after
// the first is dropped. Whoever walks memory page by page builds its
// list with this and has nothing left to merge.
//
// allocfree
func AppendExtent(xs []Extent, addr PhysAddr, n int) []Extent {
	if last := len(xs) - 1; last >= 0 {
		if n == 0 {
			return xs
		}
		if xs[last].End() == addr {
			xs[last].Len += n
			return xs
		}
	}
	return append(xs, Extent{Addr: addr, Len: n})
}

// MergeExtents coalesces adjacent extents (x.End == next.Addr) of a
// list somebody else built into maximal physically contiguous runs,
// preserving order, and drops zero-length extents after the first. A
// list that is already merged — what Vector.Extents and
// AddressSpace.Resolve produce — is returned as it is, not copied: the
// result may alias xs, which is never written.
//
// allocfree
func MergeExtents(xs []Extent) []Extent {
	if len(xs) == 0 {
		return nil
	}
	for i := 1; i < len(xs); i++ {
		if xs[i].Len == 0 || xs[i-1].End() == xs[i].Addr {
			//analyze:allow allocfree only a list that needs merging is copied
			out := make([]Extent, 0, len(xs))
			for _, x := range xs {
				out = AppendExtent(out, x.Addr, x.Len)
			}
			return out
		}
	}
	return xs
}

// PagesIn returns the number of page frames an address range of length n
// starting at the given offset-within-page touches.
func PagesIn(offset, n int) int {
	if n <= 0 {
		return 0
	}
	return (offset%PageSize + n + PageSize - 1) / PageSize
}
