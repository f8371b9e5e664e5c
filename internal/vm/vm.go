// Package vm models per-process virtual memory on a simulated node:
// address spaces, VMAs, page tables, page pinning — and the paper's
// VMA SPY infrastructure (§3.2), a generic notification mechanism that
// lets external modules (the GMKRC registration cache) learn about
// address-space modifications (munmap, fork, exit), which the stock
// Linux kernel of the time did not provide.
//
// The model is deliberately eager: pages are backed by physical frames
// at map time (no demand faulting), because none of the paper's
// experiments depend on fault timing, while all of them depend on
// virtual→physical translation, contiguity and pinning, which are exact
// here.
package vm

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/mem"
)

// VirtAddr is a virtual byte address within one address space.
type VirtAddr uint64

// PageSize re-exports the system page size for convenience.
const PageSize = mem.PageSize

// VPN returns the virtual page number containing the address.
func (a VirtAddr) VPN() uint64 { return uint64(a) >> mem.PageShift }

// Offset returns the offset within the page.
func (a VirtAddr) Offset() int { return int(uint64(a) & (PageSize - 1)) }

// PageAligned reports whether the address is page aligned.
func (a VirtAddr) PageAligned() bool { return a.Offset() == 0 }

// Kind distinguishes user from kernel address spaces. The paper's MX
// kernel API makes the caller declare which kind a virtual address
// belongs to, because the spaces are independent and may contain equal
// numeric addresses mapping to different physical pages (§4.2).
type Kind int

const (
	// User is a per-process user address space.
	User Kind = iota
	// Kernel is the single shared kernel address space of a node.
	Kernel
)

// String names the address-space kind.
func (k Kind) String() string {
	if k == Kernel {
		return "kernel"
	}
	return "user"
}

// Base mmap addresses. User and kernel ranges deliberately overlap a
// window (see DistinctSpacesOverlap test) to exercise the paper's point
// that a bare virtual address does not identify its physical page.
const (
	userBase   VirtAddr = 0x1000_0000
	kernelBase VirtAddr = 0x1800_0000
)

// VMA is one mapped virtual region [Start, End).
type VMA struct {
	Start VirtAddr
	End   VirtAddr
	Label string
}

// Len returns the VMA length in bytes.
func (v *VMA) Len() int { return int(v.End - v.Start) }

// Spy receives notifications of address-space modifications: the
// paper's VMA SPY interface. Invalidate is called *before* the mapping
// is destroyed so spies can flush state (e.g. deregister NIC
// translations) while the pages are still resolvable.
type Spy interface {
	// Invalidate reports that [start, start+length) of as is about to
	// be unmapped or remapped.
	Invalidate(as *AddressSpace, start VirtAddr, length int)
	// Forked reports that child was created as a copy of parent.
	// Registered translations keep referring to the parent's frames.
	Forked(parent, child *AddressSpace)
	// Exited reports that as is being destroyed.
	Exited(as *AddressSpace)
}

// ExitSpy is a Spy that only hears of its address space's destruction
// and runs Exit then: a kernel consumer holding frames of the node's
// kernel memory outside any mapping gives them back with the space.
type ExitSpy struct{ Exit func() }

// Invalidate implements Spy: unmaps do not concern an ExitSpy.
func (s *ExitSpy) Invalidate(*AddressSpace, VirtAddr, int) {}

// Forked implements Spy: forks do not concern an ExitSpy.
func (s *ExitSpy) Forked(_, _ *AddressSpace) {}

// Exited implements Spy.
func (s *ExitSpy) Exited(*AddressSpace) { s.Exit() }

// IDSource hands out address-space IDs (ASIDs). One per node.
type IDSource struct{ next uint32 }

// NewIDSource returns a source starting at ASID 1.
func NewIDSource() *IDSource { return &IDSource{next: 1} }

func (s *IDSource) take() uint32 {
	id := s.next
	s.next++
	return id
}

// AddressSpace is one process's (or the kernel's) virtual address space.
type AddressSpace struct {
	id     uint32
	kind   Kind
	name   string
	mem    *mem.Memory
	ids    *IDSource
	vmas   []*VMA // sorted by Start, non-overlapping
	pt     map[uint64]*mem.Frame
	pins   map[uint64]pin
	spies  []Spy
	next   VirtAddr
	dead   bool
	spyGen int // counts structural modifications, for cache tests
}

// NewAddressSpace creates an empty address space.
func NewAddressSpace(m *mem.Memory, ids *IDSource, kind Kind, name string) *AddressSpace {
	base := userBase
	if kind == Kernel {
		base = kernelBase
	}
	return &AddressSpace{
		id:   ids.take(),
		kind: kind,
		name: name,
		mem:  m,
		ids:  ids,
		pt:   make(map[uint64]*mem.Frame),
		pins: make(map[uint64]pin),
		next: base,
	}
}

// pin records an outstanding pin on a page: the frame pointer must be
// kept here because a page can be munmapped while pinned (the frame
// then survives solely through its pin references, exactly like a page
// held by get_user_pages across an munmap).
type pin struct {
	frame *mem.Frame
	count int
}

// ID returns the address-space identifier (ASID). GMKRC packs this into
// the upper bits of the 64-bit pointers handed to the NIC (§3.2).
func (as *AddressSpace) ID() uint32 { return as.id }

// Kind returns whether this is a user or kernel space.
func (as *AddressSpace) Kind() Kind { return as.kind }

// Name returns the diagnostic name.
func (as *AddressSpace) Name() string { return as.name }

// Memory returns the node memory backing this space.
func (as *AddressSpace) Memory() *mem.Memory { return as.mem }

// Generation counts structural modifications (mmap/munmap/fork/exit).
func (as *AddressSpace) Generation() int { return as.spyGen }

// RegisterSpy attaches a VMA SPY. Duplicate registration is a no-op.
func (as *AddressSpace) RegisterSpy(s Spy) {
	for _, x := range as.spies {
		if x == s {
			return
		}
	}
	as.spies = append(as.spies, s)
}

// UnregisterSpy detaches a spy.
func (as *AddressSpace) UnregisterSpy(s Spy) {
	for i, x := range as.spies {
		if x == s {
			as.spies = append(as.spies[:i], as.spies[i+1:]...)
			return
		}
	}
}

func (as *AddressSpace) checkLive() {
	if as.dead {
		panic(fmt.Sprintf("vm: use of destroyed address space %q", as.name))
	}
}

// Mmap maps length bytes (rounded up to whole pages) of fresh
// anonymous memory and returns its base address. Frames come from the
// general allocator and are typically physically scattered.
func (as *AddressSpace) Mmap(length int, label string) (VirtAddr, error) {
	return as.mapPages(length, label, func() (*mem.Frame, error) { return as.mem.AllocFrame() })
}

// MmapContig maps length bytes backed by physically contiguous frames
// (kernel bounce buffers, DMA rings).
func (as *AddressSpace) MmapContig(length int, label string) (VirtAddr, error) {
	n := pages(length)
	frames, err := as.mem.AllocContig(n)
	if err != nil {
		return 0, err
	}
	i := 0
	return as.mapPages(length, label, func() (*mem.Frame, error) {
		f := frames[i]
		i++
		return f, nil
	})
}

func pages(length int) int {
	return (length + PageSize - 1) / PageSize
}

func (as *AddressSpace) mapPages(length int, label string, alloc func() (*mem.Frame, error)) (VirtAddr, error) {
	as.checkLive()
	if length <= 0 {
		return 0, fmt.Errorf("vm: Mmap length %d", length)
	}
	n := pages(length)
	base := as.next
	as.next += VirtAddr(n+1) * PageSize // leave a guard page gap
	for i := 0; i < n; i++ {
		f, err := alloc()
		if err != nil {
			// Unwind partial mapping.
			for j := 0; j < i; j++ {
				vpn := (base + VirtAddr(j)*PageSize).VPN()
				as.mem.Put(as.pt[vpn])
				delete(as.pt, vpn)
			}
			return 0, err
		}
		as.pt[(base + VirtAddr(i)*PageSize).VPN()] = f
	}
	v := &VMA{Start: base, End: base + VirtAddr(n)*PageSize, Label: label}
	as.insertVMA(v)
	as.spyGen++
	return base, nil
}

func (as *AddressSpace) insertVMA(v *VMA) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= v.Start })
	as.vmas = append(as.vmas, nil)
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}

// FindVMA returns the VMA containing addr, or nil.
func (as *AddressSpace) FindVMA(addr VirtAddr) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i < len(as.vmas) && as.vmas[i].Start <= addr {
		return as.vmas[i]
	}
	return nil
}

// VMACount returns the number of mapped regions.
func (as *AddressSpace) VMACount() int { return len(as.vmas) }

// Munmap unmaps [addr, addr+length), which must be page aligned and
// fully mapped. VMAs are split as needed. Spies are notified before the
// mapping is destroyed. Pinned pages lose their translation but their
// frames survive until unpinned.
func (as *AddressSpace) Munmap(addr VirtAddr, length int) error {
	as.checkLive()
	if !addr.PageAligned() || length <= 0 || length%PageSize != 0 {
		return fmt.Errorf("vm: Munmap(%#x, %d) not page aligned", addr, length)
	}
	end := addr + VirtAddr(length)
	// Verify the whole range is mapped first (partial failure is a bug
	// in the simulated application; be strict).
	for a := addr; a < end; a += PageSize {
		if as.pt[a.VPN()] == nil {
			return fmt.Errorf("vm: Munmap of unmapped page %#x", a)
		}
	}
	for _, s := range as.spies {
		s.Invalidate(as, addr, length)
	}
	for a := addr; a < end; a += PageSize {
		vpn := a.VPN()
		as.mem.Put(as.pt[vpn])
		delete(as.pt, vpn)
	}
	// Rebuild the VMA list around the hole.
	var out []*VMA
	for _, v := range as.vmas {
		switch {
		case v.End <= addr || v.Start >= end:
			out = append(out, v)
		default:
			if v.Start < addr {
				out = append(out, &VMA{Start: v.Start, End: addr, Label: v.Label})
			}
			if v.End > end {
				out = append(out, &VMA{Start: end, End: v.End, Label: v.Label})
			}
		}
	}
	as.vmas = out
	as.spyGen++
	return nil
}

// Translate returns the physical address backing va.
func (as *AddressSpace) Translate(va VirtAddr) (mem.PhysAddr, error) {
	f := as.pt[va.VPN()]
	if f == nil {
		return 0, fmt.Errorf("vm: fault at %#x in %s space %q", va, as.kind, as.name)
	}
	return f.Addr() + mem.PhysAddr(va.Offset()), nil
}

// FrameAt returns the frame backing va, or nil.
func (as *AddressSpace) FrameAt(va VirtAddr) *mem.Frame { return as.pt[va.VPN()] }

// Resolve translates [va, va+n) into physically contiguous extents,
// merged into maximal runs. This is the core of the paper's
// physical-address-based primitives: a virtually contiguous zone is
// generally *not* physically contiguous (§4.1), so the result usually
// has one extent per page for user memory.
func (as *AddressSpace) Resolve(va VirtAddr, n int) ([]mem.Extent, error) {
	if n < 0 {
		return nil, fmt.Errorf("vm: Resolve negative length %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	// Two passes over the page table: the first counts the runs, so the
	// result is sized by what it holds and not by the page count — a
	// physically contiguous 272 KB bounce buffer is one extent, not room
	// for 68 — and the second fills it. One exact allocation per call,
	// on a path every request resolves through.
	runs := 0
	var end mem.PhysAddr
	for v, left := va, n; left > 0; {
		pa, err := as.Translate(v)
		if err != nil {
			return nil, err
		}
		chunk := min(PageSize-v.Offset(), left)
		if runs == 0 || pa != end {
			runs++
		}
		end = pa + mem.PhysAddr(chunk)
		v += VirtAddr(chunk)
		left -= chunk
	}
	return as.AppendResolve(make([]mem.Extent, 0, runs), va, n)
}

// AppendResolve appends the extents of [va, va+n) to out, merged into
// maximal runs (onto out's last extent too), and returns the longer
// list: Resolve for a caller that recycles its list. On a fault the
// list is returned as far as it got.
//
// allocfree
func (as *AddressSpace) AppendResolve(out []mem.Extent, va VirtAddr, n int) ([]mem.Extent, error) {
	for n > 0 {
		pa, err := as.Translate(va)
		if err != nil {
			return out, err
		}
		chunk := min(PageSize-va.Offset(), n)
		out = mem.AppendExtent(out, pa, chunk)
		va += VirtAddr(chunk)
		n -= chunk
	}
	return out, nil
}

// Pin pins the pages covering [va, va+n) in physical memory, taking a
// frame reference per page per pin. Returns the number of pages pinned.
func (as *AddressSpace) Pin(va VirtAddr, n int) (int, error) {
	as.checkLive()
	if n <= 0 {
		return 0, fmt.Errorf("vm: Pin length %d", n)
	}
	first := va.VPN()
	last := (va + VirtAddr(n) - 1).VPN()
	// Validate before mutating.
	for vpn := first; vpn <= last; vpn++ {
		if as.pt[vpn] == nil {
			return 0, fmt.Errorf("vm: Pin of unmapped page vpn=%#x", vpn)
		}
	}
	for vpn := first; vpn <= last; vpn++ {
		f := as.pt[vpn]
		f.Get()
		p, ok := as.pins[vpn]
		if !ok {
			p.frame = f // the first pin records the frame; a re-pin keeps it
		}
		p.count++
		as.pins[vpn] = p
	}
	return int(last - first + 1), nil
}

// Unpin undoes one Pin of the same range. Unpinning works even after
// the range was munmapped or the space destroyed (driver teardown).
func (as *AddressSpace) Unpin(va VirtAddr, n int) error {
	first := va.VPN()
	last := (va + VirtAddr(n) - 1).VPN()
	for vpn := first; vpn <= last; vpn++ {
		if as.pins[vpn].count <= 0 {
			return fmt.Errorf("vm: Unpin of unpinned page vpn=%#x", vpn)
		}
	}
	for vpn := first; vpn <= last; vpn++ {
		p := as.pins[vpn]
		p.count--
		as.mem.Put(p.frame)
		if p.count == 0 {
			delete(as.pins, vpn)
		} else {
			as.pins[vpn] = p
		}
	}
	return nil
}

// PinCount returns the pin count of the page containing va.
func (as *AddressSpace) PinCount(va VirtAddr) int {
	return as.pins[va.VPN()].count
}

// ReadBytes copies n bytes at va into a fresh slice, via translation
// (the simulated CPU's view of memory).
func (as *AddressSpace) ReadBytes(va VirtAddr, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := as.ReadBytesInto(va, out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkMapped reports the first fault in [va, va+n), if any.
//
// allocfree
func (as *AddressSpace) checkMapped(va VirtAddr, n int) error {
	for n > 0 {
		if _, err := as.Translate(va); err != nil {
			return err
		}
		chunk := min(PageSize-va.Offset(), n)
		va += VirtAddr(chunk)
		n -= chunk
	}
	return nil
}

// ReadBytesInto copies len(dst) bytes at va into dst via translation —
// ReadBytes without the slice allocation, for hot paths that stage
// replies through a reusable scratch buffer. It walks the page table
// directly instead of materializing an extent list, validating the
// whole range first: on a fault dst is untouched.
//
// allocfree
func (as *AddressSpace) ReadBytesInto(va VirtAddr, dst []byte) error {
	if err := as.checkMapped(va, len(dst)); err != nil {
		return err
	}
	for len(dst) > 0 {
		n := copy(dst, as.pt[va.VPN()].Data()[va.Offset():])
		dst = dst[n:]
		va += VirtAddr(n)
	}
	return nil
}

// WriteBytes copies data into memory at va via translation, walking
// the page table like ReadBytesInto: on a fault nothing is written.
//
// allocfree
func (as *AddressSpace) WriteBytes(va VirtAddr, data []byte) error {
	if err := as.checkMapped(va, len(data)); err != nil {
		return err
	}
	for len(data) > 0 {
		n := copy(as.pt[va.VPN()].Data()[va.Offset():], data)
		data = data[n:]
		va += VirtAddr(n)
	}
	return nil
}

// mappedPages returns the mapped virtual page numbers in ascending
// order. Whatever allocates or frees a frame per page walks this, never
// the page table itself: the order frames are freed in is the order
// their PFNs are recycled in, so Go's map order would make the physical
// layout of every later allocation differ from run to run.
func (as *AddressSpace) mappedPages() []uint64 {
	return slices.Sorted(maps.Keys(as.pt))
}

// Fork creates a copy of the address space with the same virtual layout
// but freshly allocated frames holding copies of the data, then notifies
// spies. This mirrors the hazard the paper's GMKRC must handle: after
// fork, registered NIC translations still point at the parent's frames.
func (as *AddressSpace) Fork(name string) (*AddressSpace, error) {
	as.checkLive()
	child := NewAddressSpace(as.mem, as.ids, as.kind, name)
	child.next = as.next
	for _, v := range as.vmas {
		child.vmas = append(child.vmas, &VMA{Start: v.Start, End: v.End, Label: v.Label})
	}
	for _, vpn := range as.mappedPages() {
		nf, err := as.mem.AllocFrame()
		if err != nil {
			child.Destroy()
			return nil, err
		}
		copy(nf.Data(), as.pt[vpn].Data())
		child.pt[vpn] = nf
	}
	as.spyGen++
	for _, s := range as.spies {
		s.Forked(as, child)
	}
	return child, nil
}

// Destroy unmaps everything and notifies spies. Further use panics.
func (as *AddressSpace) Destroy() {
	if as.dead {
		return
	}
	for _, s := range as.spies {
		s.Exited(as)
	}
	for _, vpn := range as.mappedPages() {
		as.mem.Put(as.pt[vpn])
		delete(as.pt, vpn)
	}
	// Pin references remain held by the pinner (a NIC or driver), which
	// is responsible for releasing them via Unpin; the pin ledger keeps
	// the frame pointers so late Unpin still works.
	as.vmas = nil
	as.spyGen++
	as.dead = true
}
