// Package core defines the in-kernel network API abstractions the paper
// proposes (§4): address-type-tagged buffer segments, vectorial
// (scatter/gather) buffer descriptions, and the completion/matching
// model shared by the drivers.
//
// The central idea (§4.2): an in-kernel application manipulates three
// kinds of memory, and only the application knows which is which, so the
// API must let it say so —
//
//   - User virtual: the network layer must pin the pages and translate
//     the addresses (zero-copy socket sends, O_DIRECT file access).
//   - Kernel virtual: usually already pinned; translation only
//     (request/reply control buffers).
//   - Physical: usable as-is (page-cache pages, whose physical addresses
//     a kernel client obtains trivially).
//
// User and kernel spaces are independent: the same numeric virtual
// address can exist in both, mapping to different physical pages, so a
// bare virtual address does not identify memory — hence the explicit
// tag rather than address-range heuristics.
package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/vm"
)

// AddrType tags a Segment with the kind of address it carries.
type AddrType int

const (
	// UserVirtual addresses need pinning and translation.
	UserVirtual AddrType = iota
	// KernelVirtual addresses need translation only (already pinned).
	KernelVirtual
	// Physical addresses are used as-is; the caller guarantees the
	// frames stay put ("the application is responsible for pinning
	// memory if needed", §4.2).
	Physical
)

// String names the address type.
func (t AddrType) String() string {
	switch t {
	case UserVirtual:
		return "user-virtual"
	case KernelVirtual:
		return "kernel-virtual"
	case Physical:
		return "physical"
	}
	return fmt.Sprintf("AddrType(%d)", int(t))
}

// Segment is one address-typed buffer piece.
type Segment struct {
	Type AddrType
	AS   *vm.AddressSpace // for the virtual types
	VA   vm.VirtAddr      // for the virtual types
	PA   mem.PhysAddr     // for Physical
	Len  int
}

// UserSeg builds a user-virtual segment.
func UserSeg(as *vm.AddressSpace, va vm.VirtAddr, n int) Segment {
	return Segment{Type: UserVirtual, AS: as, VA: va, Len: n}
}

// KernelSeg builds a kernel-virtual segment.
func KernelSeg(as *vm.AddressSpace, va vm.VirtAddr, n int) Segment {
	return Segment{Type: KernelVirtual, AS: as, VA: va, Len: n}
}

// PhysSeg builds a physical segment.
func PhysSeg(pa mem.PhysAddr, n int) Segment {
	return Segment{Type: Physical, PA: pa, Len: n}
}

// Validate checks structural well-formedness.
func (s Segment) Validate() error {
	if s.Len < 0 {
		return fmt.Errorf("core: segment with negative length %d", s.Len)
	}
	switch s.Type {
	case UserVirtual:
		if s.AS == nil {
			return fmt.Errorf("core: user-virtual segment without address space")
		}
		if s.AS.Kind() != vm.User {
			return fmt.Errorf("core: user-virtual segment names a %v space", s.AS.Kind())
		}
	case KernelVirtual:
		if s.AS == nil {
			return fmt.Errorf("core: kernel-virtual segment without address space")
		}
		if s.AS.Kind() != vm.Kernel {
			return fmt.Errorf("core: kernel-virtual segment names a %v space", s.AS.Kind())
		}
	case Physical:
		if s.AS != nil {
			return fmt.Errorf("core: physical segment must not name an address space")
		}
	default:
		return fmt.Errorf("core: unknown address type %d", s.Type)
	}
	return nil
}

// Extents resolves the segment to physically contiguous extents
// (no timing; callers charge translation/pinning costs separately).
func (s Segment) Extents() ([]mem.Extent, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Len == 0 {
		return nil, nil
	}
	switch s.Type {
	case Physical:
		return []mem.Extent{{Addr: s.PA, Len: s.Len}}, nil
	default:
		return s.AS.Resolve(s.VA, s.Len)
	}
}

// Pages returns the number of pages the segment touches.
func (s Segment) Pages() int {
	switch s.Type {
	case Physical:
		return mem.PagesIn(mem.PhysAddr(s.PA).Offset(), s.Len)
	default:
		return mem.PagesIn(s.VA.Offset(), s.Len)
	}
}

// Vector is a scatter/gather list: the vectorial communication
// primitive the paper argues every kernel API needs (§4.1), because
// multi-page buffers resolve to many short physical runs.
type Vector []Segment

// Of builds a single-segment vector.
func Of(s Segment) Vector { return Vector{s} }

// TotalLen sums segment lengths.
func (v Vector) TotalLen() int {
	n := 0
	for _, s := range v {
		n += s.Len
	}
	return n
}

// Validate checks all segments.
func (v Vector) Validate() error {
	for i, s := range v {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
	}
	return nil
}

// Slice returns the sub-vector covering [off, off+n) of the vector's
// byte range, splitting segments as needed.
func (v Vector) Slice(off, n int) Vector { return v.AppendSlice(nil, off, n) }

// AppendSlice appends the segments of Slice(off, n) to out and returns
// the longer vector: Slice for a caller that recycles its vector.
//
// allocfree
func (v Vector) AppendSlice(out Vector, off, n int) Vector {
	for _, s := range v {
		if n == 0 {
			break
		}
		if off >= s.Len {
			off -= s.Len
			continue
		}
		take := s.Len - off
		if take > n {
			take = n
		}
		part := s
		part.Len = take
		switch s.Type {
		case Physical:
			part.PA = s.PA + mem.PhysAddr(off)
		default:
			part.VA = s.VA + vm.VirtAddr(off)
		}
		out = append(out, part)
		n -= take
		off = 0
	}
	return out
}

// Pages sums segment page counts.
func (v Vector) Pages() int {
	n := 0
	for _, s := range v {
		n += s.Pages()
	}
	return n
}

// UserPages counts pages in user-virtual segments (those MX must pin).
func (v Vector) UserPages() int {
	n := 0
	for _, s := range v {
		if s.Type == UserVirtual {
			n += s.Pages()
		}
	}
	return n
}

// AllPhysical reports whether the vector is non-empty and purely
// physical — the shape the drivers may hand to the NIC as-is.
func (v Vector) AllPhysical() bool {
	for _, s := range v {
		if s.Type != Physical {
			return false
		}
	}
	return len(v) > 0
}

// Extents resolves the whole vector into merged physical extents, in a
// list the caller owns.
func (v Vector) Extents() ([]mem.Extent, error) {
	if len(v) == 1 && v[0].Type != Physical {
		// The data path sends single-segment vectors almost
		// exclusively, and Resolve's list is merged already.
		xs, err := v[0].Extents()
		if err != nil {
			return nil, fmt.Errorf("segment 0: %w", err)
		}
		return xs, nil
	}
	// One list for the whole vector, sized for the worst case (an
	// extent per physical segment, one per page of a virtual one) and
	// merged as it is filled segment by segment: a physical segment — a
	// page-cache page, a server block — costs no list of its own.
	n := 0
	for _, s := range v {
		if s.Len == 0 {
			continue
		}
		if s.Type == Physical {
			n++
		} else {
			n += s.Pages()
		}
	}
	if n == 0 {
		return nil, v.Validate()
	}
	out, err := v.AppendExtents(make([]mem.Extent, 0, n))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendExtents appends the vector's physical extents to out, merged
// across segment boundaries and onto out's last extent, and returns the
// longer list: Extents for a caller that recycles its list. On error
// the list is returned unchanged.
//
// allocfree
func (v Vector) AppendExtents(out []mem.Extent) ([]mem.Extent, error) {
	start := len(out)
	for i, s := range v {
		if err := s.Validate(); err != nil {
			//analyze:allow allocfree error arm
			return out[:start], fmt.Errorf("segment %d: %w", i, err)
		}
		if s.Len == 0 {
			continue
		}
		if s.Type == Physical {
			out = mem.AppendExtent(out, s.PA, s.Len)
			continue
		}
		var err error
		if out, err = s.AS.AppendResolve(out, s.VA, s.Len); err != nil {
			//analyze:allow allocfree error arm
			return out[:start], fmt.Errorf("segment %d: %w", i, err)
		}
	}
	return out, nil
}

// PhysicallyContiguous reports whether the vector resolves to a single
// extent — the precondition for the medium-message copy-removal
// optimization (§5.1: "physically contiguous medium message").
func (v Vector) PhysicallyContiguous() (bool, error) {
	xs, err := v.Extents()
	if err != nil {
		return false, err
	}
	return len(xs) <= 1, nil
}

// Pin pins the user-virtual pages of the vector (bookkeeping only; the
// caller charges CPU time). Returns an unpin closure.
func (v Vector) Pin() (func(), error) {
	type pinned struct {
		as *vm.AddressSpace
		va vm.VirtAddr
		n  int
	}
	var done []pinned
	undo := func() {
		for _, pn := range done {
			pn.as.Unpin(pn.va, pn.n)
		}
	}
	for _, s := range v {
		if s.Type != UserVirtual || s.Len == 0 {
			continue
		}
		if _, err := s.AS.Pin(s.VA, s.Len); err != nil {
			undo()
			return nil, err
		}
		done = append(done, pinned{s.AS, s.VA, s.Len})
	}
	return undo, nil
}

// Match is the 64-bit matching information of the MX model. A posted
// receive with mask M and bits B matches an incoming message with match
// information I when I&M == B&M.
type Match struct {
	Bits uint64
	Mask uint64
}

// MatchAll matches any message.
var MatchAll = Match{Bits: 0, Mask: 0}

// Exact matches only messages whose match information equals bits.
func Exact(bits uint64) Match { return Match{Bits: bits, Mask: ^uint64(0)} }

// Accepts reports whether incoming match information info satisfies m.
func (m Match) Accepts(info uint64) bool { return info&m.Mask == m.Bits&m.Mask }
