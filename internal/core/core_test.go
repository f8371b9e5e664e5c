package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/vm"
)

func spaces(t *testing.T) (*mem.Memory, *vm.AddressSpace, *vm.AddressSpace) {
	t.Helper()
	m := mem.New(0)
	ids := vm.NewIDSource()
	user := vm.NewAddressSpace(m, ids, vm.User, "user")
	kern := vm.NewAddressSpace(m, ids, vm.Kernel, "kernel")
	return m, user, kern
}

func TestSegmentValidate(t *testing.T) {
	_, user, kern := spaces(t)
	uva, _ := user.Mmap(vm.PageSize, "u")
	kva, _ := kern.MmapContig(vm.PageSize, "k")

	good := []Segment{
		UserSeg(user, uva, 100),
		KernelSeg(kern, kva, 100),
		PhysSeg(0x5000, 100),
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good segment %d rejected: %v", i, err)
		}
	}
	bad := []Segment{
		{Type: UserVirtual, Len: 1},                      // no AS
		{Type: UserVirtual, AS: kern, VA: kva, Len: 1},   // wrong kind
		{Type: KernelVirtual, AS: user, VA: uva, Len: 1}, // wrong kind
		{Type: Physical, AS: user, PA: 0x5000, Len: 1},   // AS on physical
		{Type: UserVirtual, AS: user, VA: uva, Len: -1},  // negative
		{Type: AddrType(42), Len: 1},                     // unknown
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad segment %d accepted", i)
		}
	}
}

func TestVectorExtentsMergesAcrossSegments(t *testing.T) {
	_, _, kern := spaces(t)
	kva, _ := kern.MmapContig(4*vm.PageSize, "k")
	v := Vector{
		KernelSeg(kern, kva, 2*vm.PageSize),
		KernelSeg(kern, kva+2*vm.PageSize, 2*vm.PageSize),
	}
	xs, err := v.Extents()
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 1 || xs[0].Len != 4*vm.PageSize {
		t.Fatalf("adjacent kernel segments not merged: %v", xs)
	}
	ok, err := v.PhysicallyContiguous()
	if err != nil || !ok {
		t.Fatalf("PhysicallyContiguous = %v, %v", ok, err)
	}
}

func TestUserMemoryUsuallyScattered(t *testing.T) {
	_, user, _ := spaces(t)
	// Recycle to fragment.
	a, _ := user.Mmap(vm.PageSize, "t1")
	b, _ := user.Mmap(vm.PageSize, "t2")
	user.Munmap(a, vm.PageSize)
	user.Munmap(b, vm.PageSize)
	uva, _ := user.Mmap(3*vm.PageSize, "buf")
	v := Of(UserSeg(user, uva, 3*vm.PageSize))
	ok, err := v.PhysicallyContiguous()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("recycled user buffer should be scattered (paper §4.1)")
	}
}

func TestPinUnpin(t *testing.T) {
	_, user, kern := spaces(t)
	uva, _ := user.Mmap(2*vm.PageSize, "u")
	kva, _ := kern.MmapContig(vm.PageSize, "k")
	v := Vector{
		UserSeg(user, uva, 2*vm.PageSize),
		KernelSeg(kern, kva, vm.PageSize), // not pinned by Vector.Pin
	}
	unpin, err := v.Pin()
	if err != nil {
		t.Fatal(err)
	}
	if user.PinCount(uva) != 1 || user.PinCount(uva+vm.PageSize) != 1 {
		t.Fatal("user pages not pinned")
	}
	if kern.PinCount(kva) != 0 {
		t.Fatal("kernel page should not be pinned by Vector.Pin")
	}
	unpin()
	if user.PinCount(uva) != 0 {
		t.Fatal("unpin did not release")
	}
}

func TestPinFailureUnwinds(t *testing.T) {
	_, user, _ := spaces(t)
	uva, _ := user.Mmap(vm.PageSize, "u")
	v := Vector{
		UserSeg(user, uva, vm.PageSize),
		UserSeg(user, uva+8*vm.PageSize, vm.PageSize), // unmapped
	}
	if _, err := v.Pin(); err == nil {
		t.Fatal("pin of unmapped range succeeded")
	}
	if user.PinCount(uva) != 0 {
		t.Fatal("partial pin not unwound")
	}
}

func TestSegmentPages(t *testing.T) {
	_, user, _ := spaces(t)
	uva, _ := user.Mmap(4*vm.PageSize, "u")
	cases := []struct {
		seg  Segment
		want int
	}{
		{UserSeg(user, uva, 1), 1},
		{UserSeg(user, uva, vm.PageSize), 1},
		{UserSeg(user, uva+vm.PageSize-1, 2), 2},
		{PhysSeg(0x1000, 2*vm.PageSize), 2},
		{PhysSeg(0x1800, vm.PageSize), 2}, // straddles
	}
	for i, c := range cases {
		if got := c.seg.Pages(); got != c.want {
			t.Errorf("case %d: Pages = %d, want %d", i, got, c.want)
		}
	}
}

func TestMatchSemantics(t *testing.T) {
	if !MatchAll.Accepts(0xdeadbeef) {
		t.Error("MatchAll must accept everything")
	}
	m := Exact(0x42)
	if !m.Accepts(0x42) || m.Accepts(0x43) {
		t.Error("Exact match wrong")
	}
	// Masked match: accept any message whose low byte is 7.
	lm := Match{Bits: 7, Mask: 0xff}
	if !lm.Accepts(0xaa07) || lm.Accepts(0xaa08) {
		t.Error("masked match wrong")
	}
}

// Property: Accepts is consistent with the definition I&M == B&M.
func TestMatchProperty(t *testing.T) {
	f := func(bits, mask, info uint64) bool {
		m := Match{Bits: bits, Mask: mask}
		return m.Accepts(info) == (info&mask == bits&mask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: vector extents always total the vector length, regardless of
// how a buffer is sliced into segments.
func TestVectorExtentsTotalProperty(t *testing.T) {
	_, user, _ := spaces(t)
	uva, _ := user.Mmap(16*vm.PageSize, "u")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := rng.Intn(12*vm.PageSize) + 1
		var v Vector
		off := 0
		for off < total {
			n := rng.Intn(total-off) + 1
			v = append(v, UserSeg(user, uva+vm.VirtAddr(off), n))
			off += n
		}
		xs, err := v.Extents()
		if err != nil {
			return false
		}
		return mem.TotalLen(xs) == total && v.TotalLen() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorSlice(t *testing.T) {
	_, user, _ := spaces(t)
	uva, _ := user.Mmap(4*vm.PageSize, "u")
	v := Vector{
		UserSeg(user, uva, 100),
		PhysSeg(0x8000, 200),
		UserSeg(user, uva+vm.PageSize, 300),
	}
	cases := []struct {
		off, n    int
		wantSegs  int
		wantTotal int
	}{
		{0, 600, 3, 600},
		{0, 100, 1, 100},
		{50, 100, 2, 100},  // tail of seg 0 + head of seg 1
		{100, 200, 1, 200}, // exactly seg 1
		{150, 300, 2, 300}, // mid seg 1 through mid seg 2
		{599, 1, 1, 1},
	}
	for i, c := range cases {
		got := v.Slice(c.off, c.n)
		if len(got) != c.wantSegs || got.TotalLen() != c.wantTotal {
			t.Errorf("case %d: Slice(%d,%d) = %d segs / %d bytes, want %d / %d",
				i, c.off, c.n, len(got), got.TotalLen(), c.wantSegs, c.wantTotal)
		}
	}
	// Physical segment offsets must advance.
	part := v.Slice(150, 50)
	if part[0].Type != Physical || part[0].PA != 0x8000+50 {
		t.Errorf("physical slice offset wrong: %+v", part[0])
	}
	// Virtual segment offsets must advance.
	part = v.Slice(10, 20)
	if part[0].VA != uva+10 {
		t.Errorf("virtual slice offset wrong: %+v", part[0])
	}
}

// Property: slicing then gathering equals gathering then slicing.
func TestSlicePreservesBytesProperty(t *testing.T) {
	m, user, _ := spaces(t)
	uva, _ := user.Mmap(8*vm.PageSize, "u")
	data := make([]byte, 8*vm.PageSize)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	user.WriteBytes(uva, data)
	v := Vector{
		UserSeg(user, uva, 3000),
		UserSeg(user, uva+vm.PageSize, 5000),
		UserSeg(user, uva+4*vm.PageSize, 2000),
	}
	whole, _ := v.Extents()
	flat := m.Gather(whole)
	f := func(off, n uint16) bool {
		o := int(off) % v.TotalLen()
		k := int(n)%(v.TotalLen()-o) + 1
		part := v.Slice(o, k)
		if part.TotalLen() != k {
			return false
		}
		xs, err := part.Extents()
		if err != nil {
			return false
		}
		return bytes.Equal(m.Gather(xs), flat[o:o+k])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorValidateAndCounts(t *testing.T) {
	_, user, kern := spaces(t)
	uva, _ := user.Mmap(2*vm.PageSize, "u")
	kva, _ := kern.MmapContig(vm.PageSize, "k")
	v := Vector{
		UserSeg(user, uva, 2*vm.PageSize),
		KernelSeg(kern, kva, vm.PageSize),
		PhysSeg(0x4000, 100),
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.Pages() != 4 {
		t.Errorf("Pages = %d, want 4", v.Pages())
	}
	if v.UserPages() != 2 {
		t.Errorf("UserPages = %d, want 2", v.UserPages())
	}
	bad := Vector{UserSeg(user, uva, 10), {Type: AddrType(9), Len: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid vector accepted")
	}
}

func TestAddrTypeString(t *testing.T) {
	if UserVirtual.String() != "user-virtual" || KernelVirtual.String() != "kernel-virtual" ||
		Physical.String() != "physical" {
		t.Error("AddrType strings wrong")
	}
	if AddrType(42).String() == "" {
		t.Error("unknown AddrType should still stringify")
	}
}

// Property: Vector.Extents — one presized list, merged in place — equals
// the segment-by-segment resolution it replaced (each segment's own
// list, concatenated, then merged), for vectors mixing physical
// segments, virtual segments, empty segments and adjacent runs.
func TestVectorExtentsMatchesPerSegmentResolution(t *testing.T) {
	m, user, kern := spaces(t)
	uva, _ := user.Mmap(8*vm.PageSize, "u")
	kva, _ := kern.MmapContig(8*vm.PageSize, "k")
	frames, _ := m.AllocContig(8)
	base := frames[0].Addr()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var v Vector
		for i, n := 0, rng.Intn(6); i < n; i++ {
			off := rng.Intn(6 * vm.PageSize)
			l := rng.Intn(2*vm.PageSize) * rng.Intn(2) // half are empty
			switch rng.Intn(3) {
			case 0:
				v = append(v, UserSeg(user, uva+vm.VirtAddr(off), l))
			case 1:
				v = append(v, KernelSeg(kern, kva+vm.VirtAddr(off), l))
			default:
				v = append(v, PhysSeg(base+mem.PhysAddr(off), l))
			}
			if l > 0 && rng.Intn(2) == 0 { // and a physical neighbour that touches it
				if last := v[len(v)-1]; last.Type == Physical {
					v = append(v, PhysSeg(last.PA+mem.PhysAddr(last.Len), 100))
				}
			}
		}
		var concat []mem.Extent
		for _, s := range v {
			xs, err := s.Extents()
			if err != nil {
				return false
			}
			concat = append(concat, xs...)
		}
		want := mem.MergeExtents(concat)
		got, err := v.Extents()
		if err != nil || len(got) != len(want) || (len(want) == 0 && got != nil) {
			t.Logf("%v: got %v (%v), want %v", v, got, err, want)
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("%v: got %v, want %v", v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Fatal(err)
	}
	if _, err := (Vector{PhysSeg(base, 8), {Type: Physical, AS: kern, Len: 8}}).Extents(); err == nil || err.Error()[:9] != "segment 1" {
		t.Errorf("invalid second segment: err = %v, want it blamed on segment 1", err)
	}
}
