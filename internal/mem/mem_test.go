package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocFrameDistinctPFNs(t *testing.T) {
	m := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if seen[f.PFN()] {
			t.Fatalf("duplicate PFN %d", f.PFN())
		}
		if f.PFN() == 0 {
			t.Fatal("PFN 0 must stay invalid")
		}
		seen[f.PFN()] = true
	}
	if m.Allocated() != 100 {
		t.Errorf("Allocated = %d, want 100", m.Allocated())
	}
}

func TestCapacityLimit(t *testing.T) {
	m := New(4)
	var frames []*Frame
	for i := 0; i < 4; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := m.AllocFrame(); err == nil {
		t.Fatal("expected out-of-memory error")
	}
	m.Put(frames[0])
	if _, err := m.AllocFrame(); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

func TestRefCounting(t *testing.T) {
	m := New(0)
	f, _ := m.AllocFrame()
	f.Get()
	m.Put(f)
	if m.Frame(f.PFN()) == nil {
		t.Fatal("frame freed while still referenced")
	}
	m.Put(f)
	if m.Frame(f.PFN()) != nil {
		t.Fatal("frame not freed at refcount zero")
	}
	if m.Allocated() != 0 {
		t.Errorf("Allocated = %d, want 0", m.Allocated())
	}
}

func TestPutUnderflowPanics(t *testing.T) {
	m := New(0)
	f, _ := m.AllocFrame()
	m.Put(f)
	defer func() {
		if recover() == nil {
			t.Error("double Put should panic")
		}
	}()
	m.Put(f)
}

func TestAllocContigIsContiguous(t *testing.T) {
	m := New(0)
	// Fragment the free list first.
	var fs []*Frame
	for i := 0; i < 10; i++ {
		f, _ := m.AllocFrame()
		fs = append(fs, f)
	}
	m.Put(fs[3])
	m.Put(fs[7])
	got, err := m.AllocContig(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].PFN() != got[i-1].PFN()+1 {
			t.Fatalf("frames not contiguous: %d then %d", got[i-1].PFN(), got[i].PFN())
		}
	}
}

func TestRecycledFramesScatter(t *testing.T) {
	m := New(0)
	var fs []*Frame
	for i := 0; i < 8; i++ {
		f, _ := m.AllocFrame()
		fs = append(fs, f)
	}
	// Free in order; LIFO recycling hands them back in reverse.
	for _, f := range fs {
		m.Put(f)
	}
	a, _ := m.AllocFrame()
	b, _ := m.AllocFrame()
	if b.PFN() == a.PFN()+1 {
		t.Fatal("recycled frames unexpectedly contiguous (LIFO free list should reverse order)")
	}
}

func TestReadWriteCrossFrame(t *testing.T) {
	m := New(0)
	frames, _ := m.AllocContig(3)
	base := frames[0].Addr()
	src := make([]byte, 2*PageSize+123)
	for i := range src {
		src[i] = byte(i * 7)
	}
	start := base + 100
	m.WriteAt(start, src)
	got := make([]byte, len(src))
	m.ReadAt(start, got)
	if !bytes.Equal(got, src) {
		t.Fatal("cross-frame read/write corrupted data")
	}
}

func TestWildAccessPanics(t *testing.T) {
	m := New(0)
	defer func() {
		if recover() == nil {
			t.Error("access to unallocated frame should panic")
		}
	}()
	m.ReadAt(PhysAddr(999*PageSize), make([]byte, 1))
}

func TestGatherScatterRoundtrip(t *testing.T) {
	m := New(0)
	var xs []Extent
	for i := 0; i < 5; i++ {
		f, _ := m.AllocFrame()
		xs = append(xs, Extent{Addr: f.Addr() + PhysAddr(i*10), Len: 1000 - i*100})
	}
	data := make([]byte, TotalLen(xs))
	rand.New(rand.NewSource(1)).Read(data)
	m.Scatter(xs, data)
	if got := m.Gather(xs); !bytes.Equal(got, data) {
		t.Fatal("gather(scatter(x)) != x")
	}
}

func TestScatterOverflowPanics(t *testing.T) {
	m := New(0)
	f, _ := m.AllocFrame()
	defer func() {
		if recover() == nil {
			t.Error("scatter overflow should panic")
		}
	}()
	m.Scatter([]Extent{{Addr: f.Addr(), Len: 10}}, make([]byte, 11))
}

func TestMergeExtents(t *testing.T) {
	cases := []struct {
		in   []Extent
		want []Extent
	}{
		{nil, nil},
		{[]Extent{{0x1000, 100}}, []Extent{{0x1000, 100}}},
		{[]Extent{{0x1000, 0x1000}, {0x2000, 0x1000}}, []Extent{{0x1000, 0x2000}}},
		{[]Extent{{0x1000, 0x800}, {0x1800, 0x800}, {0x4000, 4}}, []Extent{{0x1000, 0x1000}, {0x4000, 4}}},
		{[]Extent{{0x1000, 4}, {0x3000, 4}}, []Extent{{0x1000, 4}, {0x3000, 4}}},
	}
	for i, c := range cases {
		got := MergeExtents(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, c.want)
			}
		}
	}
}

// Property: merging never changes total length or byte content.
func TestMergeExtentsPreservesBytes(t *testing.T) {
	m := New(0)
	frames, _ := m.AllocContig(64)
	base := frames[0].Addr()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cnt := int(n%10) + 1
		var xs []Extent
		pos := PhysAddr(0)
		for i := 0; i < cnt; i++ {
			gap := PhysAddr(rng.Intn(3)) * 512
			l := rng.Intn(3000) + 1
			if int(pos+gap)+l > 60*PageSize {
				break
			}
			xs = append(xs, Extent{Addr: base + pos + gap, Len: l})
			pos += gap + PhysAddr(l)
		}
		if len(xs) == 0 {
			return true
		}
		data := make([]byte, TotalLen(xs))
		rng.Read(data)
		m.Scatter(xs, data)
		merged := MergeExtents(xs)
		if TotalLen(merged) != TotalLen(xs) {
			return false
		}
		if len(merged) > len(xs) {
			return false
		}
		return bytes.Equal(m.Gather(merged), data)
	}
	// Fixed seed: the repo's determinism claim extends to test inputs
	// (Go >= 1.20 auto-seeds the global source otherwise).
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
}

func TestPagesIn(t *testing.T) {
	cases := []struct {
		off, n, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, PageSize, 1},
		{0, PageSize + 1, 2},
		{PageSize - 1, 2, 2},
		{100, 2 * PageSize, 3},
		{0, 8 * PageSize, 8},
	}
	for _, c := range cases {
		if got := PagesIn(c.off, c.n); got != c.want {
			t.Errorf("PagesIn(%d,%d) = %d, want %d", c.off, c.n, got, c.want)
		}
	}
}

func TestPhysAddrHelpers(t *testing.T) {
	a := PhysAddr(5*PageSize + 17)
	if a.PFN() != 5 || a.Offset() != 17 {
		t.Errorf("PFN/Offset = %d/%d, want 5/17", a.PFN(), a.Offset())
	}
}

// Property: streaming through a Cursor at arbitrary split points moves
// exactly the bytes Gather and Scatter move in one go.
func TestCursorMatchesGatherScatter(t *testing.T) {
	m, ref := New(0), New(0)
	frames, _ := m.AllocContig(64)
	ref.AllocContig(64) // same PFNs: one extent list addresses both
	base := frames[0].Addr()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var xs []Extent
		pos := 0
		for i, cnt := 0, rng.Intn(12)+1; i < cnt; i++ {
			pos += rng.Intn(3) * 700
			l := rng.Intn(3*PageSize + 1) // zero-length extents included
			if pos+l > 60*PageSize {
				break
			}
			xs = append(xs, Extent{Addr: base + PhysAddr(pos), Len: l})
			pos += l
		}
		total := TotalLen(xs)
		data := make([]byte, total)
		rng.Read(data)
		// splits cuts [0, total) at random points, empty pieces included.
		splits := func() []int {
			cuts := []int{0, total}
			for i, cnt := 0, rng.Intn(6); i < cnt; i++ {
				cuts = append(cuts, rng.Intn(total+1))
			}
			sort.Ints(cuts)
			return cuts
		}

		ref.Scatter(xs, data)
		w := m.Cursor(xs)
		for cuts, i := splits(), 1; i < len(cuts); i++ {
			w.Write(data[cuts[i-1]:cuts[i]])
		}
		if !bytes.Equal(m.Gather(xs), ref.Gather(xs)) {
			return false
		}

		got := make([]byte, total)
		r := m.Cursor(xs)
		for cuts, i := splits(), 1; i < len(cuts); i++ {
			r.Read(got[cuts[i-1]:cuts[i]])
		}
		return bytes.Equal(got, ref.Gather(xs)) && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorOverrunPanics(t *testing.T) {
	m := New(0)
	f, _ := m.AllocFrame()
	c := m.Cursor([]Extent{{Addr: f.Addr(), Len: 10}})
	c.Read(make([]byte, 10))
	defer func() {
		if recover() == nil {
			t.Error("reading past the extents should panic")
		}
	}()
	c.Read(make([]byte, 1))
}

// A recycled frame object is indistinguishable from a fresh one: zero
// bytes, reference count 1, and the PFN the allocator would have
// assigned without the pool. The expected PFNs were recorded from this
// script on the allocator before frames were pooled.
func TestRecycledFramesAreZeroAndKeepThePFNSequence(t *testing.T) {
	m := New(0)
	var pfns []uint64
	alloc := func() *Frame {
		t.Helper()
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.RefCount() != 1 {
			t.Fatalf("frame %d allocated with ref %d", f.PFN(), f.RefCount())
		}
		for i, b := range f.Data() {
			if b != 0 {
				t.Fatalf("frame %d byte %d = %#x on allocation, want zero", f.PFN(), i, b)
			}
		}
		pfns = append(pfns, f.PFN())
		for i := range f.Data() {
			f.Data()[i] = 0xA5 // dirty it for whoever gets the object next
		}
		return f
	}
	var live []*Frame
	for i := 0; i < 6; i++ {
		live = append(live, alloc())
	}
	for _, i := range []int{2, 4, 0} {
		m.Put(live[i])
	}
	alloc()
	alloc()
	contig, err := m.AllocContig(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range contig {
		for i, b := range f.Data() {
			if b != 0 {
				t.Fatalf("contiguous frame %d byte %d = %#x, want zero", f.PFN(), i, b)
			}
		}
		pfns = append(pfns, f.PFN())
	}
	m.Put(live[5])
	m.Put(contig[1])
	for i := 0; i < 4; i++ {
		alloc()
	}
	want := []uint64{1, 2, 3, 4, 5, 6, 1, 5, 7, 8, 9, 8, 6, 3, 10}
	if fmt.Sprint(pfns) != fmt.Sprint(want) {
		t.Fatalf("PFN sequence %v, want %v", pfns, want)
	}
}

// The free list is the one piece of mem that several goroutines reach at
// once (parallel tests each run their own rigs): frames freed by one
// goroutine's Memory are handed, zeroed, to another's. Run under -race.
func TestFramePoolAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := New(0)
			var held []*Frame
			for i := 0; i < 2000; i++ {
				f, err := m.AllocFrame()
				if err != nil {
					t.Error(err)
					return
				}
				if f.Data()[0] != 0 || f.Data()[PageSize-1] != 0 || f.RefCount() != 1 {
					t.Errorf("goroutine %d: frame %d not fresh", g, f.PFN())
					return
				}
				f.Data()[0], f.Data()[PageSize-1] = byte(g+1), byte(g+1)
				if held = append(held, f); len(held) == 16 {
					for _, h := range held {
						m.Put(h)
					}
					held = held[:0]
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFramesSurviveCollection: freed frames stay on the free list
// through garbage collections, so once a working set has been live,
// allocating and freeing it again allocates nothing, and every reused
// frame comes back zeroed.
func TestFramesSurviveCollection(t *testing.T) {
	const n = 64
	m := New(0)
	fs := make([]*Frame, 0, n)
	churn := func() {
		fs = fs[:0]
		for range n {
			f, err := m.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			if *f != (Frame{pfn: f.pfn, ref: 1}) {
				t.Fatalf("reused frame %d is not zero", f.PFN())
			}
			f.Data()[0], f.Data()[PageSize/2] = 0xff, 0xff
			fs = append(fs, f)
		}
		m.PutAll(fs)
	}
	churn()
	a := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC()
		churn()
	})
	if a != 0 {
		t.Errorf("allocating and freeing %d frames after two collections: %v allocs, want 0", n, a)
	}
}

// TestFrameTableBounds: the PFN-indexed table answers nil for PFN 0,
// for a freed PFN and for one not handed out yet, and AllocContig's
// fresh PFNs extend it.
func TestFrameTableBounds(t *testing.T) {
	m := New(0)
	a, _ := m.AllocFrame()
	b, _ := m.AllocFrame()
	m.Put(a)
	next := uint64(len(m.frames))
	for _, pfn := range []uint64{0, a.PFN(), next, next + 1, 1 << 40} {
		if f := m.Frame(pfn); f != nil {
			t.Errorf("Frame(%d) = frame %d, want nil", pfn, f.PFN())
		}
	}
	if m.Frame(b.PFN()) != b {
		t.Errorf("Frame(%d) lost the live frame", b.PFN())
	}
	run, err := m.AllocContig(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range run {
		if f.PFN() != next+uint64(i) || m.Frame(f.PFN()) != f {
			t.Errorf("contiguous frame %d: PFN %d, table holds %p, want PFN %d, %p", i, f.PFN(), m.Frame(f.PFN()), next+uint64(i), f)
		}
	}
	if m.Frame(next+3) != nil {
		t.Errorf("Frame(%d) past the contiguous run is not nil", next+3)
	}
}

func TestGetOnFreeFramePanics(t *testing.T) {
	m := New(0)
	f, _ := m.AllocFrame()
	m.Put(f)
	defer func() {
		if recover() == nil {
			t.Error("Get on a freed frame should panic, not resurrect it")
		}
	}()
	f.Get()
}

// BenchmarkFrameChurn is the page-cache steady state: a bounded working
// set of frames allocated and freed over and over. The frame objects
// come from the free list, so it allocates nothing.
func BenchmarkFrameChurn(b *testing.B) {
	m := New(0)
	var ring [64]*Frame
	for i := range ring { // the working set exists before the clock starts
		ring[i], _ = m.AllocFrame()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := &ring[i%len(ring)]
		m.Put(*slot)
		*slot, _ = m.AllocFrame()
	}
}

// mergeExtentsCopying is MergeExtents as it was before it learned to
// return an already merged list as it is: always a fresh list. The
// reference the property test below compares the two variants against.
func mergeExtentsCopying(xs []Extent) []Extent {
	if len(xs) == 0 {
		return nil
	}
	out := make([]Extent, 0, len(xs))
	cur := xs[0]
	for _, x := range xs[1:] {
		if x.Len == 0 {
			continue
		}
		if cur.End() == x.Addr {
			cur.Len += x.Len
			continue
		}
		out = append(out, cur)
		cur = x
	}
	return append(out, cur)
}

// Property: on random lists — zero-length entries, a zero-length head,
// runs of adjacent extents, lists with nothing to merge — MergeExtents
// and a list built by AppendExtent are what the copying reference
// returns; MergeExtents leaves its input untouched and copies nothing
// when nothing merges, and AppendExtent never outgrows a list presized
// for the unmerged input.
func TestMergeVariantsMatchTheCopyingReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]Extent, rng.Intn(12))
		addr := PhysAddr(PageSize)
		for i := range xs {
			if rng.Intn(3) > 0 { // two in three touch their predecessor
				addr += PhysAddr(rng.Intn(3)+1) * 512
			}
			l := rng.Intn(3) * 700 // one in three is empty
			if i == 0 && rng.Intn(2) == 0 {
				l = 0
			}
			xs[i] = Extent{Addr: addr, Len: l}
			addr += PhysAddr(l)
		}
		if rng.Intn(4) == 0 { // nothing to merge: gaps everywhere, no empties
			for i := range xs {
				xs[i] = Extent{Addr: PhysAddr(i+1) * 2 * PageSize, Len: 100 + i}
			}
		}
		input := slices.Clone(xs)
		want := mergeExtentsCopying(xs)

		got := MergeExtents(xs)
		if !slices.Equal(got, want) || !slices.Equal(xs, input) {
			t.Logf("MergeExtents(%v) = %v (input now %v), want %v", input, got, xs, want)
			return false
		}
		if len(want) == len(xs) && len(xs) > 0 && &got[0] != &xs[0] {
			t.Logf("MergeExtents(%v) copied a list that needed no merging", input)
			return false
		}
		if len(xs) == 0 && got != nil {
			return false // an empty gather list must stay nil: the NIC tells "no payload" by it
		}

		var built []Extent
		if len(xs) > 0 {
			built = make([]Extent, 0, len(xs))
		}
		for _, x := range xs {
			built = AppendExtent(built, x.Addr, x.Len)
		}
		if !slices.Equal(built, want) || (built == nil) != (want == nil) {
			t.Logf("AppendExtent over %v = %v, want %v", input, built, want)
			return false
		}
		return cap(built) == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Fatal(err)
	}
}

// Scatter stops when the data is exhausted, so callers pass the posted
// extents whole rather than clipping them to the data first.
func TestScatterNeedsNoClip(t *testing.T) {
	m := New(0)
	frames, _ := m.AllocContig(3)
	xs := []Extent{{Addr: frames[0].Addr() + 100, Len: 50}, {Addr: frames[1].Addr(), Len: PageSize}, {Addr: frames[2].Addr(), Len: 10}}
	data := make([]byte, 50+1000)
	for i := range data {
		data[i] = byte(i%251 + 1)
	}
	m.Scatter(xs, data)
	if got := m.Gather(Clip(xs, len(data))); !bytes.Equal(got, data) {
		t.Error("Scatter(xs, data) did not land where Scatter(Clip(xs, len(data)), data) would")
	}
	if m.Gather(xs[1:2])[1000] != 0 || m.Gather(xs[2:])[0] != 0 {
		t.Error("Scatter wrote past the end of its data")
	}
}
