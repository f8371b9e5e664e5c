package memfs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

type rig struct {
	env  *sim.Engine
	node *hw.Node
	fs   *FS
}

func newRig(t *testing.T, pageCost sim.Time) *rig {
	t.Helper()
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	node := c.AddNode("n")
	return &rig{env: env, node: node, fs: New("test", node, pageCost)}
}

func (r *rig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("t", func(p *sim.Proc) {
		body(p)
		done = true
	})
	r.env.Run(0)
	if !done {
		t.Fatal("deadlock")
	}
}

func kseg(r *rig, va vm.VirtAddr, n int) core.Vector {
	return core.Of(core.KernelSeg(r.node.Kernel, va, n))
}

func TestTreeOperations(t *testing.T) {
	r := newRig(t, 0)
	r.run(t, func(p *sim.Proc) {
		root := r.fs.Root()
		d1, err := r.fs.Mkdir(p, root, "a")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.fs.Mkdir(p, root, "a"); err != kernel.ErrExists {
			t.Fatalf("duplicate mkdir: %v", err)
		}
		f1, err := r.fs.Create(p, d1.Ino, "f")
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.fs.Lookup(p, d1.Ino, "f")
		if err != nil || got.Ino != f1.Ino {
			t.Fatalf("lookup: %v %v", got, err)
		}
		if _, err := r.fs.Lookup(p, f1.Ino, "x"); err != kernel.ErrNotDir {
			t.Fatalf("lookup in file: %v", err)
		}
		if err := r.fs.Rmdir(p, root, "a"); err != kernel.ErrNotEmpty {
			t.Fatalf("rmdir non-empty: %v", err)
		}
		if err := r.fs.Unlink(p, d1.Ino, "f"); err != nil {
			t.Fatal(err)
		}
		if err := r.fs.Rmdir(p, root, "a"); err != nil {
			t.Fatal(err)
		}
		ents, _ := r.fs.Readdir(p, root)
		if len(ents) != 0 {
			t.Fatalf("root not empty: %v", ents)
		}
	})
}

func TestUnlinkFreesFrames(t *testing.T) {
	r := newRig(t, 0)
	r.run(t, func(p *sim.Proc) {
		before := r.node.Mem.Allocated()
		a, _ := r.fs.Create(p, r.fs.Root(), "f")
		va, _ := r.node.Kernel.Mmap(64*1024, "buf")
		r.fs.WriteDirect(p, a.Ino, 0, kseg(r, va, 64*1024))
		if r.node.Mem.Allocated() <= before {
			t.Fatal("no blocks allocated by write")
		}
		r.node.Kernel.Munmap(va, 64*1024)
		if err := r.fs.Unlink(p, r.fs.Root(), "f"); err != nil {
			t.Fatal(err)
		}
		if got := r.node.Mem.Allocated(); got != before {
			t.Fatalf("frames leaked: %d -> %d", before, got)
		}
	})
}

func TestTruncateZeroesTail(t *testing.T) {
	r := newRig(t, 0)
	r.run(t, func(p *sim.Proc) {
		a, _ := r.fs.Create(p, r.fs.Root(), "f")
		va, _ := r.node.Kernel.Mmap(2*mem.PageSize, "buf")
		data := bytes.Repeat([]byte{0xAA}, 2*mem.PageSize)
		r.node.Kernel.WriteBytes(va, data)
		r.fs.WriteDirect(p, a.Ino, 0, kseg(r, va, 2*mem.PageSize))
		if err := r.fs.Truncate(p, a.Ino, 100); err != nil {
			t.Fatal(err)
		}
		// Grow again: bytes beyond 100 must read zero, not stale 0xAA.
		if err := r.fs.Truncate(p, a.Ino, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		got, err := r.fs.ReadDirect(p, a.Ino, 0, kseg(r, va, mem.PageSize))
		if err != nil || got != mem.PageSize {
			t.Fatalf("read: %d %v", got, err)
		}
		raw, _ := r.node.Kernel.ReadBytes(va, mem.PageSize)
		for i := 100; i < mem.PageSize; i++ {
			if raw[i] != 0 {
				t.Fatalf("stale byte %#x at %d after truncate", raw[i], i)
			}
		}
	})
}

func TestFrameAtExposesBlocks(t *testing.T) {
	r := newRig(t, 0)
	r.run(t, func(p *sim.Proc) {
		a, _ := r.fs.Create(p, r.fs.Root(), "f")
		va, _ := r.node.Kernel.Mmap(3*mem.PageSize, "buf")
		data := []byte("zero-copy server payload")
		r.node.Kernel.WriteBytes(va+2*mem.PageSize, data)
		raw, _ := r.node.Kernel.ReadBytes(va, 3*mem.PageSize)
		_ = raw
		r.fs.WriteDirect(p, a.Ino, 0, kseg(r, va, 3*mem.PageSize))
		f := r.fs.FrameAt(a.Ino, 2)
		if f == nil {
			t.Fatal("no frame for written block")
		}
		if !bytes.Equal(f.Data()[:len(data)], data) {
			t.Fatal("frame content mismatch")
		}
		if r.fs.FrameAt(a.Ino, 99) != nil {
			t.Fatal("frame for unwritten block")
		}
	})
}

func TestDiskLatencyCharged(t *testing.T) {
	slow := newRig(t, 100*time.Microsecond)
	fast := newRig(t, 0)
	var slowT, fastT sim.Time
	measure := func(r *rig, out *sim.Time) {
		r.run(t, func(p *sim.Proc) {
			a, _ := r.fs.Create(p, r.fs.Root(), "f")
			va, _ := r.node.Kernel.Mmap(64*1024, "buf")
			r.fs.WriteDirect(p, a.Ino, 0, kseg(r, va, 64*1024))
			t0 := p.Now()
			r.fs.ReadDirect(p, a.Ino, 0, kseg(r, va, 64*1024))
			*out = p.Now() - t0
		})
	}
	measure(slow, &slowT)
	measure(fast, &fastT)
	if slowT < fastT+1500*time.Microsecond {
		t.Fatalf("disk latency not charged: slow %v, fast %v (16 pages × 100µs expected)", slowT, fastT)
	}
}

func TestSparseReadsZero(t *testing.T) {
	r := newRig(t, 0)
	r.run(t, func(p *sim.Proc) {
		a, _ := r.fs.Create(p, r.fs.Root(), "f")
		va, _ := r.node.Kernel.Mmap(mem.PageSize, "buf")
		// Write only page 3.
		r.fs.WriteDirect(p, a.Ino, 3*mem.PageSize, kseg(r, va, mem.PageSize))
		frame, _ := r.node.Mem.AllocFrame()
		n, err := r.fs.ReadPage(p, a.Ino, 1, frame)
		if err != nil || n != mem.PageSize {
			t.Fatalf("hole ReadPage: %d %v", n, err)
		}
		for i, b := range frame.Data() {
			if b != 0 {
				t.Fatalf("hole byte %d = %d", i, b)
			}
		}
	})
}

// Property: WriteDirect/ReadDirect at random offsets match a flat
// reference buffer.
func TestDirectIOProperty(t *testing.T) {
	f := func(seed int64) bool {
		ok := true
		env := sim.NewEngine()
		c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
		node := c.AddNode("n")
		fs := New("t", node, 0)
		env.Spawn("t", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			a, _ := fs.Create(p, fs.Root(), "f")
			va, _ := node.Kernel.Mmap(1<<18, "buf")
			ref := []byte{}
			for op := 0; op < 15; op++ {
				off := rng.Int63n(100 * 1024)
				n := rng.Intn(40*1024) + 1
				if rng.Intn(2) == 0 {
					data := make([]byte, n)
					rng.Read(data)
					node.Kernel.WriteBytes(va, data)
					fs.WriteDirect(p, a.Ino, off, core.Of(core.KernelSeg(node.Kernel, va, n)))
					if need := int(off) + n; need > len(ref) {
						ref = append(ref, make([]byte, need-len(ref))...)
					}
					copy(ref[off:], data)
				} else {
					got, err := fs.ReadDirect(p, a.Ino, off, core.Of(core.KernelSeg(node.Kernel, va, n)))
					if err != nil {
						ok = false
						return
					}
					want := 0
					if int(off) < len(ref) {
						want = min(n, len(ref)-int(off))
					}
					if got != want {
						ok = false
						return
					}
					if got > 0 {
						raw, _ := node.Kernel.ReadBytes(va, got)
						if !bytes.Equal(raw, ref[off:int(off)+got]) {
							ok = false
							return
						}
					}
				}
			}
		})
		env.Run(0)
		return ok
	}
	// Fixed seed: the repo's determinism claim extends to test inputs
	// (Go >= 1.20 auto-seeds the global source otherwise).
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// directRig is a file with data on pages 0 and 2, a hole at page 1 and
// EOF 777 bytes into page 3, plus its byte model.
func directRig(t *testing.T, r *rig, p *sim.Proc) (kernel.InodeID, []byte) {
	t.Helper()
	a, err := r.fs.Create(p, r.fs.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 3*mem.PageSize+777)
	rng := rand.New(rand.NewSource(5))
	rng.Read(model[:mem.PageSize])
	rng.Read(model[2*mem.PageSize:])
	if err := r.fs.WriteAt(a.Ino, 0, model[:mem.PageSize]); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.WriteAt(a.Ino, 2*mem.PageSize, model[2*mem.PageSize:]); err != nil {
		t.Fatal(err)
	}
	if r.fs.FrameAt(a.Ino, 1) != nil {
		t.Fatal("page 1 is not a hole")
	}
	return a.Ino, model
}

// ReadDirect copies blocks straight into the destination extents: over
// data, a hole (zeros, even into a dirty buffer) and a short EOF page,
// into a scattered two-segment user vector, clipped at EOF with the
// rest of the buffer untouched — and it samples the blocks before the
// transfer is charged, so a store landing mid-charge is not seen.
func TestReadDirectHolesShortEOFAndSamplingInstant(t *testing.T) {
	const pageCost = 10 * time.Microsecond
	r := newRig(t, pageCost)
	as := r.node.NewUserSpace("app")
	r.run(t, func(p *sim.Proc) {
		ino, model := directRig(t, r, p)
		const off = 50
		want := len(model) - off
		va1, _ := as.Mmap(2*mem.PageSize, "d1")
		va2, _ := as.Mmap(3*mem.PageSize, "d2")
		seg1, seg2 := mem.PageSize+301, 3*mem.PageSize-100 // together longer than the file
		dirty := bytes.Repeat([]byte{0xEE}, 3*mem.PageSize)
		as.WriteBytes(va1+17, dirty[:seg1])
		as.WriteBytes(va2+9, dirty[:seg2])
		charge := pageCost*sim.Time((want+mem.PageSize-1)/mem.PageSize) + r.node.Cluster.Params.CopyTime(want)
		r.env.Spawn("racing-store", func(q *sim.Proc) {
			q.Sleep(charge / 2)
			if err := r.fs.WriteAt(ino, 0, bytes.Repeat([]byte{0x11}, 2*mem.PageSize)); err != nil {
				t.Error(err)
			}
		})
		start := p.Now()
		n, err := r.fs.ReadDirect(p, ino, off, core.Vector{core.UserSeg(as, va1+17, seg1), core.UserSeg(as, va2+9, seg2)})
		if err != nil || n != want {
			t.Fatalf("ReadDirect = %d, %v; want %d", n, err, want)
		}
		if took := p.Now() - start; took != charge {
			t.Errorf("charged %v, want %v", took, charge)
		}
		got1, _ := as.ReadBytes(va1+17, seg1)
		got2, _ := as.ReadBytes(va2+9, seg2)
		got := append(got1, got2...)
		if !bytes.Equal(got[:want], model[off:]) {
			t.Error("bytes differ from the file as it was when the read was issued")
		}
		if !bytes.Equal(got[want:], dirty[:len(got)-want]) {
			t.Error("destination written past EOF")
		}
	})
}

// WriteDirect copies a scattered three-segment user vector straight
// into the blocks at an unaligned offset spanning three pages, and
// stores only once the transfer has been charged: a reader mid-charge
// still sees the old file.
func TestWriteDirectUnalignedAcrossExtents(t *testing.T) {
	const pageCost = 10 * time.Microsecond
	r := newRig(t, pageCost)
	as := r.node.NewUserSpace("app")
	r.run(t, func(p *sim.Proc) {
		ino, model := directRig(t, r, p)
		segs := []int{1500, mem.PageSize + 33, 2900}
		data := make([]byte, segs[0]+segs[1]+segs[2])
		rand.New(rand.NewSource(6)).Read(data)
		var v core.Vector
		pos := 0
		for i, n := range segs {
			va, _ := as.Mmap(3*mem.PageSize, "src")
			va += vm.VirtAddr(100*i + 7)
			as.WriteBytes(va, data[pos:pos+n])
			v = append(v, core.UserSeg(as, va, n))
			pos += n
		}
		const off = mem.PageSize - 123 // through page 0's tail, the hole and into page 2
		charge := pageCost*sim.Time((len(data)+mem.PageSize-1)/mem.PageSize) + r.node.Cluster.Params.CopyTime(len(data))
		r.env.Spawn("racing-load", func(q *sim.Proc) {
			q.Sleep(charge / 2)
			if mid, _ := r.fs.ContentOf(ino); !bytes.Equal(mid, model) {
				t.Error("bytes reached the blocks before the transfer was charged")
			}
		})
		start := p.Now()
		n, err := r.fs.WriteDirect(p, ino, off, v)
		if err != nil || n != len(data) {
			t.Fatalf("WriteDirect = %d, %v; want %d", n, err, len(data))
		}
		if took := p.Now() - start; took != charge {
			t.Errorf("charged %v, want %v", took, charge)
		}
		copy(model[off:], data)
		if got, _ := r.fs.ContentOf(ino); !bytes.Equal(got, model) {
			t.Error("file differs from the model after the unaligned write")
		}
		if r.fs.FrameAt(ino, 1) == nil {
			t.Error("the hole was written through but has no block")
		}
	})
}

// TestFreedBlockOrderIsDeterministic: truncate, unlink and scrub free a
// file's blocks, and the order decides which PFN each later allocation
// gets (frees recycle LIFO), so it must be page order, not Go's map
// order: the same script yields one PFN sequence however often it runs.
func TestFreedBlockOrderIsDeterministic(t *testing.T) {
	const pages = 40
	script := func() (pfns []uint64) {
		r := newRig(t, 0)
		r.run(t, func(p *sim.Proc) {
			va, _ := r.node.Kernel.Mmap(pages*mem.PageSize, "buf")
			for _, name := range []string{"truncated", "unlinked", "scrubbed"} {
				a, err := r.fs.Create(p, r.fs.Root(), name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.fs.WriteDirect(p, a.Ino, 0, kseg(r, va, pages*mem.PageSize)); err != nil {
					t.Fatal(err)
				}
				switch name {
				case "truncated":
					err = r.fs.Truncate(p, a.Ino, 3*mem.PageSize+100)
				case "unlinked":
					err = r.fs.Unlink(p, r.fs.Root(), name)
				case "scrubbed":
					err = r.fs.Scrub(p, a.Ino)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3*pages; i++ { // what the three left on the recycle list, newest first
				f, err := r.node.Mem.AllocFrame()
				if err != nil {
					t.Fatal(err)
				}
				pfns = append(pfns, f.PFN())
			}
		})
		return pfns
	}
	want := script()
	for run := 1; run < 20; run++ {
		if got := script(); !slices.Equal(got, want) {
			t.Fatalf("run %d: PFN sequence differs from run 0:\n got %v\nwant %v", run, got, want)
		}
	}
}

// payload allocates the fresh frames a write of data at off is received
// into, as a file server does: one per page the range covers, each
// page's share of data at its in-page position.
func payload(t testing.TB, m *mem.Memory, off int64, data []byte) []*mem.Frame {
	t.Helper()
	var frames []*mem.Frame
	for pos := off; pos < off+int64(len(data)); {
		pg := int(pos % mem.PageSize)
		chunk := min(mem.PageSize-pg, int(off+int64(len(data))-pos))
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		copy(f.Data()[pg:pg+chunk], data[pos-off:])
		frames = append(frames, f)
		pos += int64(chunk)
	}
	return frames
}

// seeded creates a file holding data, written the copying way.
func (r *rig) seeded(t *testing.T, p *sim.Proc, name string, data []byte) kernel.InodeID {
	t.Helper()
	a, err := r.fs.Create(p, r.fs.Root(), name)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := r.node.Kernel.Mmap(max(len(data), 1), "seed")
	r.node.Kernel.WriteBytes(va, data)
	if _, err := r.fs.WriteDirect(p, a.Ino, 0, kseg(r, va, len(data))); err != nil {
		t.Fatal(err)
	}
	return a.Ino
}

// TestInstallPagesFlipsWholePages: an aligned overwrite copies nothing —
// each payload frame becomes its page's block — and the block it
// replaces is Put, not overwritten, so a holder of that block (a read
// reply still queued at the NIC) keeps the bytes it was served; the
// block goes back to the allocator when the holder lets go.
func TestInstallPagesFlipsWholePages(t *testing.T) {
	const pages = 4
	old := bytes.Repeat([]byte{0xAA}, pages*mem.PageSize)
	neu := bytes.Repeat([]byte{0xBB}, pages*mem.PageSize)
	r := newRig(t, 0)
	r.run(t, func(p *sim.Proc) {
		ino := r.seeded(t, p, "f", old)
		reply := r.fs.FrameAt(ino, 1)
		reply.Get() // what readExtents takes for a queued read reply
		before, copied := r.node.Mem.Allocated(), r.node.CPU.CopyStats.Bytes
		attr, _ := r.fs.Getattr(p, ino)
		frames := payload(t, r.node.Mem, 0, neu)
		start := p.Now()
		if n, err := r.fs.InstallPages(p, ino, 0, len(neu), frames, 0); err != nil || n != len(neu) {
			t.Fatalf("install: %d %v", n, err)
		}
		if p.Now() != start || r.node.CPU.CopyStats.Bytes != copied {
			t.Errorf("an aligned install charged %v and copied %d bytes, want neither", p.Now()-start, r.node.CPU.CopyStats.Bytes-copied)
		}
		for i, f := range frames {
			if r.fs.FrameAt(ino, int64(i)) != f {
				t.Errorf("page %d is not the payload's frame", i)
			}
		}
		if !bytes.Equal(reply.Data(), old[:mem.PageSize]) || reply.RefCount() != 1 {
			t.Errorf("the replaced block held by a reader: ref %d, bytes changed %v", reply.RefCount(), !bytes.Equal(reply.Data(), old[:mem.PageSize]))
		}
		// The payload's frames replaced the old blocks one for one; the
		// held block is the only one still allocated beside them.
		if got := r.node.Mem.Allocated(); got != before+1 {
			t.Errorf("%d frames allocated, want %d (the blocks plus the held one)", got, before+1)
		}
		r.node.Mem.Put(reply)
		if got := r.node.Mem.Allocated(); got != before {
			t.Errorf("%d frames allocated after the reader let go, want %d", got, before)
		}
		if got, _ := r.fs.ContentOf(ino); !bytes.Equal(got, neu) {
			t.Error("the file does not hold the installed bytes")
		}
		if a, _ := r.fs.Getattr(p, ino); a.Size != attr.Size || a.Version != attr.Version+1 {
			t.Errorf("after install: size %d version %d, want %d and %d", a.Size, a.Version, attr.Size, attr.Version+1)
		}
	})
}

// TestInstallPagesCopiesOnlyPartialPages: an unaligned write's head and
// tail pages cover part of a block the file already has, so just the
// covered bytes are copied in — and charged — while the pages between
// are flipped; over a hole even the partial pages are flipped, because
// a fresh frame is zero outside the bytes it received, which is what a
// hole and the tail past EOF read as.
func TestInstallPagesCopiesOnlyPartialPages(t *testing.T) {
	const off, n = 1000, 3 * mem.PageSize
	data := bytes.Repeat([]byte{0xBB}, n)
	for _, existing := range []bool{true, false} {
		r := newRig(t, 0)
		r.run(t, func(p *sim.Proc) {
			model := bytes.Repeat([]byte{0xAA}, 4*mem.PageSize)
			if !existing {
				model = nil
			}
			ino := r.seeded(t, p, "f", model)
			var kept [4]*mem.Frame
			for i := range kept {
				kept[i] = r.fs.FrameAt(ino, int64(i))
			}
			copied := r.node.CPU.CopyStats.Bytes
			frames := payload(t, r.node.Mem, off, data)
			start := p.Now()
			if _, err := r.fs.InstallPages(p, ino, off, n, frames, off); err != nil {
				t.Fatal(err)
			}
			partial := int64(0)
			if existing {
				partial = (mem.PageSize - off) + (off + n - 3*mem.PageSize)
			}
			if got := r.node.CPU.CopyStats.Bytes - copied; got != partial {
				t.Errorf("existing blocks %v: %d bytes copied, want %d", existing, got, partial)
			}
			if took, want := p.Now()-start, r.node.Cluster.Params.CopyTime(int(partial)); partial > 0 && took != want {
				t.Errorf("existing blocks %v: charged %v for the partial pages, want %v", existing, took, want)
			}
			for i := range kept {
				got := r.fs.FrameAt(ino, int64(i))
				if flipped := existing && (i == 1 || i == 2) || !existing; flipped != (got == frames[i]) {
					t.Errorf("existing blocks %v: page %d flipped %v, want %v", existing, i, got == frames[i], flipped)
				}
			}
			model = append(model, make([]byte, max(0, off+n-len(model)))...)
			copy(model[off:], data)
			if got, _ := r.fs.ContentOf(ino); !bytes.Equal(got, model) {
				t.Errorf("existing blocks %v: the file differs from the model", existing)
			}
		})
	}
}

// TestInstallPagesCopiesAShiftedPayload: a payload that sits in its
// frames from an offset other than its in-page position (an inline write
// received behind a request head) cannot be flipped in: every byte is
// copied into the blocks, and charged, exactly as a WriteDirect of the
// same range is; every frame goes back to the allocator.
func TestInstallPagesCopiesAShiftedPayload(t *testing.T) {
	const off, n = 1000, 3 * mem.PageSize
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i % 251)
	}
	for _, existing := range []bool{true, false} {
		r := newRig(t, 0)
		r.run(t, func(p *sim.Proc) {
			model := bytes.Repeat([]byte{0xAA}, 4*mem.PageSize)
			if !existing {
				model = nil
			}
			ino := r.seeded(t, p, "f", model)
			before, copied := r.node.Mem.Allocated(), r.node.CPU.CopyStats.Bytes
			frames := payload(t, r.node.Mem, 0, data)
			start := p.Now()
			if got, err := r.fs.InstallPages(p, ino, off, n, frames, 0); err != nil || got != n {
				t.Fatalf("install: %d %v", got, err)
			}
			if got := r.node.CPU.CopyStats.Bytes - copied; got != n {
				t.Errorf("existing blocks %v: %d bytes copied, want %d", existing, got, n)
			}
			if took, want := p.Now()-start, r.node.Cluster.Params.CopyTime(n); took != want {
				t.Errorf("existing blocks %v: charged %v, want %v", existing, took, want)
			}
			blocks := 0
			if !existing {
				blocks = mem.PagesIn(off, n)
			}
			if got := r.node.Mem.Allocated(); got != before+blocks {
				t.Errorf("existing blocks %v: %d frames allocated, want %d", existing, got, before+blocks)
			}
			model = append(model, make([]byte, max(0, off+n-len(model)))...)
			copy(model[off:], data)
			if got, _ := r.fs.ContentOf(ino); !bytes.Equal(got, model) {
				t.Errorf("existing blocks %v: the file differs from the model", existing)
			}
		})
	}
}

// TestInstallPagesRefusesAndFrees: an install the store cannot apply —
// an unknown inode, a negative offset, frames that do not cover the
// range — changes nothing and still gives back every frame it was
// handed.
func TestInstallPagesRefusesAndFrees(t *testing.T) {
	r := newRig(t, 0)
	r.run(t, func(p *sim.Proc) {
		ino := r.seeded(t, p, "f", bytes.Repeat([]byte{0xAA}, mem.PageSize))
		before := r.node.Mem.Allocated()
		data := bytes.Repeat([]byte{0xBB}, 2*mem.PageSize)
		for _, tc := range []struct {
			name   string
			ino    kernel.InodeID
			off    int64
			frames []*mem.Frame
			want   error
		}{
			{"unknown inode", 999, 0, payload(t, r.node.Mem, 0, data), kernel.ErrNotFound},
			{"negative offset", ino, -mem.PageSize, payload(t, r.node.Mem, 0, data), kernel.ErrBadOffset},
			{"short frame list", ino, 0, payload(t, r.node.Mem, 0, data)[:1], kernel.ErrBadOffset},
		} {
			if _, err := r.fs.InstallPages(p, tc.ino, tc.off, len(data), tc.frames, 0); err != tc.want {
				t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
			}
		}
		// The short list's second frame was never handed over.
		if got := r.node.Mem.Allocated(); got != before+1 {
			t.Errorf("%d frames allocated, want %d", got, before+1)
		}
		if got, _ := r.fs.ContentOf(ino); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, mem.PageSize)) {
			t.Error("a refused install changed the file")
		}
	})
}

// BenchmarkInstall64K: the server half of a 64 KB write whose payload
// traveled as its own message — sixteen fresh frames installed over a
// file's blocks by page flip — copies nothing and allocates nothing.
func BenchmarkInstall64K(b *testing.B) {
	const size = 64 * 1024
	r := &rig{env: sim.NewEngine()}
	r.node = hw.NewCluster(r.env, hw.DefaultParams(), hw.PCIXD).AddNode("n")
	r.fs = New("test", r.node, 0)
	frames := make([]*mem.Frame, size/mem.PageSize)
	b.ReportAllocs()
	r.env.Spawn("bench", func(p *sim.Proc) {
		a, err := r.fs.Create(p, r.fs.Root(), "f")
		if err != nil {
			b.Error(err)
			return
		}
		install := func() error {
			for i := range frames {
				if frames[i], err = r.node.Mem.AllocFrame(); err != nil {
					return err
				}
			}
			_, err := r.fs.InstallPages(p, a.Ino, 0, size, frames, 0)
			return err
		}
		if err := install(); err != nil { // the blocks the loop replaces
			b.Error(err)
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := install(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	r.env.Run(0)
	if r.node.CPU.CopyStats.Bytes != 0 {
		b.Errorf("an aligned install copied %d bytes", r.node.CPU.CopyStats.Bytes)
	}
}
