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
