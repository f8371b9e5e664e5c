package nbd_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/nbd"
	"repro/internal/sim"
	"repro/internal/vm"
)

// TestDeviceMatchesByteModel is the dice-driven model test: a seeded
// die picks seek, read, write or fsync per step, on a buffered or an
// O_DIRECT descriptor of the mounted device, at unaligned offsets and
// lengths, and every read is compared with an in-memory byte model of
// the disk. The page cache is kept smaller than the working set so
// eviction writeback, combined page fetches (ReadPages), read-modify-
// write and the bounce-frame direct paths all run, at windows {1, 4}
// over {1, 3} backends. Afterwards no request is in flight on any
// client and no frame or pooled buffer has leaked.
func TestDeviceMatchesByteModel(t *testing.T) {
	for _, backends := range []int{1, 3} {
		for _, window := range []int{1, 4} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("backends%d-window%d-seed%d", backends, window, seed), func(t *testing.T) {
					runDeviceModel(t, backends, window, seed)
				})
			}
		}
	}
}

// modelFile is one open descriptor and the offset the model expects it
// to be at.
type modelFile struct {
	f   *kernel.File
	pos int64
}

func runDeviceModel(t *testing.T, backends, window int, seed int64) {
	const (
		blocks   = 24
		size     = blocks * nbd.BlockSize
		steps    = 300
		maxXfer  = 5*nbd.BlockSize + 321 // several blocks, never aligned
		cacheCap = 8                     // pages: a third of the disk
	)
	r := newStripedRig(t, backends, blocks, window)
	r.run(t, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(seed))
		osys := kernel.NewOS(r.client, cacheCap)
		osys.SetReadChunkPages(4)
		osys.Mount("/dev", r.dev)
		as := r.client.NewUserSpace("app")
		buf, err := as.Mmap(maxXfer, "buf")
		if err != nil {
			t.Fatal(err)
		}
		// Touch the whole buffer so its frames exist before the baseline.
		if err := as.WriteBytes(buf, make([]byte, maxXfer)); err != nil {
			t.Fatal(err)
		}
		files := make([]*modelFile, 2)
		for i, flags := range []kernel.OpenFlag{0, kernel.ODirect} {
			f, err := osys.Open(p, "/dev/disk", flags)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = &modelFile{f: f}
		}
		framesBefore := r.client.Mem.Allocated()
		model := make([]byte, size)

		for step := 0; step < steps; step++ {
			mf := files[rng.Intn(len(files))]
			what := fmt.Sprintf("step %d (direct=%v, pos %d)", step, mf.f.Direct(), mf.pos)
			switch dice := rng.Intn(20); {
			case dice < 3: // seek, anywhere including the very end
				mf.pos = rng.Int63n(size + 1)
				if got, _ := mf.f.Seek(mf.pos, 0); got != mf.pos {
					t.Fatalf("%s: seek landed at %d", what, got)
				}
			case dice < 11: // read
				n := rng.Intn(maxXfer) + 1
				want := model[mf.pos:min(mf.pos+int64(n), size)]
				got, err := mf.f.Read(p, as, buf, n)
				if err != nil || got != len(want) {
					t.Fatalf("%s: read %d = %d, %v; want %d", what, n, got, err, len(want))
				}
				if raw, _ := as.ReadBytes(buf, got); !bytes.Equal(raw, want) {
					t.Fatalf("%s: read %d bytes differ from the model (first at +%d)", what, got, firstDiff(raw, want))
				}
				mf.pos += int64(got)
			case dice < 19: // write, clipped to the fixed device size
				n := int(min(int64(rng.Intn(maxXfer)+1), size-mf.pos))
				if n == 0 {
					mf.pos = 0
					mf.f.Seek(0, 0)
					continue
				}
				data := make([]byte, n)
				rng.Read(data)
				if err := as.WriteBytes(buf, data); err != nil {
					t.Fatal(err)
				}
				if got, err := mf.f.Write(p, as, buf, n); err != nil || got != n {
					t.Fatalf("%s: write %d = %d, %v", what, n, got, err)
				}
				copy(model[mf.pos:], data)
				mf.pos += int64(n)
			default: // fsync
				if err := mf.f.Fsync(p); err != nil {
					t.Fatalf("%s: fsync: %v", what, err)
				}
			}
		}

		// Everything written must be on the servers, not just cached:
		// flush, drop the cache, and read the whole disk back directly.
		for _, mf := range files {
			if err := mf.f.Fsync(p); err != nil {
				t.Fatal(err)
			}
		}
		osys.PC.InvalidateInode(r.dev, diskIno(t, p, r.dev))
		checkWholeDisk(t, p, files[1].f, as, buf, maxXfer, model)
		for _, mf := range files {
			if err := mf.f.Close(p); err != nil {
				t.Fatal(err)
			}
		}
		osys.PC.InvalidateInode(r.dev, diskIno(t, p, r.dev))

		for i, cl := range r.cls {
			if cl.InFlight() != 0 {
				t.Errorf("backend %d: %d requests still in flight", i, cl.InFlight())
			}
		}
		if got := r.client.Mem.Allocated(); got != framesBefore {
			t.Errorf("%d frames allocated at the end, %d before the first op: frames leaked", got, framesBefore)
		}
		if err := fabric.PoolOf(r.client).CheckLeaks(); err != nil {
			t.Error(err)
		}
	})
}

// checkWholeDisk reads the device front to back through f in buffer-
// sized pieces and compares it with the model.
func checkWholeDisk(t *testing.T, p *sim.Proc, f *kernel.File, as *vm.AddressSpace, buf vm.VirtAddr, bufLen int, model []byte) {
	t.Helper()
	for off := 0; off < len(model); off += bufLen {
		want := model[off:min(off+bufLen, len(model))]
		got, err := f.ReadAt(p, as, buf, len(want), int64(off))
		if err != nil || got != len(want) {
			t.Fatalf("final read at %d = %d, %v", off, got, err)
		}
		if raw, _ := as.ReadBytes(buf, got); !bytes.Equal(raw, want) {
			t.Fatalf("final disk contents differ from the model at %d", off+firstDiff(raw, want))
		}
	}
}

// firstDiff returns the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
