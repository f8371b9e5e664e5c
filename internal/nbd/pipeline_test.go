package nbd_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/nbd"
	"repro/internal/sim"
)

// diskIno looks the device's single file up.
func diskIno(t *testing.T, p *sim.Proc, dev *nbd.Device) kernel.InodeID {
	t.Helper()
	a, err := dev.Lookup(p, dev.Root(), "disk")
	if err != nil {
		t.Fatal(err)
	}
	return a.Ino
}

// TestStripedReadsDrainOnError drives the two pipelined device loops —
// ReadPages (the page-cache fetch) and ReadDirect (through bounce
// frames) — over a two-backend striped device whose second backend
// fails, and requires the loop's discipline on the error path: the
// first error comes back, the live backend's in-flight requests are
// retired (no window slot stays held) and every bounce frame returns.
// A dead backend fails the issue; a backend smaller than its client
// was told fails the retire, with later requests already in flight.
func TestStripedReadsDrainOnError(t *testing.T) {
	const blocks, window, nRead = 32, 4, 16
	type fault struct {
		name   string
		inject func(t *testing.T, r *stripedRig)
	}
	type read struct {
		name string
		do   func(p *sim.Proc, r *stripedRig, ino kernel.InodeID) error
	}
	faults := []fault{
		{"dead backend", func(t *testing.T, r *stripedRig) { r.servers[1].NIC.Kill() }},
		{"failing block", func(t *testing.T, r *stripedRig) {
			// Swap backend 1's client for one that believes in more
			// blocks than its server has: block 5 answers the error
			// marker while blocks 6.. are already queued behind it.
			small := r.client.Cluster.AddNode("small")
			srv, err := nbd.NewServer(small, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.ServeMX(mx.Attach(small), 1, 2); err != nil {
				t.Fatal(err)
			}
			cl, err := nbd.NewClient(r.clientMX, 20, small.ID, 1, blocks)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.SetWindow(window); err != nil {
				t.Fatal(err)
			}
			r.cls[1] = cl
			if r.dev, err = nbd.NewStripedDevice(r.cls); err != nil {
				t.Fatal(err)
			}
		}},
	}
	reads := []read{
		{"ReadPages", func(p *sim.Proc, r *stripedRig, ino kernel.InodeID) error {
			frames := make([]*mem.Frame, nRead)
			for i := range frames {
				frames[i], _ = r.client.Mem.AllocFrame()
			}
			_, err := r.dev.ReadPages(p, ino, 0, frames)
			for _, f := range frames {
				r.client.Mem.Put(f)
			}
			return err
		}},
		{"ReadDirect", func(p *sim.Proc, r *stripedRig, ino kernel.InodeID) error {
			kern := r.client.Kernel
			va, err := kern.Mmap(nRead*nbd.BlockSize, "dst")
			if err != nil {
				return err
			}
			defer kern.Munmap(va, nRead*nbd.BlockSize)
			// Unaligned on both ends: partial first and last blocks.
			_, err = r.dev.ReadDirect(p, ino, 100, core.Of(core.KernelSeg(kern, va, nRead*nbd.BlockSize-300)))
			return err
		}},
	}
	for _, fault := range faults {
		for _, read := range reads {
			t.Run(fault.name+"/"+read.name, func(t *testing.T) {
				r := newStripedRig(t, 2, blocks, window)
				fault.inject(t, r)
				r.run(t, func(p *sim.Proc) {
					ino := diskIno(t, p, r.dev)
					before := r.client.Mem.Allocated()
					err := read.do(p, r, ino)
					switch {
					case err == nil:
						t.Fatal("read over a failing backend succeeded")
					case fault.name == "dead backend" && !fabric.IsFault(err):
						t.Errorf("error %v, want the dead backend's transport fault", err)
					case fault.name == "failing block" && !strings.Contains(err.Error(), "block 5"):
						t.Errorf("error %v, want the FIRST failing block (5)", err)
					}
					for i, cl := range r.cls {
						if cl.InFlight() != 0 {
							t.Errorf("backend %d: %d requests left in flight", i, cl.InFlight())
						}
					}
					if r.cls[0].BlockReads.N == 0 {
						t.Error("the live backend was never asked: nothing was in flight to retire")
					}
					if got := r.client.Mem.Allocated(); got != before {
						t.Errorf("%d frames allocated after the failed read, %d before: bounce frames leaked", got, before)
					}
					if err := fabric.PoolOf(r.client).CheckLeaks(); err != nil {
						t.Error(err)
					}
				})
			})
		}
	}
}

// TestStripedReadDirectVirtualTime pins the windowed direct read's
// virtual time (recorded before the device loops moved onto
// fabric.Pipeline): 64 blocks at window 4 over three backends, every
// issue, retire and copy charge in the order it always had.
func TestStripedReadDirectVirtualTime(t *testing.T) {
	const blocks = 64
	r := newStripedRig(t, 3, blocks, 4)
	r.run(t, func(p *sim.Proc) {
		ino := diskIno(t, p, r.dev)
		kern := r.client.Kernel
		va, err := kern.Mmap(blocks*nbd.BlockSize, "dst")
		if err != nil {
			t.Fatal(err)
		}
		t0 := p.Now()
		n, err := r.dev.ReadDirect(p, ino, 0, core.Of(core.KernelSeg(kern, va, blocks*nbd.BlockSize)))
		if err != nil || n != blocks*nbd.BlockSize {
			t.Fatalf("ReadDirect: %d %v", n, err)
		}
		if got, want := p.Now()-t0, readDirectPin; got != want {
			t.Errorf("64-block direct read took %v (%d ns), pinned at %v", got, got.Nanoseconds(), want)
		}
	})
}

// readDirectPin is TestStripedReadDirectVirtualTime's constant, as
// measured at the commit before the conversion.
const readDirectPin = 710806 * time.Nanosecond
