package rfsrv_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/orfa"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

const us = time.Microsecond

// rig is a two-node client/server fixture with both transports served.
type rig struct {
	env            *sim.Engine
	params         *hw.Params
	client, server *hw.Node
	serverFS       *memfs.FS
	srv            *rfsrv.Server
	gmC            *gm.GM
	mxC            *mx.MX
}

func newRig(t *testing.T) *rig { return newRigWorkers(t, 1) }

// newRigWorkers is newRig with the MX server given `workers` workers.
func newRigWorkers(t *testing.T, workers int) *rig {
	t.Helper()
	env := sim.NewEngine()
	params := hw.DefaultParams()
	c := hw.NewCluster(env, params, hw.PCIXD)
	r := &rig{env: env, params: params}
	r.client, r.server = c.AddNode("client"), c.AddNode("server")
	r.gmC = gm.Attach(r.client)
	r.mxC = mx.Attach(r.client)
	gmS := gm.Attach(r.server)
	mxS := mx.Attach(r.server)
	r.serverFS = memfs.New("backing", r.server, 0)
	r.srv = rfsrv.NewServer(r.server, r.serverFS)
	if _, err := r.srv.ServeMX(mxS, 1, workers); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.ServeGM(gmS, 1); err != nil {
		t.Fatal(err)
	}
	return r
}

// onNode returns a copy of the rig whose client is a fresh node, for
// tests that drive the one server from several clients.
func (r *rig) onNode(name string) *rig {
	nr := *r
	nr.client = r.client.Cluster.AddNode(name)
	nr.gmC, nr.mxC = gm.Attach(nr.client), mx.Attach(nr.client)
	return &nr
}

// run executes body in a proc and fails the test on deadlock.
func (r *rig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("test", func(p *sim.Proc) {
		body(p)
		done = true
	})
	r.env.Run(0)
	if !done {
		t.Fatal("test body deadlocked")
	}
}

// window1 wraps a fresh endpoint in the synchronous protocol: a
// session at window 1.
func window1(p *sim.Proc) func(*rfsrv.FabricClient, error) (*rfsrv.Session, error) {
	return func(fc *rfsrv.FabricClient, err error) (*rfsrv.Session, error) {
		if err != nil {
			return nil, err
		}
		return rfsrv.NewSession(p, fc, 1)
	}
}

// mxKernelClient builds an ORFS-style synchronous client (MX needs no
// process to set a session up).
func (r *rig) mxKernelClient(t *testing.T) *rfsrv.Session {
	t.Helper()
	cl, err := window1(nil)(rfsrv.NewMXClient(r.mxC, 2, true, r.client.Kernel, r.server.ID, 1))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func (r *rig) gmKernelClient(t *testing.T, p *sim.Proc, cachePages int) *rfsrv.Session {
	t.Helper()
	cl, err := window1(p)(rfsrv.NewGMClient(p, r.gmC, 2, true, r.client.Kernel, r.server.ID, 1, cachePages))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*31 + 5)
	}
	return out
}

// seed creates a file directly in the server's backing store.
func (r *rig) seed(t *testing.T, p *sim.Proc, name string, data []byte) kernel.InodeID {
	t.Helper()
	attr, err := r.serverFS.Create(p, r.serverFS.Root(), name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.serverFS.WriteDirect(p, attr.Ino, 0, nil); err == nil {
		_ = err
	}
	// Write via direct bytes through a kernel vector on the server.
	kva, err := r.server.Kernel.Mmap(len(data)+mem.PageSize, "seed")
	if err != nil {
		t.Fatal(err)
	}
	r.server.Kernel.WriteBytes(kva, data)
	if n, err := r.serverFS.WriteDirect(p, attr.Ino, 0, core.Of(core.KernelSeg(r.server.Kernel, kva, len(data)))); err != nil || n != len(data) {
		t.Fatalf("seed write: %d %v", n, err)
	}
	return attr.Ino
}

func TestORFSMountedEndToEnd(t *testing.T) {
	// Full stack: application → VFS → page cache → ORFS → transport →
	// server → memfs, both transports, buffered and direct.
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			r.run(t, func(p *sim.Proc) {
				var cl rfsrv.Async
				if transport == "mx" {
					cl = r.mxKernelClient(t)
				} else {
					cl = r.gmKernelClient(t, p, 4096)
				}
				osys := kernel.NewOS(r.client, 0)
				osys.Mount("/mnt/orfs", orfs.New("orfs", cl))
				as := r.client.NewUserSpace("app")
				buf, _ := as.Mmap(1<<20, "buf")

				data := pattern(200000)
				f, err := osys.Open(p, "/mnt/orfs/data", kernel.OCreate)
				if err != nil {
					t.Fatal(err)
				}
				as.WriteBytes(buf, data)
				if n, err := f.Write(p, as, buf, len(data)); err != nil || n != len(data) {
					t.Fatalf("write: %d %v", n, err)
				}
				if err := f.Close(p); err != nil {
					t.Fatal(err)
				}

				// Buffered read back.
				g, _ := osys.Open(p, "/mnt/orfs/data", 0)
				n, err := g.ReadAt(p, as, buf, len(data), 0)
				if err != nil || n != len(data) {
					t.Fatalf("buffered read: %d %v", n, err)
				}
				got, _ := as.ReadBytes(buf, n)
				if !bytes.Equal(got, data) {
					t.Fatal("buffered roundtrip corrupted")
				}
				g.Close(p)

				// Direct read back.
				d, _ := osys.Open(p, "/mnt/orfs/data", kernel.ODirect)
				n, err = d.ReadAt(p, as, buf, len(data), 0)
				if err != nil || n != len(data) {
					t.Fatalf("direct read: %d %v", n, err)
				}
				got, _ = as.ReadBytes(buf, n)
				if !bytes.Equal(got, data) {
					t.Fatal("direct roundtrip corrupted")
				}
				d.Close(p)

				// Metadata via VFS.
				a, err := osys.Stat(p, "/mnt/orfs/data")
				if err != nil || a.Size != int64(len(data)) {
					t.Fatalf("stat: %+v %v", a, err)
				}
			})
		})
	}
}

func TestORFAEndToEnd(t *testing.T) {
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			r.run(t, func(p *sim.Proc) {
				as := r.client.NewUserSpace("app")
				var cl rfsrv.Async
				if transport == "mx" {
					c, err := window1(p)(rfsrv.NewMXClient(r.mxC, 3, false, as, r.server.ID, 1))
					if err != nil {
						t.Fatal(err)
					}
					cl = c
				} else {
					c, err := window1(p)(rfsrv.NewGMClient(p, r.gmC, 3, false, as, r.server.ID, 1, 4096))
					if err != nil {
						t.Fatal(err)
					}
					cl = c
				}
				lib := orfa.New(cl, as)
				buf, _ := as.Mmap(1<<20, "buf")
				if err := lib.Mkdir(p, "/d"); err != nil {
					t.Fatal(err)
				}
				fd, err := lib.Create(p, "/d/file")
				if err != nil {
					t.Fatal(err)
				}
				data := pattern(150000)
				as.WriteBytes(buf, data)
				if n, err := lib.Write(p, fd, buf, len(data)); err != nil || n != len(data) {
					t.Fatalf("write: %d %v", n, err)
				}
				lib.Seek(p, fd, 0, 0)
				if n, err := lib.Read(p, fd, buf, len(data)); err != nil || n != len(data) {
					t.Fatalf("read: %d %v", n, err)
				}
				got, _ := as.ReadBytes(buf, len(data))
				if !bytes.Equal(got, data) {
					t.Fatal("ORFA roundtrip corrupted")
				}
				a, err := lib.Stat(p, "/d/file")
				if err != nil || a.Size != int64(len(data)) {
					t.Fatalf("stat: %+v %v", a, err)
				}
				ents, err := lib.Readdir(p, "/d")
				if err != nil || len(ents) != 1 {
					t.Fatalf("readdir: %v %v", ents, err)
				}
				if err := lib.Close(p, fd); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

func TestORFSMetadataBenefitsFromVFSCache(t *testing.T) {
	// §3.1: ORFS (kernel) caches metadata; ORFA pays a round-trip per
	// walk. Stat the same path repeatedly and compare RPC counts.
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cl := r.mxKernelClient(t)
		fs := orfs.New("orfs", cl)
		osys := kernel.NewOS(r.client, 0)
		osys.Mount("/mnt", fs)
		r.seed(t, p, "f", pattern(100))
		for i := 0; i < 10; i++ {
			if _, err := osys.Stat(p, "/mnt/f"); err != nil {
				t.Fatal(err)
			}
		}
		if fs.MetaOps.N > 3 {
			t.Errorf("ORFS issued %d metadata RPCs for 10 stats (dentry cache broken)", fs.MetaOps.N)
		}

		// ORFA: every stat walks remotely.
		as := r.client.NewUserSpace("app")
		acl, err := window1(p)(rfsrv.NewMXClient(r.mxC, 5, false, as, r.server.ID, 1))
		if err != nil {
			t.Fatal(err)
		}
		lib := orfa.New(acl, as)
		for i := 0; i < 10; i++ {
			if _, err := lib.Stat(p, "/f"); err != nil {
				t.Fatal(err)
			}
		}
		if lib.MetaRPCs.N < 20 {
			t.Errorf("ORFA issued only %d metadata RPCs for 10 stats (should walk every time)", lib.MetaRPCs.N)
		}
	})
}

func TestGMRegistrationCacheEffect(t *testing.T) {
	// Fig 3(b): repeated direct reads into the same user buffer are
	// faster with the registration cache than without.
	r := newRig(t)
	const n = 64 * 1024
	var withCache, withoutCache sim.Time
	r.run(t, func(p *sim.Proc) {
		ino := r.seed(t, p, "f", pattern(n))
		as := r.client.NewUserSpace("app")
		va, _ := as.Mmap(n, "buf")

		cached := r.gmKernelClient(t, p, 4096)
		t0 := p.Now()
		for i := 0; i < 10; i++ {
			if _, err := cached.Read(p, ino, 0, core.Of(core.UserSeg(as, va, n))); err != nil {
				t.Fatal(err)
			}
		}
		withCache = p.Now() - t0

		uncached, err := window1(p)(rfsrv.NewGMClient(p, r.gmC, 4, true, r.client.Kernel, r.server.ID, 1, 0))
		if err != nil {
			t.Fatal(err)
		}
		va2, _ := as.Mmap(n, "buf2")
		t1 := p.Now()
		for i := 0; i < 10; i++ {
			if _, err := uncached.Read(p, ino, 0, core.Of(core.UserSeg(as, va2, n))); err != nil {
				t.Fatal(err)
			}
		}
		withoutCache = p.Now() - t1
	})
	if withoutCache < withCache*12/10 {
		t.Errorf("no-cache reads (%v) should be well above cached (%v)", withoutCache, withCache)
	}
}

func TestConcurrentClientsDistinctTags(t *testing.T) {
	// Two MX clients hammer the server concurrently; replies must not
	// cross wires.
	r := newRig(t)
	data1, data2 := pattern(40000), bytes.Repeat([]byte{0xAB}, 40000)
	var ok1, ok2 bool
	r.env.Spawn("seed", func(p *sim.Proc) {
		ino1 := r.seed(t, p, "f1", data1)
		ino2 := r.seed(t, p, "f2", data2)
		for i, cfg := range []struct {
			ep   uint8
			ino  kernel.InodeID
			want []byte
			ok   *bool
		}{
			{10, ino1, data1, &ok1}, {11, ino2, data2, &ok2},
		} {
			cfg := cfg
			r.env.Spawn(fmt.Sprintf("cl%d", i), func(p *sim.Proc) {
				cl, err := window1(p)(rfsrv.NewMXClient(r.mxC, cfg.ep, true, r.client.Kernel, r.server.ID, 1))
				if err != nil {
					t.Error(err)
					return
				}
				kva, _ := r.client.Kernel.Mmap(len(cfg.want), "buf")
				for iter := 0; iter < 5; iter++ {
					resp, err := cl.Read(p, cfg.ino, 0, core.Of(core.KernelSeg(r.client.Kernel, kva, len(cfg.want))))
					if err != nil || int(resp.N) != len(cfg.want) {
						t.Errorf("read: %v %v", resp, err)
						return
					}
					got, _ := r.client.Kernel.ReadBytes(kva, len(cfg.want))
					if !bytes.Equal(got, cfg.want) {
						t.Error("cross-wired replies")
						return
					}
				}
				*cfg.ok = true
			})
		}
	})
	r.env.Run(0)
	if !ok1 || !ok2 {
		t.Fatal("concurrent clients did not finish")
	}
}

// Property: random op sequences through ORFS match the same sequence
// applied to a local reference model.
func TestORFSMatchesLocalReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		ok := true
		r := newRigQuiet()
		r.env.Spawn("t", func(p *sim.Proc) {
			cl, err := window1(p)(rfsrv.NewMXClient(r.mxC, 2, true, r.client.Kernel, r.server.ID, 1))
			if err != nil {
				ok = false
				return
			}
			osys := kernel.NewOS(r.client, 64)
			osys.Mount("/m", orfs.New("orfs", cl))
			as := r.client.NewUserSpace("app")
			buf, _ := as.Mmap(1<<20, "buf")
			rng := rand.New(rand.NewSource(seed))
			ref := []byte{}
			fh, err := osys.Open(p, "/m/f", kernel.OCreate)
			if err != nil {
				ok = false
				return
			}
			for op := 0; op < 12; op++ {
				off := rng.Int63n(100 * 1024)
				n := rng.Intn(50*1024) + 1
				if rng.Intn(2) == 0 {
					data := make([]byte, n)
					rng.Read(data)
					as.WriteBytes(buf, data)
					if _, err := fh.WriteAt(p, as, buf, n, off); err != nil {
						ok = false
						return
					}
					if need := int(off) + n; need > len(ref) {
						ref = append(ref, make([]byte, need-len(ref))...)
					}
					copy(ref[off:], data)
				} else {
					rn, err := fh.ReadAt(p, as, buf, n, off)
					if err != nil {
						ok = false
						return
					}
					want := 0
					if int(off) < len(ref) {
						want = len(ref) - int(off)
						if want > n {
							want = n
						}
					}
					if rn != want {
						ok = false
						return
					}
					if rn > 0 {
						got, _ := as.ReadBytes(buf, rn)
						if !bytes.Equal(got, ref[off:int(off)+rn]) {
							ok = false
							return
						}
					}
				}
			}
			fh.Close(p)
		})
		r.env.Run(0)
		return ok
	}
	// Fixed seed: the repo's determinism claim extends to test inputs
	// (Go >= 1.20 auto-seeds the global source otherwise).
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// newRigQuiet builds the fixture without a *testing.T (for quick.Check).
func newRigQuiet() *rig {
	env := sim.NewEngine()
	params := hw.DefaultParams()
	c := hw.NewCluster(env, params, hw.PCIXD)
	r := &rig{env: env, params: params}
	r.client, r.server = c.AddNode("client"), c.AddNode("server")
	r.gmC = gm.Attach(r.client)
	r.mxC = mx.Attach(r.client)
	mxS := mx.Attach(r.server)
	r.serverFS = memfs.New("backing", r.server, 0)
	r.srv = rfsrv.NewServer(r.server, r.serverFS)
	r.srv.ServeMX(mxS, 1, 1)
	return r
}

var _ = vm.PageSize // keep import
