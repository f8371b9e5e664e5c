package knapi

import (
	"bytes"
	"testing"
	"time"
)

// TestFacadeEndToEnd drives the whole stack through the public surface
// only: cluster construction, MX messaging, ORFS mount, socket echo.
func TestFacadeEndToEnd(t *testing.T) {
	s := NewSim(PCIXD)
	client := s.AddNode("client")
	server := s.AddNode("server")

	// File server over the facade.
	backing := NewMemFS("backing", server, 0)
	srv := NewFileServer(server, backing)
	if _, err := srv.ServeMX(AttachMX(server), 1, 1); err != nil {
		t.Fatal(err)
	}
	mxC := AttachMX(client)

	okFS := false
	s.Spawn("fs-user", func(p *Proc) {
		ep, err := NewMXClient(mxC, 2, true, client.Kernel, server.ID, 1)
		if err != nil {
			t.Error(err)
			return
		}
		cl, err := NewFSSession(p, ep, 1)
		if err != nil {
			t.Error(err)
			return
		}
		osys := NewOS(client, 0)
		osys.Mount("/mnt", NewORFS("orfs", cl))
		as := client.NewUserSpace("app")
		buf, _ := as.Mmap(1<<18, "buf")
		f, err := osys.Open(p, "/mnt/hello.txt", OCreate)
		if err != nil {
			t.Error(err)
			return
		}
		msg := []byte("facade roundtrip")
		as.WriteBytes(buf, msg)
		if _, err := f.Write(p, as, buf, len(msg)); err != nil {
			t.Error(err)
			return
		}
		f.Close(p)
		g, _ := osys.Open(p, "/mnt/hello.txt", ODirect)
		n, err := g.ReadAt(p, as, buf, len(msg), 0)
		if err != nil || n != len(msg) {
			t.Errorf("read: %d %v", n, err)
			return
		}
		got, _ := as.ReadBytes(buf, n)
		if !bytes.Equal(got, msg) {
			t.Error("facade roundtrip corrupted")
			return
		}
		okFS = true
	})

	end := s.Run()
	if !okFS {
		t.Fatal("filesystem path did not complete")
	}
	if end <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

// TestFacadeDeterminism: two identical simulations end at the same
// virtual instant, byte for byte.
func TestFacadeDeterminism(t *testing.T) {
	run := func() Time {
		s := NewSim(PCIXE)
		a, b := s.AddNode("a"), s.AddNode("b")
		sa, err := NewSocketsMX(AttachMX(a), 1)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := NewSocketsMX(AttachMX(b), 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Spawn("srv", func(p *Proc) {
			l, _ := sb.Listen(9)
			c, _ := l.Accept(p)
			as := b.NewUserSpace("x")
			va, _ := as.Mmap(1<<16, "buf")
			for i := 0; i < 5; i++ {
				c.Recv(p, as, va, 1<<16)
				c.Send(p, as, va, 4096)
			}
		})
		s.Spawn("cli", func(p *Proc) {
			p.Sleep(5 * time.Microsecond)
			c, err := sa.Dial(p, int(b.ID), 9)
			if err != nil {
				t.Error(err)
				return
			}
			as := a.NewUserSpace("x")
			va, _ := as.Mmap(1<<16, "buf")
			for i := 0; i < 5; i++ {
				c.Send(p, as, va, 4096)
				c.Recv(p, as, va, 1<<16)
			}
			c.Close(p)
		})
		return s.Run()
	}
	t1, t2 := run(), run()
	if t1 != t2 {
		t.Fatalf("non-deterministic: %v vs %v", t1, t2)
	}
}

// TestZeroCopySavesCPU verifies the paper's motivation (§2.1): with the
// physical-address path the client CPU does not copy file data, leaving
// cycles for computation; the staging path burns them.
func TestZeroCopySavesCPU(t *testing.T) {
	measure := func(noPhys bool) int64 {
		s := NewSim(PCIXD)
		client := s.AddNode("client")
		server := s.AddNode("server")
		backing := NewMemFS("backing", server, 0)
		srv := NewFileServer(server, backing)
		if _, err := srv.ServeGM(AttachGM(server), 1); err != nil {
			t.Fatal(err)
		}
		gmC := AttachGM(client)
		var copied int64 = -1
		s.Spawn("app", func(p *Proc) {
			ep, err := NewGMClient(p, gmC, 2, true, client.Kernel, server.ID, 1, 4096)
			if err != nil {
				t.Error(err)
				return
			}
			if noPhys {
				if err := ep.DisablePhysicalAPI(p); err != nil {
					t.Error(err)
					return
				}
			}
			cl, err := NewFSSession(p, ep, 1)
			if err != nil {
				t.Error(err)
				return
			}
			osys := NewOS(client, 0)
			osys.Mount("/mnt", NewORFS("orfs", cl))
			// Seed server-side.
			attr, _ := backing.Create(p, backing.Root(), "data")
			kva, _ := server.Kernel.Mmap(1<<20, "seed")
			backing.WriteDirect(p, attr.Ino, 0, Of(KernelSeg(server.Kernel, kva, 1<<20)))
			as := client.NewUserSpace("app")
			buf, _ := as.Mmap(1<<20, "buf")
			f, err := osys.Open(p, "/mnt/data", 0)
			if err != nil {
				t.Error(err)
				return
			}
			before := client.CPU.CopyStats.Bytes
			f.ReadAt(p, as, buf, 1<<20, 0)
			copied = client.CPU.CopyStats.Bytes - before
		})
		s.Run()
		if copied < 0 {
			t.Fatal("measurement did not run")
		}
		return copied
	}
	phys := measure(false)
	staged := measure(true)
	// Both pay the mandatory page-cache→application copy (1MB); the
	// staging path additionally copies every byte once more.
	if staged < phys+1<<19 {
		t.Fatalf("staging path copied %d bytes vs %d with the physical API — expected ≥0.5MB more",
			staged, phys)
	}
}

// TestDefaultParamsAnchors pins the calibration constants the paper
// states outright, so accidental retuning is caught.
func TestDefaultParamsAnchors(t *testing.T) {
	p := DefaultParams()
	if p.RegPerPage != 3*time.Microsecond {
		t.Errorf("RegPerPage = %v, paper says 3µs", p.RegPerPage)
	}
	if p.DeregBase != 200*time.Microsecond {
		t.Errorf("DeregBase = %v, paper says 200µs", p.DeregBase)
	}
	if p.Syscall != 400*time.Nanosecond {
		t.Errorf("Syscall = %v, paper says ≈400ns", p.Syscall)
	}
	if p.LinkBandwidthXD != 250e6 || p.LinkBandwidthXE != 500e6 {
		t.Errorf("link bandwidths %v/%v, paper says 250/500 MB/s",
			p.LinkBandwidthXD, p.LinkBandwidthXE)
	}
	if p.MXSmallMax != 128 || p.MXMediumMax != 32*1024 {
		t.Errorf("MX regime bounds %d/%d, paper says 128B/32KB", p.MXSmallMax, p.MXMediumMax)
	}
}

// TestFacadeSurface exercises the remaining facade constructors.
func TestFacadeSurface(t *testing.T) {
	s := NewSimWithParams(PCIXD, DefaultParams())
	node := s.AddNode("n")
	peer := s.AddNode("peer")
	g := AttachGM(node)
	tcp := NewSocketsTCP(node)
	_ = NewSocketsTCP(peer)
	if tcp == nil {
		t.Fatal("tcp stack nil")
	}
	srv, err := NewNBDServer(peer, 8)
	if err != nil {
		t.Fatal(err)
	}
	mxPeer, mxNode := AttachMX(peer), AttachMX(node)
	if err := srv.ServeMX(mxPeer, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileServer(peer, NewMemFS("backing", peer, 0)).ServeMX(mxPeer, 3, 1); err != nil {
		t.Fatal(err)
	}
	ran := false
	s.Spawn("t", func(p *Proc) {
		port, err := g.OpenPort(1, true)
		if err != nil {
			t.Error(err)
			return
		}
		cache := NewRegCache(port, 32)
		as := node.NewUserSpace("u")
		va, _ := as.Mmap(PageSize, "b")
		if hit, err := cache.Acquire(p, as, va, PageSize); hit || err != nil {
			t.Errorf("acquire: %v %v", hit, err)
		}
		ncl, err := NewNBDClient(mxNode, 2, peer.ID, 1, 8)
		if err != nil {
			t.Error(err)
			return
		}
		dev := NewNBDDevice(ncl)
		if dev.Root() != 1 {
			t.Error("device root")
		}
		fr, _ := node.Mem.AllocFrame()
		if err := ncl.ReadBlock(p, 0, fr); err != nil {
			t.Error(err)
		}
		// ORFA facade: a user-space endpoint, the synchronous protocol
		// over it, the library over that.
		ep, err := NewMXClient(mxNode, 4, false, as, peer.ID, 3)
		if err != nil {
			t.Error(err)
			return
		}
		sess, err := NewFSSession(p, ep, 1)
		if err != nil {
			t.Error(err)
			return
		}
		if err := NewORFA(sess, as).Mkdir(p, "/d"); err != nil {
			t.Errorf("orfa mkdir: %v", err)
		}
		ran = true
	})
	// RunFor exercises the bounded run.
	s.RunFor(1)
	s.Run()
	if !ran {
		t.Fatal("facade body did not run")
	}
	if got := NetpipeSizes(4); len(got) != 3 {
		t.Errorf("NetpipeSizes(4) = %v", got)
	}
	if DefaultConfig().Iters <= 0 {
		t.Error("DefaultConfig iters")
	}
}
