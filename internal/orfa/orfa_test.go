package orfa_test

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/orfa"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

type rig struct {
	env    *sim.Engine
	client *hw.Node
	as     *vm.AddressSpace
	buf    vm.VirtAddr
	lib    *orfa.Lib
}

func run(t *testing.T, body func(r *rig, p *sim.Proc)) {
	t.Helper()
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	client, server := c.AddNode("client"), c.AddNode("server")
	backing := memfs.New("backing", server, 0)
	srv := rfsrv.NewServer(server, backing)
	if _, err := srv.ServeMX(mx.Attach(server), 1, 1); err != nil {
		t.Fatal(err)
	}
	mxC := mx.Attach(client)
	done := false
	env.Spawn("t", func(p *sim.Proc) {
		as := client.NewUserSpace("app")
		ep, err := rfsrv.NewMXClient(mxC, 2, false, as, server.ID, 1)
		if err != nil {
			t.Error(err)
			return
		}
		cl, err := rfsrv.NewSession(p, ep, 1)
		if err != nil {
			t.Error(err)
			return
		}
		buf, _ := as.Mmap(1<<20, "buf")
		r := &rig{env: env, client: client, as: as, buf: buf, lib: orfa.New(cl, as)}
		body(r, p)
		done = true
	})
	env.Run(0)
	if !done {
		t.Fatal("deadlock")
	}
}

func TestFDLifecycle(t *testing.T) {
	run(t, func(r *rig, p *sim.Proc) {
		fd, err := r.lib.Create(p, "/file")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.lib.Open(p, "/missing"); err != kernel.ErrNotFound {
			t.Fatalf("open missing: %v", err)
		}
		if err := r.lib.Close(p, fd); err != nil {
			t.Fatal(err)
		}
		if _, err := r.lib.Read(p, fd, r.buf, 10); err == nil {
			t.Fatal("read after close succeeded")
		}
		if err := r.lib.Close(p, 999); err == nil {
			t.Fatal("close of bad fd succeeded")
		}
	})
}

func TestReadWriteSeek(t *testing.T) {
	run(t, func(r *rig, p *sim.Proc) {
		fd, _ := r.lib.Create(p, "/f")
		data := make([]byte, 10000)
		for i := range data {
			data[i] = byte(i * 7)
		}
		r.as.WriteBytes(r.buf, data)
		if n, err := r.lib.Write(p, fd, r.buf, len(data)); err != nil || n != len(data) {
			t.Fatalf("write: %d %v", n, err)
		}
		// Offset advanced: read at EOF returns 0.
		if n, _ := r.lib.Read(p, fd, r.buf, 10); n != 0 {
			t.Fatalf("read at EOF = %d", n)
		}
		if off, _ := r.lib.Seek(p, fd, 100, 0); off != 100 {
			t.Fatalf("seek set = %d", off)
		}
		n, err := r.lib.Read(p, fd, r.buf, 50)
		if err != nil || n != 50 {
			t.Fatalf("read: %d %v", n, err)
		}
		got, _ := r.as.ReadBytes(r.buf, 50)
		if !bytes.Equal(got, data[100:150]) {
			t.Fatal("seek+read returned wrong bytes")
		}
		if off, _ := r.lib.Seek(p, fd, -50, 2); off != int64(len(data)-50) {
			t.Fatalf("seek end = %d", off)
		}
		if off, _ := r.lib.Seek(p, fd, 10, 1); off != int64(len(data)-40) {
			t.Fatalf("seek cur = %d", off)
		}
	})
}

func TestEveryStatWalksRemotely(t *testing.T) {
	// ORFA has no metadata cache (§3.1): N stats of a depth-2 path cost
	// ≥ 3 RPCs each (root getattr + 2 lookups).
	run(t, func(r *rig, p *sim.Proc) {
		r.lib.Mkdir(p, "/d")
		fd, _ := r.lib.Create(p, "/d/f")
		r.lib.Close(p, fd)
		before := r.lib.MetaRPCs.N
		for i := 0; i < 5; i++ {
			if _, err := r.lib.Stat(p, "/d/f"); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.lib.MetaRPCs.N - before; got < 15 {
			t.Fatalf("5 stats issued only %d RPCs (cache sneaked in?)", got)
		}
	})
}

func TestCreateExistingOpens(t *testing.T) {
	run(t, func(r *rig, p *sim.Proc) {
		fd1, _ := r.lib.Create(p, "/f")
		r.as.WriteBytes(r.buf, []byte("hello"))
		r.lib.Write(p, fd1, r.buf, 5)
		r.lib.Close(p, fd1)
		fd2, err := r.lib.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		a, _ := r.lib.Stat(p, "/f")
		if a.Size != 5 {
			t.Fatalf("create-existing truncated: size %d", a.Size)
		}
		r.lib.Close(p, fd2)
	})
}

func TestTruncateAndReaddir(t *testing.T) {
	run(t, func(r *rig, p *sim.Proc) {
		fd, _ := r.lib.Create(p, "/f")
		r.as.WriteBytes(r.buf, make([]byte, 9000))
		r.lib.Write(p, fd, r.buf, 9000)
		if err := r.lib.Truncate(p, fd, 1234); err != nil {
			t.Fatal(err)
		}
		a, _ := r.lib.Stat(p, "/f")
		if a.Size != 1234 {
			t.Fatalf("size after truncate = %d", a.Size)
		}
		ents, err := r.lib.Readdir(p, "/")
		if err != nil || len(ents) != 1 || ents[0].Name != "f" {
			t.Fatalf("readdir: %v %v", ents, err)
		}
		if err := r.lib.Unlink(p, "/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.lib.Stat(p, "/f"); err != kernel.ErrNotFound {
			t.Fatalf("stat after unlink: %v", err)
		}
	})
}

func TestOpenDirectoryRejected(t *testing.T) {
	run(t, func(r *rig, p *sim.Proc) {
		r.lib.Mkdir(p, "/d")
		if _, err := r.lib.Open(p, "/d"); err != kernel.ErrIsDir {
			t.Fatalf("open dir: %v", err)
		}
	})
}
