package orfs_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

type rig struct {
	env            *sim.Engine
	client, server *hw.Node
	backing        *memfs.FS
	sess           *rfsrv.Session
	fs             *orfs.FS
}

func run(t *testing.T, body func(r *rig, p *sim.Proc)) {
	t.Helper()
	runOver(t, 1, body)
}

// runOver is run with the mount's session at the given window over the
// rig's kernel-side MX endpoint (a window above 1 makes the mount
// asynchronous).
func runOver(t *testing.T, window int, body func(r *rig, p *sim.Proc)) {
	t.Helper()
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	r := &rig{env: env}
	r.client, r.server = c.AddNode("client"), c.AddNode("server")
	r.backing = memfs.New("backing", r.server, 0)
	srv := rfsrv.NewServer(r.server, r.backing)
	if _, err := srv.ServeMX(mx.Attach(r.server), 1, 1); err != nil {
		t.Fatal(err)
	}
	mxC := mx.Attach(r.client)
	done := false
	env.Spawn("t", func(p *sim.Proc) {
		cl, err := rfsrv.NewMXClient(mxC, 2, true, r.client.Kernel, r.server.ID, 1)
		if err != nil {
			t.Error(err)
			return
		}
		if r.sess, err = rfsrv.NewSession(p, cl, window); err != nil {
			t.Error(err)
			return
		}
		r.fs = orfs.New("orfs", r.sess)
		body(r, p)
		done = true
	})
	env.Run(0)
	if !done {
		t.Fatal("deadlock")
	}
}

func TestMetaOpMapping(t *testing.T) {
	run(t, func(r *rig, p *sim.Proc) {
		root, err := r.fs.Getattr(p, r.fs.Root())
		if err != nil || root.Kind != kernel.Directory {
			t.Fatalf("root: %v %v", root, err)
		}
		d, err := r.fs.Mkdir(p, root.Ino, "dir")
		if err != nil {
			t.Fatal(err)
		}
		f, err := r.fs.Create(p, d.Ino, "file")
		if err != nil {
			t.Fatal(err)
		}
		lk, err := r.fs.Lookup(p, d.Ino, "file")
		if err != nil || lk.Ino != f.Ino {
			t.Fatalf("lookup: %v %v", lk, err)
		}
		if _, err := r.fs.Lookup(p, d.Ino, "nope"); err != kernel.ErrNotFound {
			t.Fatalf("missing lookup: %v", err)
		}
		ents, err := r.fs.Readdir(p, d.Ino)
		if err != nil || len(ents) != 1 {
			t.Fatalf("readdir: %v %v", ents, err)
		}
		if err := r.fs.Truncate(p, f.Ino, 777); err != nil {
			t.Fatal(err)
		}
		a, _ := r.fs.Getattr(p, f.Ino)
		if a.Size != 777 {
			t.Fatalf("truncate size: %d", a.Size)
		}
		if err := r.fs.Unlink(p, d.Ino, "file"); err != nil {
			t.Fatal(err)
		}
		if err := r.fs.Rmdir(p, root.Ino, "dir"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReadPageZeroCopyIntoFrame(t *testing.T) {
	run(t, func(r *rig, p *sim.Proc) {
		root, _ := r.fs.Getattr(p, r.fs.Root())
		f, _ := r.fs.Create(p, root.Ino, "f")
		// Seed two pages of data through WriteDirect.
		kva, _ := r.client.Kernel.Mmap(2*mem.PageSize, "src")
		data := make([]byte, 2*mem.PageSize)
		for i := range data {
			data[i] = byte(i * 13)
		}
		r.client.Kernel.WriteBytes(kva, data)
		if n, err := r.fs.WriteDirect(p, f.Ino, 0, core.Of(core.KernelSeg(r.client.Kernel, kva, len(data)))); err != nil || n != len(data) {
			t.Fatalf("write: %d %v", n, err)
		}
		frame, _ := r.client.Mem.AllocFrame()
		copies0 := r.client.CPU.CopyStats.N
		n, err := r.fs.ReadPage(p, f.Ino, 1, frame)
		if err != nil || n != mem.PageSize {
			t.Fatalf("ReadPage: %d %v", n, err)
		}
		if !bytes.Equal(frame.Data(), data[mem.PageSize:]) {
			t.Fatal("page content mismatch")
		}
		// Physically addressed kernel receive: no client-side copy.
		if r.client.CPU.CopyStats.N != copies0 {
			t.Errorf("ReadPage used %d host copies (should be zero-copy)",
				r.client.CPU.CopyStats.N-copies0)
		}
		// Past EOF.
		n, err = r.fs.ReadPage(p, f.Ino, 50, frame)
		if err != nil || n != 0 {
			t.Fatalf("EOF ReadPage: %d %v", n, err)
		}
	})
}

func TestWritePageRoundtrip(t *testing.T) {
	run(t, func(r *rig, p *sim.Proc) {
		root, _ := r.fs.Getattr(p, r.fs.Root())
		f, _ := r.fs.Create(p, root.Ino, "f")
		frame, _ := r.client.Mem.AllocFrame()
		for i := range frame.Data() {
			frame.Data()[i] = byte(i * 3)
		}
		if err := r.fs.WritePage(p, f.Ino, 2, frame, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		// Verify server-side.
		blk := r.backing.FrameAt(f.Ino, 2)
		if blk == nil || !bytes.Equal(blk.Data(), frame.Data()) {
			t.Fatal("server block mismatch")
		}
		a, _ := r.fs.Getattr(p, f.Ino)
		if a.Size != 3*mem.PageSize {
			t.Fatalf("size after WritePage = %d", a.Size)
		}
	})
}

func TestDirectVectorPassThrough(t *testing.T) {
	run(t, func(r *rig, p *sim.Proc) {
		root, _ := r.fs.Getattr(p, r.fs.Root())
		f, _ := r.fs.Create(p, root.Ino, "f")
		as := r.client.NewUserSpace("app")
		va, _ := as.Mmap(100000, "buf")
		data := make([]byte, 100000)
		for i := range data {
			data[i] = byte(i * 11)
		}
		as.WriteBytes(va, data)
		// Rendezvous-sized write from a user vector.
		if n, err := r.fs.WriteDirect(p, f.Ino, 0, core.Of(core.UserSeg(as, va, len(data)))); err != nil || n != len(data) {
			t.Fatalf("WriteDirect: %d %v", n, err)
		}
		as.WriteBytes(va, make([]byte, len(data)))
		if n, err := r.fs.ReadDirect(p, f.Ino, 0, core.Of(core.UserSeg(as, va, len(data)))); err != nil || n != len(data) {
			t.Fatalf("ReadDirect: %d %v", n, err)
		}
		got, _ := as.ReadBytes(va, len(data))
		if !bytes.Equal(got, data) {
			t.Fatal("direct roundtrip corrupted")
		}
		if r.fs.ReadOps.N == 0 || r.fs.WriteOps.N == 0 {
			t.Error("op counters not maintained")
		}
	})
}

var _ = vm.PageSize

// TestWriteBehindDrainsAfterServerDeath: page writes queued behind a
// server that then dies are write-behind's to clean up. The next
// WritePage finds the window full of doomed writes and retires the
// oldest to make room (its deadline expires; the error is deferred),
// then fails its own issue against the dead peer; Sync retires the
// rest and surfaces the deferred fault once. Afterwards the window is
// idle and every shadow frame is back.
func TestWriteBehindDrainsAfterServerDeath(t *testing.T) {
	const window = 4
	runOver(t, window, func(r *rig, p *sim.Proc) {
		sess := r.sess
		sess.SetRequestTimeout(2 * time.Millisecond)
		f, err := r.fs.Create(p, r.fs.Root(), "f")
		if err != nil {
			t.Fatal(err)
		}
		page, _ := r.client.Mem.AllocFrame()
		before := r.client.Mem.Allocated()
		// Hold the requests at the server's NIC until it is dead, so
		// none of the window's writes is ever answered.
		r.server.NIC.StallFor(100 * time.Microsecond)
		for i := int64(0); i < window; i++ {
			if err := r.fs.WritePage(p, f.Ino, i, page, mem.PageSize); err != nil {
				t.Fatalf("write-behind page %d: %v", i, err)
			}
		}
		if sess.InFlight() != window {
			t.Fatalf("%d writes in flight, want a full window of %d", sess.InFlight(), window)
		}
		r.server.NIC.Kill()
		if err := r.fs.WritePage(p, f.Ino, window, page, mem.PageSize); !fabric.IsFault(err) {
			t.Errorf("WritePage against the dead server = %v, want its issue's transport fault", err)
		}
		if got := sess.InFlight(); got != window-1 {
			t.Errorf("%d writes in flight after making room for one, want %d", got, window-1)
		}
		if err := r.fs.Sync(p); !fabric.IsFault(err) {
			t.Errorf("Sync = %v, want the deferred write fault", err)
		}
		if err := r.fs.Sync(p); err != nil {
			t.Errorf("second Sync = %v: the deferred error must surface once", err)
		}
		if sess.InFlight() != 0 || sess.Issued.N != sess.Completed.N {
			t.Errorf("%d slots held; issued %d, retired %d", sess.InFlight(), sess.Issued.N, sess.Completed.N)
		}
		if got := r.client.Mem.Allocated(); got != before {
			t.Errorf("%d frames allocated after the drain, %d before: shadow frames leaked", got, before)
		}
		if err := fabric.PoolOf(r.client).CheckLeaks(); err != nil {
			t.Error(err)
		}
	})
}
