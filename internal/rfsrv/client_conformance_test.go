package rfsrv_test

// The client conformance suite: rfsrv.Client/Async has exactly two
// implementers, *Session and *Cluster, and every behaviour of the
// protocol's verbs is checked here once, over each of them, on both
// transports. The window-1 session is the paper's synchronous
// protocol; TestSyncInstantsMatchTheDeletedClient pins it to the
// virtual instants of the bare synchronous client it replaced.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// clientKinds are the clients the suite runs over. The clusters stripe
// at testStripe, so the multi-page cases cross servers.
var clientKinds = []struct {
	name            string
	servers, window int
	cluster         bool
}{
	{"session-w1", 1, 1, false},
	{"session-w4", 1, 4, false},
	{"cluster-1", 1, 4, true},
	{"cluster-3", 3, 4, true},
}

// confRig is one client node and the servers behind cl, every server
// serving both transports over its own memfs.
type confRig struct {
	client *hw.Node
	stores []*memfs.FS
	cl     rfsrv.Async
}

// overClients runs body once per client kind, as a subtest, against a
// fresh platform.
func overClients(t *testing.T, transport string, body func(t *testing.T, r *confRig, p *sim.Proc)) {
	for _, kind := range clientKinds {
		t.Run(kind.name, func(t *testing.T) {
			env := sim.NewEngine()
			c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
			r := &confRig{client: c.AddNode("client")}
			var nodes []*hw.Node
			for j := 0; j < kind.servers; j++ {
				n := c.AddNode(fmt.Sprintf("server%d", j))
				fs := memfs.New(fmt.Sprintf("backing%d", j), n, 0)
				srv := rfsrv.NewServer(n, fs)
				if _, err := srv.ServeMX(mx.Attach(n), 1, 1); err != nil {
					t.Fatal(err)
				}
				if _, err := srv.ServeGM(gm.Attach(n), 1); err != nil {
					t.Fatal(err)
				}
				nodes, r.stores = append(nodes, n), append(r.stores, fs)
			}
			gmC, mxC := gm.Attach(r.client), mx.Attach(r.client)
			done := false
			env.Spawn("test", func(p *sim.Proc) {
				sessions := make([]*rfsrv.Session, len(nodes))
				for j, n := range nodes {
					var fc *rfsrv.FabricClient
					var err error
					if transport == "mx" {
						fc, err = rfsrv.NewMXClient(mxC, uint8(10+j), true, r.client.Kernel, n.ID, 1)
					} else {
						fc, err = rfsrv.NewGMClient(p, gmC, uint8(10+j), true, r.client.Kernel, n.ID, 1, 1024)
					}
					if err != nil {
						t.Fatal(err)
					}
					if sessions[j], err = rfsrv.NewSession(p, fc, kind.window); err != nil {
						t.Fatal(err)
					}
				}
				r.cl = sessions[0]
				if kind.cluster {
					cl, err := rfsrv.NewCluster(p, sessions, testStripe)
					if err != nil {
						t.Fatal(err)
					}
					r.cl = cl
				}
				body(t, r, p)
				done = true
			})
			env.Run(0)
			if !done && !t.Failed() {
				t.Fatal("test body deadlocked")
			}
		})
	}
}

// kvec maps n kernel bytes on the client, filled with data.
func (r *confRig) kvec(t *testing.T, n int, data []byte) core.Vector {
	t.Helper()
	kern := r.client.Kernel
	va, err := kern.Mmap(n+mem.PageSize, "conf-buf")
	if err != nil {
		t.Fatal(err)
	}
	kern.WriteBytes(va, data)
	return core.Of(core.KernelSeg(kern, va, n))
}

func (r *confRig) create(t *testing.T, p *sim.Proc, name string) kernel.InodeID {
	t.Helper()
	resp, err := r.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: name})
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	return resp.Attr.Ino
}

// seed creates a file holding data: behind the client's back when one
// server holds all of it (the read path is then checked against bytes
// it did not write), through the client when it is striped.
func (r *confRig) seed(t *testing.T, p *sim.Proc, name string, data []byte) kernel.InodeID {
	t.Helper()
	if len(r.stores) == 1 {
		fs := r.stores[0]
		attr, err := fs.Create(p, fs.Root(), name)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteAt(attr.Ino, 0, data); err != nil {
			t.Fatal(err)
		}
		return attr.Ino
	}
	ino := r.create(t, p, name)
	if resp, err := r.cl.Write(p, ino, 0, r.kvec(t, len(data), data)); err != nil || int(resp.N) != len(data) {
		t.Fatalf("seed write: %v %v", resp, err)
	}
	return ino
}

// stored returns ino's contents, n bytes if the write under test held:
// from the one server's store (the write is then checked without the
// client's read path), through the client when the file is striped.
func (r *confRig) stored(t *testing.T, p *sim.Proc, ino kernel.InodeID, n int) []byte {
	t.Helper()
	if len(r.stores) == 1 {
		got, err := r.stores[0].ContentOf(ino)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	v := r.kvec(t, n, nil)
	if resp, err := r.cl.Read(p, ino, 0, v); err != nil || int(resp.N) != n {
		t.Fatalf("read back: %v %v", resp, err)
	}
	got, _ := r.client.Kernel.ReadBytes(v[0].VA, n)
	return got
}

func TestMetaOpsOverBothTransports(t *testing.T) {
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			overClients(t, transport, func(t *testing.T, r *confRig, p *sim.Proc) {
				cl := r.cl
				root, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: 0})
				if err != nil || root.Attr.Kind != kernel.Directory {
					t.Fatalf("root getattr: %+v %v", root, err)
				}
				mk, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: root.Attr.Ino, Name: "d"})
				if err != nil {
					t.Fatal(err)
				}
				dir := mk.Attr.Ino
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "f"}); err != nil {
					t.Fatal(err)
				}
				lk, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dir, Name: "f"})
				if err != nil || lk.Attr.Kind != kernel.RegularFile {
					t.Fatalf("lookup: %+v %v", lk, err)
				}
				rd, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: dir})
				if err != nil || len(rd.Entries) != 1 || rd.Entries[0].Name != "f" {
					t.Fatalf("readdir: %+v %v", rd, err)
				}
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: root.Attr.Ino, Name: "nope"}); err != kernel.ErrNotFound {
					t.Fatalf("missing lookup: %v", err)
				}
				// Rename is part of Client: across directories, then
				// the old name is gone and the new one is the same file.
				if _, err := cl.Rename(p, dir, "f", root.Attr.Ino, "g"); err != nil {
					t.Fatalf("rename: %v", err)
				}
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dir, Name: "f"}); err != kernel.ErrNotFound {
					t.Fatalf("lookup of the renamed-away name: %v", err)
				}
				moved, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: root.Attr.Ino, Name: "g"})
				if err != nil || moved.Attr.Ino != lk.Attr.Ino {
					t.Fatalf("lookup of the new name: %+v %v, want inode %d", moved, err, lk.Attr.Ino)
				}
				if _, err := cl.Rename(p, dir, "nope", dir, "x"); err != kernel.ErrNotFound {
					t.Fatalf("rename of a missing name: %v", err)
				}
			})
		})
	}
}

func TestReadIntoPhysicalFrames(t *testing.T) {
	// The buffered-access core: read file pages straight into
	// page-cache-like frames over both transports.
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			overClients(t, transport, func(t *testing.T, r *confRig, p *sim.Proc) {
				data := pattern(3*mem.PageSize + 100)
				ino := r.seed(t, p, "f", data)
				for idx := int64(0); idx < 4; idx++ {
					frame, _ := r.client.Mem.AllocFrame()
					resp, err := r.cl.Read(p, ino, idx*mem.PageSize, core.Of(core.PhysSeg(frame.Addr(), mem.PageSize)))
					if err != nil {
						t.Fatal(err)
					}
					want := data[idx*mem.PageSize:]
					if len(want) > mem.PageSize {
						want = want[:mem.PageSize]
					}
					if int(resp.N) != len(want) {
						t.Fatalf("page %d: n=%d want %d", idx, resp.N, len(want))
					}
					if !bytes.Equal(frame.Data()[:resp.N], want) {
						t.Fatalf("page %d corrupted", idx)
					}
				}
				// Past EOF: zero-length read must not hang.
				frame, _ := r.client.Mem.AllocFrame()
				resp, err := r.cl.Read(p, ino, 100*mem.PageSize, core.Of(core.PhysSeg(frame.Addr(), mem.PageSize)))
				if err != nil || resp.N != 0 {
					t.Fatalf("EOF read: n=%d err=%v", resp.N, err)
				}
			})
		})
	}
}

func TestReadIntoUserBuffer(t *testing.T) {
	// The direct-access core: arbitrary-size reads into user memory,
	// including a rendezvous-sized one.
	for _, transport := range transports {
		for _, n := range []int{777, 4096, 60000, 300000} {
			t.Run(fmt.Sprintf("%s-%d", transport, n), func(t *testing.T) {
				overClients(t, transport, func(t *testing.T, r *confRig, p *sim.Proc) {
					data := pattern(n)
					ino := r.seed(t, p, "f", data)
					as := r.client.NewUserSpace("app")
					va, _ := as.Mmap(n+mem.PageSize, "buf")
					resp, err := r.cl.Read(p, ino, 0, core.Of(core.UserSeg(as, va, n)))
					if err != nil || int(resp.N) != n {
						t.Fatalf("read: n=%d err=%v", resp.N, err)
					}
					got, _ := as.ReadBytes(va, n)
					if !bytes.Equal(got, data) {
						t.Fatal("user-buffer read corrupted")
					}
				})
			})
		}
	}
}

func TestWriteFromUserBuffer(t *testing.T) {
	for _, transport := range transports {
		for _, n := range []int{100, 5000, 300000} { // includes chunked write
			t.Run(fmt.Sprintf("%s-%d", transport, n), func(t *testing.T) {
				overClients(t, transport, func(t *testing.T, r *confRig, p *sim.Proc) {
					data := pattern(n)
					ino := r.create(t, p, "w")
					as := r.client.NewUserSpace("app")
					va, _ := as.Mmap(n+mem.PageSize, "buf")
					as.WriteBytes(va, data)
					resp, err := r.cl.Write(p, ino, 0, core.Of(core.UserSeg(as, va, n)))
					if err != nil || int(resp.N) != n {
						t.Fatalf("write: n=%d err=%v", resp.N, err)
					}
					if !bytes.Equal(r.stored(t, p, ino, n), data) {
						t.Fatal("written data corrupted")
					}
				})
			})
		}
	}
}

func TestZeroLengthWrite(t *testing.T) {
	// A zero-byte write must complete the protocol handshake (not hang
	// or error) on both transports — the empty-vector path through the
	// fabric.
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			overClients(t, transport, func(t *testing.T, r *confRig, p *sim.Proc) {
				resp, err := r.cl.Write(p, r.create(t, p, "empty"), 0, nil)
				if err != nil || resp.N != 0 {
					t.Fatalf("zero-length write: n=%d err=%v", resp.N, err)
				}
			})
		})
	}
}

// TestClientRejectsNegativeOffsets: negative offsets and sizes must be
// refused at the client API boundary with ErrInval, by the synchronous
// verbs, the windowed ones and SetFileSize alike.
func TestClientRejectsNegativeOffsets(t *testing.T) {
	for _, transport := range transports {
		overClients(t, transport, func(t *testing.T, r *confRig, p *sim.Proc) {
			cl := r.cl
			ino := r.seed(t, p, "f", pattern(100))
			v := r.kvec(t, 100, nil)
			if _, err := cl.Read(p, ino, -1, v); err != rfsrv.ErrInval {
				t.Errorf("read err = %v, want ErrInval", err)
			}
			if _, err := cl.Write(p, ino, -1, v); err != rfsrv.ErrInval {
				t.Errorf("write err = %v, want ErrInval", err)
			}
			if _, err := cl.StartRead(p, ino, -1, v); err != rfsrv.ErrInval {
				t.Errorf("StartRead err = %v, want ErrInval", err)
			}
			if _, err := cl.StartWrite(p, ino, -1, v); err != rfsrv.ErrInval {
				t.Errorf("StartWrite err = %v, want ErrInval", err)
			}
			if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: ino, Off: -1}); err != rfsrv.ErrInval {
				t.Errorf("truncate err = %v, want ErrInval", err)
			}
			if err := cl.SetFileSize(p, ino, -1); err != rfsrv.ErrInval {
				t.Errorf("SetFileSize(-1) = %v, want ErrInval", err)
			}
			if cl.InFlight() != 0 {
				t.Errorf("%d requests in flight after refusals only", cl.InFlight())
			}
		})
	}
}

// TestSyncInstantsMatchTheDeletedClient: the window-1 session is the
// synchronous protocol, at the virtual cost of the bare FabricClient
// verbs it replaced. The script's instants were recorded on the last
// commit that had those verbs; the 1 MiB write is four MaxWriteChunk
// requests, one round trip each.
func TestSyncInstantsMatchTheDeletedClient(t *testing.T) {
	pins := map[string][5]sim.Time{
		"mx": {10457, 47925, 369939, 445688, 5839712},
		"gm": {28328, 62498, 317258, 382988, 5579312},
	}
	steps := [5]string{"getattr", "4 KB read", "64 KB read", "64 KB write", "4 x 256 KB write"}
	for _, transport := range transports {
		r := newRig(t)
		r.run(t, func(p *sim.Proc) {
			ino := r.seed(t, p, "f", pattern(64<<10))
			wino := r.seed(t, p, "w", nil)
			cl := r.sessionOver(t, p, transport, 2, 1)
			kern := r.client.Kernel
			va, _ := kern.Mmap(1<<20, "buf")
			kern.WriteBytes(va, pattern(1<<20))
			vec := func(n int) core.Vector { return core.Of(core.KernelSeg(kern, va, n)) }
			script := [5]func() (*rfsrv.Resp, error){
				func() (*rfsrv.Resp, error) { return cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}) },
				func() (*rfsrv.Resp, error) { return cl.Read(p, ino, 0, vec(4<<10)) },
				func() (*rfsrv.Resp, error) { return cl.Read(p, ino, 0, vec(64<<10)) },
				func() (*rfsrv.Resp, error) { return cl.Write(p, wino, 0, vec(64<<10)) },
				func() (*rfsrv.Resp, error) { return cl.Write(p, wino, 0, vec(1<<20)) },
			}
			for i, step := range script {
				t0 := p.Now()
				if _, err := step(); err != nil {
					t.Fatalf("%s %s: %v", transport, steps[i], err)
				}
				if got := p.Now() - t0; got != pins[transport][i] {
					t.Errorf("%s %s took %d ns, the synchronous client took %d", transport, steps[i], got, pins[transport][i])
				}
			}
		})
	}
}
