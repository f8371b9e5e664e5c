package rfsrv_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// TestManyClientsOneServer: a 5-node cluster, four ORFS clients hammer
// one server concurrently over MX. Checks correctness under server
// contention and that aggregate progress is made.
func TestManyClientsOneServer(t *testing.T) {
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	server := c.AddNode("server")
	serverFS := memfs.New("backing", server, 0)
	srv := rfsrv.NewServer(server, serverFS)
	if _, err := srv.ServeMX(mx.Attach(server), 1, 2); err != nil {
		t.Fatal(err)
	}

	const clients = 4
	const fileSize = 256 * 1024
	finished := 0
	var seedInos [clients]kernel.InodeID

	env.Spawn("seed", func(p *sim.Proc) {
		for i := 0; i < clients; i++ {
			attr, err := serverFS.Create(p, serverFS.Root(), fmt.Sprintf("f%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			kva, _ := server.Kernel.Mmap(fileSize, "seed")
			data := bytes.Repeat([]byte{byte(0x10 + i)}, fileSize)
			server.Kernel.WriteBytes(kva, data)
			serverFS.WriteDirect(p, attr.Ino, 0, core.Of(core.KernelSeg(server.Kernel, kva, fileSize)))
			seedInos[i] = attr.Ino
		}
		for i := 0; i < clients; i++ {
			i := i
			node := c.AddNode(fmt.Sprintf("client%d", i))
			mxC := mx.Attach(node)
			env.Spawn(fmt.Sprintf("cl%d", i), func(p *sim.Proc) {
				cl, err := window1(p)(rfsrv.NewMXClient(mxC, uint8(10+i), true, node.Kernel, server.ID, 1))
				if err != nil {
					t.Error(err)
					return
				}
				osys := kernel.NewOS(node, 0)
				osys.Mount("/mnt", orfs.New("orfs", cl))
				as := node.NewUserSpace("app")
				buf, _ := as.Mmap(fileSize, "buf")
				f, err := osys.Open(p, fmt.Sprintf("/mnt/f%d", i), 0)
				if err != nil {
					t.Error(err)
					return
				}
				n, err := f.ReadAt(p, as, buf, fileSize, 0)
				if err != nil || n != fileSize {
					t.Errorf("client %d: read %d %v", i, n, err)
					return
				}
				got, _ := as.ReadBytes(buf, fileSize)
				for j, b := range got {
					if b != byte(0x10+i) {
						t.Errorf("client %d: byte %d cross-contaminated (%#x)", i, j, b)
						return
					}
				}
				finished++
			})
		}
	})
	env.Run(0)
	if finished != clients {
		t.Fatalf("%d/%d clients finished", finished, clients)
	}
}

// TestServerWorkerScaling: with concurrent clients, more server workers
// must not be slower (and should usually be faster).
func TestServerWorkerScaling(t *testing.T) {
	run := func(workers int) sim.Time {
		env := sim.NewEngine()
		c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
		server := c.AddNode("server")
		serverFS := memfs.New("backing", server, 0)
		srv := rfsrv.NewServer(server, serverFS)
		if _, err := srv.ServeMX(mx.Attach(server), 1, workers); err != nil {
			t.Fatal(err)
		}
		const clients = 3
		var end sim.Time
		done := 0
		env.Spawn("seed", func(p *sim.Proc) {
			attr, _ := serverFS.Create(p, serverFS.Root(), "f")
			kva, _ := server.Kernel.Mmap(1<<20, "seed")
			serverFS.WriteDirect(p, attr.Ino, 0, core.Of(core.KernelSeg(server.Kernel, kva, 1<<20)))
			for i := 0; i < clients; i++ {
				i := i
				node := c.AddNode(fmt.Sprintf("c%d", i))
				mxC := mx.Attach(node)
				env.Spawn("cl", func(p *sim.Proc) {
					cl, err := window1(p)(rfsrv.NewMXClient(mxC, uint8(10+i), true, node.Kernel, server.ID, 1))
					if err != nil {
						t.Error(err)
						return
					}
					kva, _ := node.Kernel.Mmap(64*1024, "buf")
					for off := int64(0); off < 1<<20; off += 64 * 1024 {
						if _, err := cl.Read(p, attr.Ino, off, core.Of(core.KernelSeg(node.Kernel, kva, 64*1024))); err != nil {
							t.Error(err)
							return
						}
					}
					done++
					if p.Now() > end {
						end = p.Now()
					}
				})
			}
		})
		env.Run(0)
		if done != clients {
			t.Fatalf("workers=%d: %d/%d clients finished", workers, done, clients)
		}
		return end
	}
	one := run(1)
	four := run(4)
	// Allow scheduling jitter at the nanosecond level (the extra
	// receiver and worker procs reorder same-instant events); anything
	// beyond 0.1% is a real slowdown.
	if four > one+one/1000 {
		t.Errorf("4 workers slower than 1: %v vs %v", four, one)
	}
	if four >= one {
		t.Logf("note: no speedup from workers (1: %v, 4: %v)", one, four)
	}
}

// TestLinkSaturationFairness: two clients on one node share the node's
// transmit link; their combined throughput cannot exceed it and both
// make progress.
func TestLinkSaturationFairness(t *testing.T) {
	env := sim.NewEngine()
	p := hw.DefaultParams()
	c := hw.NewCluster(env, p, hw.PCIXD)
	server := c.AddNode("server")
	client := c.AddNode("client")
	serverFS := memfs.New("backing", server, 0)
	srv := rfsrv.NewServer(server, serverFS)
	if _, err := srv.ServeMX(mx.Attach(server), 1, 2); err != nil {
		t.Fatal(err)
	}
	mxC := mx.Attach(client)
	const total = 2 << 20
	var t0, t1 sim.Time
	var moved [2]int
	env.Spawn("seed", func(sp *sim.Proc) {
		attr, _ := serverFS.Create(sp, serverFS.Root(), "f")
		kva, _ := server.Kernel.Mmap(total, "seed")
		serverFS.WriteDirect(sp, attr.Ino, 0, core.Of(core.KernelSeg(server.Kernel, kva, total)))
		for i := 0; i < 2; i++ {
			i := i
			env.Spawn("stream", func(pp *sim.Proc) {
				cl, err := window1(pp)(rfsrv.NewMXClient(mxC, uint8(10+i), true, client.Kernel, server.ID, 1))
				if err != nil {
					t.Error(err)
					return
				}
				kva, _ := client.Kernel.Mmap(128*1024, "buf")
				for off := int64(0); off < total; off += 128 * 1024 {
					resp, err := cl.Read(pp, attr.Ino, off, core.Of(core.KernelSeg(client.Kernel, kva, 128*1024)))
					if err != nil {
						t.Error(err)
						return
					}
					moved[i] += int(resp.N)
				}
				if i == 0 {
					t0 = pp.Now()
				} else {
					t1 = pp.Now()
				}
			})
		}
	})
	env.Run(0)
	if moved[0] != total || moved[1] != total {
		t.Fatalf("streams incomplete: %v", moved)
	}
	elapsed := t0
	if t1 > elapsed {
		elapsed = t1
	}
	aggregate := float64(2*total) / elapsed.Seconds() / 1e6
	if aggregate > 252 {
		t.Errorf("aggregate %.1f MB/s exceeds the 250 MB/s server link", aggregate)
	}
	if aggregate < 150 {
		t.Errorf("aggregate %.1f MB/s suspiciously low under saturation", aggregate)
	}
	// Fairness: neither stream finished wildly before the other.
	diff := t0 - t1
	if diff < 0 {
		diff = -diff
	}
	if diff > elapsed/3 {
		t.Errorf("unfair sharing: stream ends %v apart over %v", diff, elapsed)
	}
}

// TestGMServerInterleavedClients: two GM clients against one GM server
// worker; the unique-event-queue server must not cross wires.
func TestGMServerInterleavedClients(t *testing.T) {
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	server := c.AddNode("server")
	serverFS := memfs.New("backing", server, 0)
	srv := rfsrv.NewServer(server, serverFS)
	if _, err := srv.ServeGM(gm.Attach(server), 1); err != nil {
		t.Fatal(err)
	}
	finished := 0
	env.Spawn("seed", func(p *sim.Proc) {
		var inos [2]kernel.InodeID
		for i := 0; i < 2; i++ {
			attr, _ := serverFS.Create(p, serverFS.Root(), fmt.Sprintf("f%d", i))
			kva, _ := server.Kernel.Mmap(64*1024, "seed")
			server.Kernel.WriteBytes(kva, bytes.Repeat([]byte{byte(0x40 + i)}, 64*1024))
			serverFS.WriteDirect(p, attr.Ino, 0, core.Of(core.KernelSeg(server.Kernel, kva, 64*1024)))
			inos[i] = attr.Ino
		}
		for i := 0; i < 2; i++ {
			i := i
			node := c.AddNode(fmt.Sprintf("c%d", i))
			gmC := gm.Attach(node)
			env.Spawn("cl", func(p *sim.Proc) {
				cl, err := window1(p)(rfsrv.NewGMClient(p, gmC, uint8(10+i), true, node.Kernel, server.ID, 1, 1024))
				if err != nil {
					t.Error(err)
					return
				}
				kva, _ := node.Kernel.Mmap(64*1024, "buf")
				for iter := 0; iter < 4; iter++ {
					resp, err := cl.Read(p, inos[i], 0, core.Of(core.KernelSeg(node.Kernel, kva, 64*1024)))
					if err != nil || int(resp.N) != 64*1024 {
						t.Errorf("client %d: %v %v", i, resp, err)
						return
					}
					raw, _ := node.Kernel.ReadBytes(kva, 16)
					for _, b := range raw {
						if b != byte(0x40+i) {
							t.Errorf("client %d got cross-wired data %#x", i, b)
							return
						}
					}
				}
				finished++
			})
		}
	})
	env.Run(0)
	if finished != 2 {
		t.Fatalf("%d/2 GM clients finished", finished)
	}
	assertServerQuiet(t, srv, server)
}

var _ = mem.PageSize
var _ = time.Microsecond
