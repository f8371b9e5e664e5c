package orfa_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/orfa"
	"repro/internal/rfsrv"
	platform "repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/vm"
)

// clusterRig is ORFA over a striped three-server cluster at window 4:
// the platform where readPipelined's pacing predicate (the window AND
// the per-server CanStart) actually decides something.
type clusterRig struct {
	*platform.Rig
	client *hw.Node
	cl     *rfsrv.Cluster
	lib    *orfa.Lib
	as     *vm.AddressSpace
	buf    vm.VirtAddr
}

const clusterBuf = 4 << 20

func runCluster(t *testing.T, timeout sim.Time, body func(r *clusterRig, p *sim.Proc)) {
	t.Helper()
	pr, err := platform.New(platform.Desc{Servers: 3, Replicas: 1, Stripe: 64 << 10, Window: 4, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	r := &clusterRig{Rig: pr, client: pr.HW.AddNode("client")}
	if _, err := pr.Run("t", 0, func(p *sim.Proc) error {
		if r.cl, err = pr.Cluster(p, r.client, 10); err != nil {
			return err
		}
		r.as = r.client.NewUserSpace("app")
		if r.buf, err = r.as.Mmap(clusterBuf, "buf"); err != nil {
			return err
		}
		r.lib = orfa.New(r.cl, r.as)
		body(r, p)
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// fill writes n patterned bytes to a fresh file and rewinds it.
func (r *clusterRig) fill(t *testing.T, p *sim.Proc, n int) (fd int, data []byte) {
	t.Helper()
	data = make([]byte, n)
	for i := range data {
		data[i] = byte(i*13 + i>>12)
	}
	fd, err := r.lib.Create(p, "/f")
	if err != nil {
		t.Fatal(err)
	}
	r.as.WriteBytes(r.buf, data)
	if got, err := r.lib.Write(p, fd, r.buf, n); err != nil || got != n {
		t.Fatalf("fill: %d %v", got, err)
	}
	r.as.WriteBytes(r.buf, make([]byte, n))
	r.lib.Seek(p, fd, 0, 0)
	return fd, data
}

// TestPipelinedReadDrainsOnFault: a pipelined read whose server dies
// mid-transfer (no replica to fail over to) must retire every chunk it
// issued, on the live servers and the dead one alike, and return the
// fault with every window idle and nothing leaked.
func TestPipelinedReadDrainsOnFault(t *testing.T) {
	// The deadline runs from issue, so it must cover a full window of
	// 256 KB chunks queueing on the client's one link.
	runCluster(t, 20*time.Millisecond, func(r *clusterRig, p *sim.Proc) {
		fd, _ := r.fill(t, p, clusterBuf) // 16 chunks of 256 KB
		before := r.client.Mem.Allocated()
		r.Nodes[1].NIC.KillAfter(3 * time.Millisecond) // a few chunks in
		n, err := r.lib.Read(p, fd, r.buf, clusterBuf)
		if !fabric.IsFault(err) || n != 0 {
			t.Fatalf("read across a server kill = %d, %v; want 0 and a transport fault", n, err)
		}
		for j, s := range r.cl.Sessions() {
			if s.InFlight() != 0 {
				t.Errorf("server %d: %d window slots still held", j, s.InFlight())
			}
			if s.Issued.N != s.Completed.N {
				t.Errorf("server %d: issued %d requests, retired %d", j, s.Issued.N, s.Completed.N)
			}
		}
		if got := r.client.Mem.Allocated(); got != before {
			t.Errorf("%d frames allocated after the failed read, %d before", got, before)
		}
		if err := fabric.PoolOf(r.client).CheckLeaks(); err != nil {
			t.Error(err)
		}
	})
}

// TestPipelinedReadVirtualTime pins the pipelined read's virtual time
// (recorded before readPipelined moved onto fabric.Pipeline): 1 MiB at
// window 4 over three servers, bytes intact.
func TestPipelinedReadVirtualTime(t *testing.T) {
	const size = 1 << 20
	runCluster(t, 0, func(r *clusterRig, p *sim.Proc) {
		fd, data := r.fill(t, p, size)
		t0 := p.Now()
		n, err := r.lib.Read(p, fd, r.buf, size)
		if err != nil || n != size {
			t.Fatalf("read: %d %v", n, err)
		}
		const pin = 2449646 * time.Nanosecond
		if got := p.Now() - t0; got != pin {
			t.Errorf("1 MiB read at window 4 took %v (%d ns), pinned at %v", got, got.Nanoseconds(), pin)
		}
		if got, _ := r.as.ReadBytes(r.buf, size); !bytes.Equal(got, data) {
			t.Error("pipelined read corrupted data")
		}
	})
}
