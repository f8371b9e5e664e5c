package rfsrv_test

// Tests of replica read slices: every replica of a stripe serves a fixed
// share of its reads (placement.reader), and a slice whose server dies
// mid-read is re-read from the group's next alive member.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/rfsrv"
	platform "repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/vm"
)

// sliceStripe is the default stripe: two read slices of 32 KB at R=2.
const sliceStripe = rfsrv.DefaultStripeSize

// TestReadSlicesSpreadAStripe reads one idle 64 KB stripe of a file
// written to a 4-server R=2 rig: the stripe's two replicas serve one
// request each (the primary the first half, the second replica the
// second), nobody else is asked, the bytes are the ones written, and
// the read ends at a pinned instant: 181.35 µs, where the same read
// from the primary alone took 297.325 µs.
func TestReadSlicesSpreadAStripe(t *testing.T) {
	r := newRigOf(t, 4, 2, false)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterOf(t, p, 10, platform.Desc{Replicas: 2, Stripe: sliceStripe, Window: 4})
		data := pattern(sliceStripe)
		ino := clusterCreate(t, p, cl, "f")
		va, vec := r.kbuf(t, sliceStripe)
		if err := r.client.Kernel.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		if resp, err := cl.Write(p, ino, 0, vec); err != nil || int(resp.N) != sliceStripe {
			t.Fatalf("replicated write: n=%d err=%v", resp.N, err)
		}
		before := make([]int64, len(r.rsrv))
		for i, s := range r.rsrv {
			before[i] = s.Requests.N
		}
		rva, rvec := r.kbuf(t, sliceStripe)
		start := p.Now()
		resp, err := cl.Read(p, ino, 0, rvec)
		took := p.Now() - start
		if err != nil || int(resp.N) != sliceStripe {
			t.Fatalf("read: n=%d err=%v", resp.N, err)
		}
		if got, _ := r.client.Kernel.ReadBytes(rva, sliceStripe); !bytes.Equal(got, data) {
			t.Fatal("sliced read returned wrong bytes")
		}
		for i, s := range r.rsrv {
			want := int64(0)
			if i < 2 { // stripe 0's group: servers 0 and 1
				want = 1
			}
			if got := s.Requests.N - before[i]; got != want {
				t.Errorf("server %d served %d requests of the read, want %d", i, got, want)
			}
		}
		if want := 181350 * sim.Time(1); took != want {
			t.Errorf("idle 64 KB R=2 read took %v, want %v", took, want)
		}
	})
}

// excludeIdle takes server victim out of an idle cluster the way a
// fault does — its NIC dies, a create fanned to every server faults on
// it — then revives the NIC and lets the dead replies' deadlines pass:
// the server is healthy again but stays excluded until Reinstate.
func excludeIdle(t *testing.T, p *sim.Proc, r *clusterRig, cl *rfsrv.Cluster, victim int) {
	t.Helper()
	r.servers[victim].NIC.Kill()
	clusterCreate(t, p, cl, fmt.Sprintf("excluder%d", victim))
	if down := cl.DownServers(); len(down) != 1 || down[0] != victim {
		t.Fatalf("down servers = %v, want [%d]", down, victim)
	}
	r.servers[victim].NIC.Revive()
	p.Sleep(2 * faultTimeout)
}

// TestReadSlicesBalanceAroundAnExclusion excludes server 1 of idle
// 4- and 8-server R=2 rigs and reads every stripe of a two-round file
// once: the excluded server sends nothing, and the N-1 others — one
// chain, from server 2 round to server 0 — each send exactly the pages
// per ring round the chain's cuts give it, plus a reply header per
// request it answers: 22, 21 and 21 of the ring's 64 at N=4 (the even
// cuts put 24 on each neighbour of the victim and 16 on server 3),
// and 19, 18, 18, 18, 19, 18 and 18 of its 128 at N=8.
func TestReadSlicesBalanceAroundAnExclusion(t *testing.T) {
	const rounds, victim = 2, 1
	for _, pages := range [][]int64{
		{22, 0, 21, 21},
		{19, 0, 18, 18, 18, 19, 18, 18},
	} {
		n := len(pages)
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r := newRigOf(t, n, 2, false)
			r.run(t, func(p *sim.Proc) {
				cl := r.clusterOf(t, p, 10, platform.Desc{Replicas: 2, Stripe: sliceStripe, Window: 4, Timeout: faultTimeout})
				size := rounds * n * sliceStripe
				ino := clusterCreate(t, p, cl, "f")
				for off := 0; off < size; off += sliceStripe { // a stripe at a time: well inside the deadline
					elasticWrite(t, p, r, cl, ino, int64(off), pattern(sliceStripe))
				}
				excludeIdle(t, p, r, cl, victim)
				before, answered := make([]int64, n), make([]int64, n)
				for i, node := range r.servers {
					before[i], answered[i] = node.NIC.TxMsgs.Bytes, r.rsrv[i].Requests.N
				}
				_, rvec := r.kbuf(t, sliceStripe)
				for off := 0; off < size; off += sliceStripe {
					if resp, err := cl.Read(p, ino, int64(off), rvec); err != nil || int(resp.N) != sliceStripe {
						t.Fatalf("read at %d: n=%d err=%v", off, resp.N, err)
					}
				}
				for i, node := range r.servers {
					sent := node.NIC.TxMsgs.Bytes - before[i]
					headers := (r.rsrv[i].Requests.N - answered[i]) * rfsrv.ReplyHeaderBytes
					if want := rounds * pages[i] * mem.PageSize; sent-headers != want {
						t.Errorf("N=%d: server %d sent %d bytes of data, want %d (%d pages a round)", n, i, sent-headers, want, pages[i])
					}
				}
				assertWindowsIdle(t, cl)
			})
		})
	}
}

// TestReadSlicesRecutAfterReinstate excludes server 2 of an idle
// 4-server R=2 rig — which moves stripe 0's cut from page 8 to page 10:
// its group is the last link of the chain 3 → 0 → 1 — and readmits it:
// the idle 64 KB read of stripe 0 is again one request per replica and
// ends at TestReadSlicesSpreadAStripe's pinned 181.35 µs, so the slices
// are the even ones again once the exclusion clears.
func TestReadSlicesRecutAfterReinstate(t *testing.T) {
	r := newRigOf(t, 4, 2, false)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterOf(t, p, 10, platform.Desc{Replicas: 2, Stripe: sliceStripe, Window: 4, Timeout: faultTimeout})
		data := pattern(sliceStripe)
		ino := clusterCreate(t, p, cl, "f")
		va, vec := r.kbuf(t, sliceStripe)
		if err := r.client.Kernel.WriteBytes(va, data); err != nil {
			t.Fatal(err)
		}
		if resp, err := cl.Write(p, ino, 0, vec); err != nil || int(resp.N) != sliceStripe {
			t.Fatalf("replicated write: n=%d err=%v", resp.N, err)
		}
		excludeIdle(t, p, r, cl, 2)
		rva, rvec := r.kbuf(t, sliceStripe)
		readStripe := func(what string) sim.Time {
			before := make([]int64, len(r.rsrv))
			for i, s := range r.rsrv {
				before[i] = s.Requests.N
			}
			start := p.Now()
			if resp, err := cl.Read(p, ino, 0, rvec); err != nil || int(resp.N) != sliceStripe {
				t.Fatalf("read %s: n=%d err=%v", what, resp.N, err)
			}
			took := p.Now() - start
			if got, _ := r.client.Kernel.ReadBytes(rva, sliceStripe); !bytes.Equal(got, data) {
				t.Fatalf("read %s returned wrong bytes", what)
			}
			for i, s := range r.rsrv {
				want := int64(0)
				if i < 2 { // stripe 0's group: servers 0 and 1
					want = 1
				}
				if got := s.Requests.N - before[i]; got != want {
					t.Errorf("server %d served %d requests of the read %s, want %d", i, got, what, want)
				}
			}
			return took
		}
		const even = 181350 * sim.Time(1)
		if took := readStripe("with server 2 out"); took == even {
			t.Errorf("idle 64 KB read with server 2 out took %v, the even cut's time: its cut did not move", took)
		}
		if err := cl.Reinstate(p, 2); err != nil {
			t.Fatalf("reinstate: %v", err)
		}
		if took := readStripe("after the readmission"); took != even {
			t.Errorf("idle 64 KB read after the readmission took %v, want %v", took, even)
		}
		assertWindowsIdle(t, cl)
	})
}

// sliceRig is n servers, each serving both transports over its own
// store, and one client node; cluster builds a replicated cluster of
// kernel sessions on it, every session with the reply deadline armed.
type sliceRig struct {
	env     *sim.Engine
	client  *hw.Node
	servers []*hw.Node
	srvs    []*rfsrv.Server
}

func newSliceRig(t *testing.T, n int) *sliceRig {
	t.Helper()
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	r := &sliceRig{env: env, client: c.AddNode("client")}
	for j := 0; j < n; j++ {
		node := c.AddNode(fmt.Sprintf("server%d", j))
		srv := rfsrv.NewServer(node, memfs.New(fmt.Sprintf("backing%d", j), node, 0))
		if _, err := srv.ServeMX(mx.Attach(node), 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.ServeGM(gm.Attach(node), 1); err != nil {
			t.Fatal(err)
		}
		r.servers, r.srvs = append(r.servers, node), append(r.srvs, srv)
	}
	return r
}

// cluster builds the client over transport ("mx" or "gm").
func (r *sliceRig) cluster(t *testing.T, p *sim.Proc, transport string, replicas int) *rfsrv.Cluster {
	t.Helper()
	gmC, mxC := gm.Attach(r.client), mx.Attach(r.client)
	sessions := make([]*rfsrv.Session, len(r.servers))
	for j, n := range r.servers {
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
		if sessions[j], err = rfsrv.NewSession(p, fc, 4); err != nil {
			t.Fatal(err)
		}
		sessions[j].SetRequestTimeout(faultTimeout)
	}
	cl, err := rfsrv.NewReplicatedCluster(p, sessions, sliceStripe, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func (r *sliceRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("test", func(p *sim.Proc) {
		body(p)
		done = true
	})
	r.env.Run(0)
	if !done && !t.Failed() {
		t.Fatal("test body deadlocked")
	}
}

// TestReadSliceFailsOverToThePrimary kills the server of a stripe's
// second read slice while a 64 KB read of it is in flight, on both
// transports: the read still returns every byte, the dead server is
// excluded, the failover moves exactly the second slice's 32 KB, and
// the primary — the group's next alive member — serves it, so it
// answers two requests and no third server is asked.
func TestReadSliceFailsOverToThePrimary(t *testing.T) {
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			r := newSliceRig(t, 3)
			r.run(t, func(p *sim.Proc) {
				cl := r.cluster(t, p, transport, 2)
				data := pattern(sliceStripe)
				resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "f"})
				if err != nil {
					t.Fatal(err)
				}
				ino := resp.Attr.Ino
				kern := r.client.Kernel
				va, vec := r.kbuf(t, sliceStripe)
				if err := kern.WriteBytes(va, data); err != nil {
					t.Fatal(err)
				}
				if resp, err := cl.Write(p, ino, 0, vec); err != nil || int(resp.N) != sliceStripe {
					t.Fatalf("replicated write: n=%d err=%v", resp.N, err)
				}
				before := []int64{r.srvs[0].Requests.N, r.srvs[2].Requests.N}
				rva, rvec := r.kbuf(t, sliceStripe)
				pd, err := cl.StartRead(p, ino, 0, rvec)
				if err != nil {
					t.Fatal(err)
				}
				r.servers[1].NIC.Kill() // stripe 0's second replica: the second slice's server
				if resp, err := pd.Wait(p); err != nil || int(resp.N) != sliceStripe {
					t.Fatalf("read across the kill: n=%d err=%v", resp.N, err)
				}
				if got, _ := kern.ReadBytes(rva, sliceStripe); !bytes.Equal(got, data) {
					t.Fatal("read across the kill returned wrong bytes")
				}
				if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
					t.Fatalf("down servers = %v, want [1]", down)
				}
				if cl.Failovers.N != 1 || cl.Failovers.Bytes != sliceStripe/2 {
					t.Fatalf("failovers %d moving %d bytes, want 1 moving %d", cl.Failovers.N, cl.Failovers.Bytes, sliceStripe/2)
				}
				if got := []int64{r.srvs[0].Requests.N - before[0], r.srvs[2].Requests.N - before[1]}; got[0] != 2 || got[1] != 0 {
					t.Fatalf("the primary served %d requests of the read and server 2 %d, want 2 and 0", got[0], got[1])
				}
				assertWindowsIdle(t, cl)
			})
		})
	}
}

// kbuf maps n kernel bytes on the client and returns (va, vector).
func (r *sliceRig) kbuf(t *testing.T, n int) (vm.VirtAddr, core.Vector) {
	t.Helper()
	kern := r.client.Kernel
	va, err := kern.Mmap(n, "slice-buf")
	if err != nil {
		t.Fatal(err)
	}
	return va, core.Of(core.KernelSeg(kern, va, n))
}
