package sockets

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/vm"
)

const us = time.Microsecond

type rig struct {
	env  *sim.Engine
	p    *hw.Params
	a, b *hw.Node
	sa   Stack
	sb   Stack
}

// newRig builds two nodes with the requested stack family on each.
func newRig(t *testing.T, family string, model hw.LinkModel) *rig {
	t.Helper()
	env := sim.NewEngine()
	p := hw.DefaultParams()
	c := hw.NewCluster(env, p, model)
	r := &rig{env: env, p: p}
	r.a, r.b = c.AddNode("a"), c.AddNode("b")
	var err error
	switch family {
	case "mx":
		if r.sa, err = NewMXStack(mx.Attach(r.a), 7); err != nil {
			t.Fatal(err)
		}
		if r.sb, err = NewMXStack(mx.Attach(r.b), 7); err != nil {
			t.Fatal(err)
		}
	case "gm":
		if r.sa, err = NewGMStack(gm.Attach(r.a), 7); err != nil {
			t.Fatal(err)
		}
		if r.sb, err = NewGMStack(gm.Attach(r.b), 7); err != nil {
			t.Fatal(err)
		}
	case "tcp":
		r.sa, r.sb = NewTCPStack(r.a), NewTCPStack(r.b)
	}
	return r
}

// echoPair establishes a connection: returns via callbacks in procs.
func (r *rig) connect(t *testing.T, serverBody func(p *sim.Proc, c Conn), clientBody func(p *sim.Proc, c Conn)) {
	t.Helper()
	finished := 0
	r.env.Spawn("server", func(p *sim.Proc) {
		l, err := r.sb.Listen(9)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		serverBody(p, c)
		finished++
	})
	r.env.Spawn("client", func(p *sim.Proc) {
		p.Sleep(5 * us)
		c, err := r.sa.Dial(p, int(r.b.ID), 9)
		if err != nil {
			t.Error(err)
			return
		}
		clientBody(p, c)
		finished++
	})
	r.env.Run(0)
	if finished != 2 {
		t.Fatal("connection bodies did not finish (deadlock?)")
	}
}

func mkBuf(t *testing.T, n *hw.Node, size int) (*vm.AddressSpace, vm.VirtAddr) {
	t.Helper()
	as := n.NewUserSpace("app")
	va, err := as.Mmap(size, "buf")
	if err != nil {
		t.Fatal(err)
	}
	return as, va
}

func testEcho(t *testing.T, family string, n int) {
	r := newRig(t, family, hw.PCIXD)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	var got []byte
	r.connect(t,
		func(p *sim.Proc, c Conn) { // server: echo n bytes
			as, va := mkBuf(t, r.b, n+mem.PageSize)
			if _, err := RecvAll(p, c, as, va, n); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Send(p, as, va, n); err != nil {
				t.Error(err)
			}
		},
		func(p *sim.Proc, c Conn) { // client
			as, va := mkBuf(t, r.a, n+mem.PageSize)
			as.WriteBytes(va, data)
			if _, err := c.Send(p, as, va, n); err != nil {
				t.Error(err)
				return
			}
			zero := make([]byte, n)
			as.WriteBytes(va, zero)
			if _, err := RecvAll(p, c, as, va, n); err != nil {
				t.Error(err)
				return
			}
			got, _ = as.ReadBytes(va, n)
			c.Close(p)
		})
	if !bytes.Equal(got, data) {
		t.Fatalf("%s echo of %d bytes corrupted", family, n)
	}
}

func TestEchoAllFamilies(t *testing.T) {
	for _, family := range []string{"mx", "gm", "tcp"} {
		for _, n := range []int{1, 100, 4096, 40000, 200000} {
			t.Run(fmt.Sprintf("%s-%d", family, n), func(t *testing.T) { testEcho(t, family, n) })
		}
	}
}

func TestRecvSmallerThanMessage(t *testing.T) {
	// Stream semantics: a 10KB send read back in 1KB pieces.
	for _, family := range []string{"mx", "gm", "tcp"} {
		t.Run(family, func(t *testing.T) {
			r := newRig(t, family, hw.PCIXD)
			const n = 10240
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i)
			}
			var got []byte
			r.connect(t,
				func(p *sim.Proc, c Conn) {
					as, va := mkBuf(t, r.b, n)
					as.WriteBytes(va, data)
					c.Send(p, as, va, n)
				},
				func(p *sim.Proc, c Conn) {
					as, va := mkBuf(t, r.a, 1024)
					for len(got) < n {
						rn, err := c.Recv(p, as, va, 1024)
						if err != nil {
							t.Error(err)
							return
						}
						if rn == 0 {
							break
						}
						chunk, _ := as.ReadBytes(va, rn)
						got = append(got, chunk...)
					}
				})
			if !bytes.Equal(got, data) {
				t.Fatalf("fragmented recv corrupted (%d bytes)", len(got))
			}
		})
	}
}

func TestCloseGivesEOF(t *testing.T) {
	for _, family := range []string{"mx", "gm", "tcp"} {
		t.Run(family, func(t *testing.T) {
			r := newRig(t, family, hw.PCIXD)
			sawEOF := false
			r.connect(t,
				func(p *sim.Proc, c Conn) {
					as, va := mkBuf(t, r.b, 64)
					n, err := c.Recv(p, as, va, 64)
					if err == nil && n == 0 {
						sawEOF = true
					}
				},
				func(p *sim.Proc, c Conn) {
					c.Close(p)
				})
			if !sawEOF {
				t.Fatal("receiver did not observe EOF after close")
			}
		})
	}
}

func TestDialRefused(t *testing.T) {
	r := newRig(t, "mx", hw.PCIXD)
	r.env.Spawn("client", func(p *sim.Proc) {
		if _, err := r.sa.Dial(p, int(r.b.ID), 42); err == nil {
			t.Error("dial to closed port succeeded")
		}
	})
	r.env.Run(0)
}

// oneWay measures socket ping-pong one-way latency at size n on the
// PCI-XE fabric (§5.3's setup).
func oneWay(t *testing.T, family string, n, iters int) sim.Time {
	t.Helper()
	r := newRig(t, family, hw.PCIXE)
	var elapsed sim.Time
	r.connect(t,
		func(p *sim.Proc, c Conn) {
			as, va := mkBuf(t, r.b, n+mem.PageSize)
			for i := 0; i < iters; i++ {
				if _, err := RecvAll(p, c, as, va, n); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Send(p, as, va, n); err != nil {
					t.Error(err)
					return
				}
			}
		},
		func(p *sim.Proc, c Conn) {
			as, va := mkBuf(t, r.a, n+mem.PageSize)
			p.Sleep(50 * us)
			t0 := p.Now()
			for i := 0; i < iters; i++ {
				if _, err := c.Send(p, as, va, n); err != nil {
					t.Error(err)
					return
				}
				if _, err := RecvAll(p, c, as, va, n); err != nil {
					t.Error(err)
					return
				}
			}
			elapsed = p.Now() - t0
		})
	return elapsed / sim.Time(2*iters)
}

func TestSocketsMXLatencyCalibration(t *testing.T) {
	// §5.3: "a 5 µs one-way latency … with SOCKETS-MX … only a 1 µs
	// overhead over raw MX".
	lat := oneWay(t, "mx", 1, 30)
	if lat < 4500*time.Nanosecond || lat > 5800*time.Nanosecond {
		t.Errorf("SOCKETS-MX 1B one-way = %v, want ≈5µs", lat)
	}
}

func TestSocketsGMLatencyCalibration(t *testing.T) {
	// §5.3: "SOCKETS-GM gets 15 µs one-way latency".
	lat := oneWay(t, "gm", 1, 30)
	if lat < 13*us || lat > 17*us {
		t.Errorf("SOCKETS-GM 1B one-way = %v, want ≈15µs", lat)
	}
}

func TestTCPMuchSlower(t *testing.T) {
	// §5.3: "A common GIGA-ETHERNET network might get much more."
	mxLat := oneWay(t, "mx", 1, 10)
	tcpLat := oneWay(t, "tcp", 1, 10)
	if tcpLat < 4*mxLat {
		t.Errorf("TCP one-way %v not clearly worse than SOCKETS-MX %v", tcpLat, mxLat)
	}
}

func TestSocketsMXBandwidthBeatsGM(t *testing.T) {
	// Fig 8(b): SOCKETS-MX bandwidth is higher everywhere; around
	// +100 % at 4 KB and +50 % at 1 MB.
	for _, n := range []int{4096, 1 << 20} {
		iters := 10
		if n > 100000 {
			iters = 3
		}
		gmLat := oneWay(t, "gm", n, iters)
		mxLat := oneWay(t, "mx", n, iters)
		gmBW := float64(n) / gmLat.Seconds() / 1e6
		mxBW := float64(n) / mxLat.Seconds() / 1e6
		gain := (mxBW - gmBW) / gmBW
		t.Logf("n=%d: SOCKETS-GM %.1f MB/s, SOCKETS-MX %.1f MB/s (gain %.0f%%)", n, gmBW, mxBW, gain*100)
		if gain < 0.25 {
			t.Errorf("n=%d: SOCKETS-MX gain %.0f%% too small (GM %.1f, MX %.1f MB/s)", n, gain*100, gmBW, mxBW)
		}
	}
}

func TestSocketsGMBelow70PercentOfLink(t *testing.T) {
	// §5.4: SOCKETS-GM bandwidth "less than 70 % of the link capacity".
	const n = 1 << 20
	lat := oneWay(t, "gm", n, 3)
	bw := float64(n) / lat.Seconds() / 1e6
	if bw > 0.72*500 {
		t.Errorf("SOCKETS-GM 1MB bandwidth %.1f MB/s exceeds 70%% of the 500 MB/s link", bw)
	}
	if bw < 0.3*500 {
		t.Errorf("SOCKETS-GM 1MB bandwidth %.1f MB/s implausibly low", bw)
	}
}

func TestSocketsMXNearLink(t *testing.T) {
	const n = 1 << 20
	lat := oneWay(t, "mx", n, 3)
	bw := float64(n) / lat.Seconds() / 1e6
	if bw < 0.8*500 {
		t.Errorf("SOCKETS-MX 1MB bandwidth %.1f MB/s too far from the 500 MB/s link", bw)
	}
}

// Property: random message sizes streamed one way arrive intact and in
// order over both Myrinet stacks.
func TestStreamIntegrityProperty(t *testing.T) {
	for _, family := range []string{"mx", "gm"} {
		family := family
		f := func(seed int64) bool {
			ok := false
			r := newRigQuiet(family)
			rng := rand.New(rand.NewSource(seed))
			var sizes []int
			total := 0
			for i := 0; i < 6; i++ {
				n := rng.Intn(60000) + 1
				sizes = append(sizes, n)
				total += n
			}
			sent := make([]byte, total)
			rng.Read(sent)
			var got []byte
			r.env.Spawn("server", func(p *sim.Proc) {
				l, _ := r.sb.Listen(9)
				c, _ := l.Accept(p)
				as := r.b.NewUserSpace("app")
				va, _ := as.Mmap(1<<20, "buf")
				for len(got) < total {
					n, err := c.Recv(p, as, va, 1<<19)
					if err != nil || n == 0 {
						return
					}
					chunk, _ := as.ReadBytes(va, n)
					got = append(got, chunk...)
				}
				ok = bytes.Equal(got, sent)
			})
			r.env.Spawn("client", func(p *sim.Proc) {
				p.Sleep(5 * us)
				c, err := r.sa.Dial(p, int(r.b.ID), 9)
				if err != nil {
					return
				}
				as := r.a.NewUserSpace("app")
				va, _ := as.Mmap(1<<20, "buf")
				off := 0
				for _, n := range sizes {
					as.WriteBytes(va, sent[off:off+n])
					if _, err := c.Send(p, as, va, n); err != nil {
						return
					}
					off += n
				}
			})
			r.env.Run(0)
			return ok
		}
		// Fixed seed: the repo's determinism claim extends to test inputs
		// (Go >= 1.20 auto-seeds the global source otherwise).
		if err := quick.Check(f, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(11))}); err != nil {
			t.Fatalf("%s: %v", family, err)
		}
	}
}

func newRigQuiet(family string) *rig {
	env := sim.NewEngine()
	p := hw.DefaultParams()
	c := hw.NewCluster(env, p, hw.PCIXD)
	r := &rig{env: env, p: p}
	r.a, r.b = c.AddNode("a"), c.AddNode("b")
	switch family {
	case "mx":
		r.sa, _ = NewMXStack(mx.Attach(r.a), 7)
		r.sb, _ = NewMXStack(mx.Attach(r.b), 7)
	case "gm":
		r.sa, _ = NewGMStack(gm.Attach(r.a), 7)
		r.sb, _ = NewGMStack(gm.Attach(r.b), 7)
	}
	return r
}

// TestCloseRaceDoesNotLeakPoolBuffers: a Recv blocked when the peer
// closes used to poison its bounce buffer (the receive posted for data
// could still scatter after release), permanently leaking one pooled
// buffer per raced connection. The drivers now cancel the stale
// posted receive, so after both ends close, the node's pool must be
// fully recyclable.
func TestCloseRaceDoesNotLeakPoolBuffers(t *testing.T) {
	for _, family := range []string{"mx", "gm"} {
		t.Run(family, func(t *testing.T) {
			r := newRig(t, family, hw.PCIXD)
			r.connect(t,
				func(p *sim.Proc, c Conn) {
					as, va := mkBuf(t, r.b, 64)
					// Blocks until the peer's FIN arrives (EOF race).
					if n, err := c.Recv(p, as, va, 64); err != nil || n != 0 {
						t.Errorf("recv: %d %v", n, err)
					}
					c.Close(p)
				},
				func(p *sim.Proc, c Conn) {
					p.Sleep(200 * us)
					c.Close(p)
				})
			for _, node := range []*hw.Node{r.a, r.b} {
				pool := fabric.PoolOf(node)
				if err := pool.CheckLeaks(); err != nil {
					t.Errorf("%s side: %v", node.Name, err)
				}
			}
		})
	}
}
