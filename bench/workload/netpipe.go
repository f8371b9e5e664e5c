package workload

// netpipe: two nodes, a fabric.Transport ping-pong over a GM kernel
// pair and then an MX kernel (physical) pair. sim, hw, gm, mx and
// fabric do all the work here and rfsrv, kernel and orfs none. 90 % of
// the sizes are log-uniform on 1 B..4 KB, where per-message cost sets
// the median; 10 % are log-uniform on 32 KB..1 MB, where copies,
// rendezvous and DMA set the p99 and the MB/s. Every echoed message is
// compared byte for byte with what was sent.
//
// After the measured window the same rig measures the paper's numeric
// anchors the way cmd/figures does (2 warm-up + 10 timed round trips
// at 1 byte; 2 + 2 at 1 MB): the four 1-byte latencies of Fig 5(a)
// and the 1 MB bandwidths of Fig 5(b).

import (
	"bytes"
	"fmt"
	"math"

	"repro/bench/trace"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/vm"
)

const (
	npRoundTrips = 4000 // per transport
	npMax        = 1 << 20
	npTag        = 1
)

// addrMode is how a ping-pong end addresses its buffer.
type addrMode int

const (
	userBuf   addrMode = iota // user-virtual, registered where needed
	kernelBuf                 // kernel-virtual
	physBuf                   // page-cache-style physical frames
)

// npEnd is one side of a ping-pong: a max-size buffer in one
// addressing mode on a fabric transport.
type npEnd struct {
	t      fabric.Transport
	node   *hw.Node
	peer   hw.NodeID
	peerEP uint8
	vec    core.Vector
	eager  bool
	user   *vm.AddressSpace // the buffer's own address space (userBuf)
	frames []*mem.Frame     // the buffer's own frames (physBuf)
}

// newNPEnd allocates the buffer (registering it where the transport
// needs registration) — the same construction cmd/figures uses for
// its raw GM and MX curves.
func newNPEnd(p *sim.Proc, t fabric.Transport, mode addrMode, contiguous bool, peer hw.NodeID, peerEP uint8, max int) (*npEnd, error) {
	e := &npEnd{t: t, node: t.Node(), peer: peer, peerEP: peerEP, eager: t.Caps().EagerSend}
	needReg := t.Caps().NeedsReg
	switch mode {
	case userBuf, kernelBuf:
		as := e.node.Kernel
		if mode == userBuf {
			as = e.node.NewUserSpace("netpipe")
			e.user = as
		}
		alloc := as.Mmap
		if mode == kernelBuf && contiguous {
			alloc = as.MmapContig
		}
		va, err := alloc(max, "buf")
		if err != nil {
			return nil, err
		}
		if needReg {
			if err := t.Register(p, as, va, max); err != nil {
				return nil, err
			}
		}
		if mode == userBuf {
			e.vec = core.Of(core.UserSeg(as, va, max))
		} else {
			e.vec = core.Of(core.KernelSeg(as, va, max))
		}
	case physBuf:
		for i := 0; i < (max+mem.PageSize-1)/mem.PageSize; i++ {
			f, err := e.node.Mem.AllocFrame()
			if err != nil {
				return nil, err
			}
			e.frames = append(e.frames, f)
			e.vec = append(e.vec, core.PhysSeg(f.Addr(), mem.PageSize))
		}
	}
	return e, nil
}

// free closes the transport (dropping its registrations) and returns
// the buffer's memory.
func (e *npEnd) free(p *sim.Proc) {
	_ = e.t.Close(p) // best effort: the rig is being discarded
	for _, f := range e.frames {
		e.node.Mem.Put(f)
	}
	if e.user != nil {
		e.user.Destroy()
	}
}

func (e *npEnd) send(p *sim.Proc, n int) error {
	op, err := e.t.Send(p, e.peer, e.peerEP, npTag, e.vec.Slice(0, n))
	if err != nil || e.eager {
		return err
	}
	return op.Wait(p).Err
}

func (e *npEnd) recv(p *sim.Proc, n int) error {
	op, err := e.t.PostRecv(p, core.Exact(npTag), e.vec.Slice(0, n))
	if err != nil {
		return err
	}
	st := op.Wait(p)
	if st.Err == nil && st.Len != n {
		return fmt.Errorf("received %d bytes, want %d", st.Len, n)
	}
	return st.Err
}

// npPair is both ends of one transport pair.
type npPair struct{ a, b *npEnd }

type netpipePlan struct {
	cfg   Config
	tape  tape
	sizes [2][]int // per transport (GM, MX), in issue order
	offs  [2][]int // tape window start per round trip
}

func newNetpipe(cfg Config) Plan {
	pl := &netpipePlan{cfg: cfg, tape: newTape(cfg.Seed, npMax)}
	n := cfg.scaled(npRoundTrips, 40)
	large := n / 10
	for t := 0; t < 2; t++ {
		rng := rngFor(cfg.Seed, "netpipe-sizes", t)
		sizes := append(logUniformDraws(rng, n-large, 1, 4096), logUniform(rng, large, 32<<10, npMax)...)
		shuffle(rng, sizes)
		pl.sizes[t] = sizes
		pl.offs[t] = make([]int, n)
		for i := range pl.offs[t] {
			pl.offs[t][i] = rng.Intn(tapeSlack)
		}
	}
	return pl
}

// npRig is the two-node rig with every pair the window and the anchors
// need.
type npRig struct {
	env  *sim.Engine
	hwc  *hw.Cluster
	a, b *hw.Node

	gmKernel, mxPhys         npPair // the measured pairs
	gmUser, mxUser, mxKernel npPair // anchor-only pairs
	gmPorts                  []*gm.Port
	mxEPs                    []*mx.Endpoint
}

func (pl *netpipePlan) build() (*npRig, error) {
	rg := &npRig{}
	rg.env, rg.hwc = newCluster()
	rg.a, rg.b = rg.hwc.AddNode("a"), rg.hwc.AddNode("b")
	ga, gb := gm.Attach(rg.a), gm.Attach(rg.b)
	ma, mb := mx.Attach(rg.a), mx.Attach(rg.b)
	err := runProc(rg.env, "setup", func(p *sim.Proc) error {
		// pair opens endpoint ep on both nodes with open (side 0 is a)
		// and gives each side a max-size buffer in the given mode.
		pair := func(open func(side int) (fabric.Transport, error), ep uint8, mode addrMode, contiguous bool, max int) (pr npPair, err error) {
			var ends [2]*npEnd
			for side, peer := range []hw.NodeID{rg.b.ID, rg.a.ID} {
				t, err := open(side)
				if err != nil {
					return pr, err
				}
				if ends[side], err = newNPEnd(p, t, mode, contiguous, peer, ep, max); err != nil {
					return pr, err
				}
			}
			return npPair{ends[0], ends[1]}, nil
		}
		gms, mxs := []*gm.GM{ga, gb}, []*mx.MX{ma, mb}
		gmPair := func(port uint8, mode addrMode, max int) (npPair, error) {
			return pair(func(side int) (fabric.Transport, error) {
				t, err := fabric.NewGM(gms[side], port, mode != userBuf, fabric.WithPolling())
				if err == nil {
					rg.gmPorts = append(rg.gmPorts, t.Port())
				}
				return t, err
			}, port, mode, false, max)
		}
		mxPair := func(ep uint8, mode addrMode, contiguous bool, max int) (npPair, error) {
			return pair(func(side int) (fabric.Transport, error) {
				t, err := fabric.NewMX(mxs[side], ep, mode != userBuf)
				if err == nil {
					rg.mxEPs = append(rg.mxEPs, t.Endpoint())
				}
				return t, err
			}, ep, mode, contiguous, max)
		}
		var err error
		if rg.gmKernel, err = gmPair(1, kernelBuf, npMax); err != nil {
			return err
		}
		if rg.gmUser, err = gmPair(2, userBuf, npMax); err != nil {
			return err
		}
		if rg.mxPhys, err = mxPair(1, physBuf, false, npMax); err != nil {
			return err
		}
		if rg.mxUser, err = mxPair(2, userBuf, false, npMax); err != nil {
			return err
		}
		rg.mxKernel, err = mxPair(3, kernelBuf, true, 8192)
		return err
	})
	return rg, err
}

// Run implements Plan.
func (pl *netpipePlan) Run(tr *trace.Recorder) (*Outcome, error) {
	r := newRun(pl.cfg, tr, 2*len(pl.sizes[0]))
	var rg *npRig
	if err := r.setup(func() (err error) { rg, err = pl.build(); return }); err != nil {
		return nil, fmt.Errorf("netpipe: setup: %w", err)
	}
	idle := rg.env.Stranded()
	nodes := []*hw.Node{rg.a, rg.b}
	planned := 0
	for t, pair := range []npPair{rg.gmKernel, rg.mxPhys} {
		gmSends, mxSends := rg.sends()
		ops, _, err := r.probedWindow(rg.env, rg.hwc, nodes[:1], nodes[1:], func() (sim.Time, error) { return pl.window(r, pair, t) })
		if err != nil {
			return nil, fmt.Errorf("netpipe: %w", err)
		}
		planned += len(pl.sizes[t])
		g1, m1 := rg.sends()
		r.acc.ratio("gm.sends_per_op", float64(g1-gmSends), float64(ops))
		r.acc.ratio("mx.sends_per_op", float64(m1-mxSends), float64(ops))
	}
	r.expectOps(planned)
	if err := pl.anchors(r, rg); err != nil {
		return nil, fmt.Errorf("netpipe: anchors: %w", err)
	}
	var drops int64
	for _, pt := range rg.gmPorts {
		drops += pt.DirectedDrops.N
	}
	r.acc.count("gm.directed_drops", float64(drops))
	r.hygiene(rg.env, rg.hwc, idle)
	err := runProc(rg.env, "teardown", func(p *sim.Proc) error {
		for _, pair := range []npPair{rg.gmKernel, rg.gmUser, rg.mxPhys, rg.mxUser, rg.mxKernel} {
			pair.a.free(p)
			pair.b.free(p)
		}
		return nil
	})
	release(rg.env, rg.hwc, nil, nil, rg.mxEPs)
	return r.finish(), err
}

// sends sums the GM port and MX endpoint send counters of the rig.
func (rg *npRig) sends() (gmSends, mxSends int64) {
	for _, pt := range rg.gmPorts {
		gmSends += pt.Sends.N
	}
	for _, ep := range rg.mxEPs {
		mxSends += ep.Sends.N
	}
	return
}

// window runs the measured round trips of transport t over pair. Both
// sides follow the generated size schedule, as NETPIPE's do.
func (pl *netpipePlan) window(r *run, pair npPair, t int) (sim.Time, error) {
	sizes, offs := pl.sizes[t], pl.offs[t]
	base := r.seq
	scratch := make([]byte, 0, npMax)
	return runProcs(pair.a.node.Cluster.Env, "netpipe", 2, func(p *sim.Proc, side int) error {
		if side == 1 { // responder: receive, echo
			for i, n := range sizes {
				seq := base + i + 1
				if r.cfg.Fault.DropOp == seq {
					continue
				}
				if err := pair.b.recv(p, n); err != nil {
					return err
				}
				if c := r.cfg.Fault.CorruptOp; c > 0 && seq >= c && !r.corrupted {
					r.corrupted = true
					flipByte(pair.b.node, pair.b.vec)
				}
				if err := pair.b.send(p, n); err != nil {
					return err
				}
			}
			return nil
		}
		p.Sleep(10 * 1000) // let the responder post first, as the figures do
		for i, n := range sizes {
			if r.skipNext() {
				continue
			}
			want := pl.tape.window(offs[i], n)
			if err := setVecBytes(pair.a.node, pair.a.vec, want); err != nil {
				return err
			}
			o := r.begin(p, Write, 0)
			err := pair.a.send(p, n)
			if err == nil {
				err = pair.a.recv(p, n)
			}
			if err == nil {
				var got []byte
				if got, err = vecBytes(pair.a.node, pair.a.vec, n, scratch); err == nil && !bytes.Equal(got, want) {
					err = fmt.Errorf("echo of %d bytes differs from what was sent at byte %d", n, firstDiff(got, want))
				}
			}
			r.end(p, o, Write, 2*n, err)
		}
		return nil
	})
}

// flipByte corrupts the first byte a vector addresses.
func flipByte(node *hw.Node, v core.Vector) {
	b, err := vecBytes(node, v, 1, nil)
	if err != nil {
		return
	}
	b[0] ^= 0xff
	_ = setVecBytes(node, v, b) // same vector just resolved
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// pingpong is the figures' measurement: warm-up then iters timed round
// trips of n bytes; it returns the mean one-way latency.
func pingpong(env *sim.Engine, pair npPair, n, warmup, iters int) (sim.Time, error) {
	var oneWay sim.Time
	_, err := runProcs(env, "anchor", 2, func(p *sim.Proc, side int) error {
		if side == 1 {
			for i := 0; i < warmup+iters; i++ {
				if err := pair.b.recv(p, n); err != nil {
					return err
				}
				if err := pair.b.send(p, n); err != nil {
					return err
				}
			}
			return nil
		}
		p.Sleep(10 * 1000)
		var t0 sim.Time
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				t0 = p.Now()
			}
			if err := pair.a.send(p, n); err != nil {
				return err
			}
			if err := pair.a.recv(p, n); err != nil {
				return err
			}
		}
		oneWay = (p.Now() - t0) / sim.Time(iters) / 2
		return nil
	})
	return oneWay, err
}

// Paper anchors (EXPERIMENTS.md "Paper says"): Fig 5(a) 1-byte one-way
// latencies and Fig 5(b) bandwidth at 1 MB.
const (
	paperGMUserUs   = 6.7
	paperGMKernelUs = 6.7 + 2
	paperMXUs       = 4.2
	paperMBps1M     = 245.0
)

func us(d sim.Time) float64 { return float64(d) / 1e3 }

func mbps(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

// relErr returns |measured-paper|/paper in percent.
func relErr(measured, paper float64) float64 { return math.Abs(measured-paper) / paper * 100 }

// anchors measures the paper's numeric anchors in the same rig and
// folds them into paper_err_pct and the gm/mx anchor metrics.
func (pl *netpipePlan) anchors(r *run, rg *npRig) error {
	lat := func(pair npPair) (float64, error) {
		d, err := pingpong(rg.env, pair, 1, 2, 10)
		return us(d), err
	}
	bw := func(pair npPair) (float64, error) {
		d, err := pingpong(rg.env, pair, npMax, 2, 2)
		return mbps(npMax, d), err
	}
	type anchor struct {
		measure func(npPair) (float64, error)
		pair    npPair
		paper   float64
		metric  string
	}
	var sum float64
	list := []anchor{
		{lat, rg.gmUser, paperGMUserUs, ""},
		{lat, rg.gmKernel, paperGMKernelUs, "gm.lat_1b_us"},
		{lat, rg.mxUser, paperMXUs, ""},
		{lat, rg.mxKernel, paperMXUs, "mx.lat_1b_us"},
		{bw, rg.gmUser, paperMBps1M, "gm.mbps_1m"},
		{bw, rg.mxUser, paperMBps1M, ""},
		{bw, rg.mxPhys, paperMBps1M, "mx.mbps_1m"},
	}
	for _, a := range list {
		v, err := a.measure(a.pair)
		if err != nil {
			return err
		}
		sum += relErr(v, a.paper)
		if a.metric != "" {
			r.acc.count(a.metric, v)
		}
	}
	r.out.E2E["paper_err_pct"] = sum / float64(len(list))
	return nil
}
