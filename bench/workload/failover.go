package workload

// failover: 6 clients, 4 servers, R = 2, window 4, reply deadlines
// armed, synchronous stripe reads with one overwrite in six. The reply
// deadline is calibrated the way figures.Degraded does it — 2.5x the
// worst latency of a fault-free run of the same stream. At about 2/5
// of the fault-free makespan (seed-jittered) one non-home server's NIC
// is killed; it stays dark for a quarter of the makespan, is revived,
// and two deadlines later every client reinstates it by replaying its
// resync journal (limits sized so nothing spills to the zero-cost bulk
// channel; no resync peers are wired, so a spill would show as a
// refusal). Deadlines, cancel, exclusion, replica failover, journal
// and replay run nowhere else, and this is the one workload whose
// failed_ops_share can move.
//
// Every read is compared with a byte model of the client's file. After
// the window each file is read back through the cluster and diffed
// against a reference memfs replay, and both replicas of every stripe
// are compared byte for byte on the servers — which proves the journal
// replay brought the returning server up to date.

import (
	"bytes"
	"fmt"

	"repro/bench/trace"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

const (
	foClients      = 6
	foServers      = 4
	foReplicas     = 2
	foWindow       = 4
	foStripes      = 12 // per client file
	foOpsPerClient = 400
	foWriteEvery   = 6
	foJournalOps   = 1 << 16
	foJournalBytes = 256 << 20
)

// foOp is one generated operation: a stripe read, or an overwrite of
// the stripe with a tape window.
type foOp struct {
	stripe  int
	write   bool
	tapeOff int
}

type failoverPlan struct {
	cfg     Config
	tape    tape
	ops     [foClients][]foOp
	content [foClients][]byte
	victim  int
	jitter  float64 // kill instant = (0.4 + jitter) x fault-free makespan

	// From the fault-free calibration run of the same streams.
	timeout  sim.Time
	makespan sim.Time
}

func newFailover(cfg Config) Plan {
	pl := &failoverPlan{cfg: cfg, tape: newTape(cfg.Seed, csStripe)}
	n := cfg.scaled(foOpsPerClient, 48)
	rng := rngFor(cfg.Seed, "failover", 0)
	pl.victim = 1 + rng.Intn(foServers-1) // never slot 0, the minting home
	pl.jitter = (rng.Float64() - 0.5) * 0.04
	for c := range pl.ops {
		pl.content[c] = make([]byte, foStripes*csStripe)
		pl.tape.fillFile(pl.content[c], c)
		crng := rngFor(cfg.Seed, "failover-client", c)
		pl.ops[c] = make([]foOp, n)
		for i := range pl.ops[c] {
			pl.ops[c][i] = foOp{stripe: crng.Intn(foStripes), write: i%foWriteEvery == foWriteEvery-1,
				tapeOff: crng.Intn(tapeSlack)}
		}
	}
	return pl
}

// foState is what the controller and the clients share in one rig
// (cooperative scheduling: plain fields).
type foState struct {
	heal             bool
	start            sim.Time // first instant of the measured window
	killAt, reviveAt sim.Time
	controllerDone   bool
	writing          int      // overwrites currently inside Cluster.Write
	lastFaulted      sim.Time // completion of the last op that saw a fault
	maxLat           sim.Time
	samples          []foSample
}

type foSample struct {
	at    sim.Time
	bytes int
}

// foClient is one client's view of the rig: its cluster, its file on
// the servers and in the reference store, and the byte model of it.
type foClient struct {
	idx       int
	cl        *rfsrv.Cluster
	ino       kernel.InodeID
	oracleIno kernel.InodeID
	model     []byte
	buf       core.Vector // one stripe of kernel staging
	scratch   []byte
}

// calibrate runs the streams fault-free without deadlines and derives
// the reply deadline and the makespan the kill is placed against.
func (pl *failoverPlan) calibrate() error {
	if pl.timeout > 0 {
		return nil
	}
	r := newRun(Config{Seed: pl.cfg.Seed, Scale: pl.cfg.Scale}, nil, 0)
	st, err := pl.runRig(r, 0)
	if err != nil {
		return fmt.Errorf("fault-free calibration: %w", err)
	}
	if len(r.out.Errors) > 0 {
		return fmt.Errorf("fault-free calibration: %s", r.out.Errors[0])
	}
	pl.timeout = st.maxLat * 5 / 2
	pl.makespan = r.out.Window
	return nil
}

// Run implements Plan.
func (pl *failoverPlan) Run(tr *trace.Recorder) (*Outcome, error) {
	if err := pl.calibrate(); err != nil {
		return nil, fmt.Errorf("failover: %w", err)
	}
	r := newRun(pl.cfg, tr, foClients*len(pl.ops[0]))
	st, err := pl.runRig(r, pl.timeout)
	if err != nil {
		return nil, fmt.Errorf("failover: %w", err)
	}
	r.expectOps(foClients * len(pl.ops[0]))
	if st.lastFaulted > st.killAt {
		r.out.E2E["sim_recovery_ms"] = float64(st.lastFaulted-st.killAt) / 1e6
	} else {
		r.fail("no operation observed the fault: the kill at %v missed the run", st.killAt)
	}
	var pre, post int64
	settle := st.killAt + pl.timeout
	for _, s := range st.samples {
		switch {
		case s.at < st.killAt:
			pre += int64(s.bytes)
		case s.at >= settle && s.at < st.reviveAt:
			post += int64(s.bytes)
		}
	}
	if preRate := mbps(pre, st.killAt-st.start); preRate > 0 && st.reviveAt > settle {
		r.out.E2E["sim_degraded_ratio"] = mbps(post, st.reviveAt-settle) / preRate
	} else {
		r.fail("degraded window is empty: kill %v, settle %v, revive %v", st.killAt, settle, st.reviveAt)
	}
	return r.finish(), nil
}

// runRig builds a rig and runs the streams once. timeout == 0 is the
// calibration: no deadlines, no fault.
func (pl *failoverPlan) runRig(r *run, timeout sim.Time) (*foState, error) {
	var rg *clusterRig
	var oracle *memfs.FS
	var inos, oracleInos [foClients]kernel.InodeID
	models := make([][]byte, foClients)
	err := r.setup(func() (err error) {
		if rg, err = newClusterRig(foServers, nil); err != nil {
			return err
		}
		oracle = memfs.New("oracle", rg.hwc.AddNode("oracle"), 0)
		return runProc(rg.env, "setup", func(p *sim.Proc) error {
			for c := range inos {
				name := fmt.Sprintf("f%d", c)
				if inos[c], err = rg.seedStriped(p, name, pl.content[c], foReplicas); err != nil {
					return err
				}
				attr, err := oracle.Create(p, oracle.Root(), name)
				if err != nil {
					return err
				}
				if err := oracle.WriteAt(attr.Ino, 0, pl.content[c]); err != nil {
					return err
				}
				oracleInos[c] = attr.Ino
				models[c] = append([]byte(nil), pl.content[c]...)
			}
			for c := 0; c < foClients; c++ {
				cl, err := rg.addClient(p, foWindow, foReplicas, timeout)
				if err != nil {
					return err
				}
				cl.SetJournalLimits(foJournalOps, foJournalBytes)
			}
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	idle := rg.env.Stranded()
	st := &foState{controllerDone: timeout == 0}
	reads, writes := 0, 0
	_, _, err = r.probedWindow(rg.env, rg.hwc, rg.clientNodes, rg.serverNodes, func() (sim.Time, error) {
		st.start = rg.env.Now()
		if timeout > 0 {
			rg.env.Spawn("controller", func(p *sim.Proc) { pl.controller(p, rg, st) })
		}
		return runProcs(rg.env, "client", foClients, func(p *sim.Proc, c int) error {
			cl := rg.clusters[c]
			va, err := cl.Node().Kernel.Mmap(csStripe, "failover-buf")
			if err != nil {
				return err
			}
			fc := &foClient{idx: c, cl: cl, ino: inos[c], oracleIno: oracleInos[c], model: models[c],
				buf: core.Of(core.KernelSeg(cl.Node().Kernel, va, csStripe)), scratch: make([]byte, csStripe)}
			for i := range pl.ops[c] {
				if st.heal {
					reinstateAll(p, cl)
				}
				o := &pl.ops[c][i]
				if o.write {
					writes++
				} else {
					reads++
				}
				pl.exec(p, r, rg, oracle, st, fc, o)
			}
			// A stream too short to outlast the fault schedule (smoke
			// scales only) waits for it, so the heal is always exercised.
			for !st.controllerDone {
				p.Sleep(10 * 1000)
			}
			if st.heal {
				reinstateAll(p, cl)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	r.clusterCounters(rg, r.out.Ops, reads, writes)
	if timeout > 0 {
		pl.endState(r, rg, oracle, inos, oracleInos, models)
		for c, cl := range rg.clusters {
			for s := 0; s < foServers; s++ {
				if cl.JournalSpilled(s) {
					r.fail("client %d: the resync journal for server %d spilled", c, s)
				}
			}
			if cl.ResyncSpills.N != 0 {
				r.fail("client %d: %d resync journals spilled to the bulk channel", c, cl.ResyncSpills.N)
			}
		}
	}
	r.hygiene(rg.env, rg.hwc, idle)
	release(rg.env, rg.hwc, append(rg.serverFS, oracle), append(inos[:], oracleInos[:]...), rg.endpoints())
	return st, nil
}

// controller injects the fault: kill, dwell, revive, then — two
// deadlines later, when every flight lost to the kill has expired and
// late frames have drained — let the clients reinstate.
func (pl *failoverPlan) controller(p *sim.Proc, rg *clusterRig, st *foState) {
	p.Sleep(sim.Time(float64(pl.makespan) * (0.4 + pl.jitter)))
	// A kill that lands while a client's 64 KB overwrite is mid-
	// rendezvous into the victim leaves the victim's single MX receive
	// dispatcher waiting for data frames that were dropped — it has no
	// deadline of its own, so the server never answers again and no
	// reinstate can succeed. That is a liveness hole in the program, not
	// a workload: wait (microseconds) for an instant with no overwrite
	// in flight, so that no operation of the run is doomed.
	for st.writing > 0 {
		p.Sleep(1000)
	}
	st.killAt = p.Now()
	nic := rg.serverNodes[pl.victim].NIC
	nic.Kill()
	p.Sleep(pl.makespan / 4)
	nic.Revive()
	st.reviveAt = p.Now()
	p.Sleep(2 * pl.timeout)
	st.heal = true
	st.controllerDone = true
}

// reinstateAll re-admits every server this client excluded. A replay
// interrupted by a residual timeout keeps its journal and is retried
// before the next operation.
func reinstateAll(p *sim.Proc, cl *rfsrv.Cluster) {
	for _, s := range cl.DownServers() {
		if err := cl.Reinstate(p, s); err != nil {
			return
		}
	}
}

// exec runs one stripe read or overwrite and checks it.
func (pl *failoverPlan) exec(p *sim.Proc, r *run, rg *clusterRig, oracle *memfs.FS, st *foState, fc *foClient, o *foOp) {
	c, cl, ino, buf := fc.idx, fc.cl, fc.ino, fc.buf
	off := int64(o.stripe) * csStripe
	stripe := fc.model[off : off+csStripe]
	faults := cl.Failovers.N + cl.Excluded.N
	class := Read
	var err error
	if o.write {
		class = Write
		data := pl.tape.window(o.tapeOff, csStripe)
		copy(stripe, data)
		if err := oracle.WriteAt(fc.oracleIno, off, data); err != nil {
			r.fail("reference replay: %v", err)
		}
		if r.skipNext() {
			return
		}
		if err = setVecBytes(cl.Node(), buf, data); err != nil {
			r.fail("client %d: %v", c, err)
			return
		}
	} else {
		if r.skipNext() {
			return
		}
		if r.corruptNext() {
			for k := 0; k < foReplicas; k++ {
				fs := rg.serverFS[(cl.OwnerServer(off)+k)%foServers]
				if werr := fs.WriteAt(ino, off, []byte{^stripe[0]}); werr != nil {
					r.fail("client %d: %v", c, werr)
				}
			}
		}
	}
	op := r.begin(p, class, c)
	var resp *rfsrv.Resp
	if o.write {
		st.writing++
		resp, err = cl.Write(p, ino, off, buf)
		st.writing--
	} else {
		resp, err = cl.Read(p, ino, off, buf)
	}
	if err == nil && int(resp.N) != csStripe {
		err = fmt.Errorf("short transfer: %d of %d bytes of stripe %d", resp.N, csStripe, o.stripe)
	}
	if err == nil && !o.write {
		var got []byte
		if got, err = vecBytes(cl.Node(), buf, csStripe, fc.scratch); err == nil && !bytes.Equal(got, stripe) {
			err = fmt.Errorf("stripe %d of client %d differs from the model at byte %d", o.stripe, c, firstDiff(got, stripe))
		}
	}
	now := p.Now()
	if lat := now - op.start; lat > st.maxLat {
		st.maxLat = lat
	}
	if fabric.IsFault(err) || cl.Failovers.N+cl.Excluded.N != faults {
		if now > st.lastFaulted {
			st.lastFaulted = now
		}
	}
	if err == nil {
		st.samples = append(st.samples, foSample{at: now, bytes: csStripe})
	}
	r.end(p, op, class, csStripe, err)
}

// endState reinstates whatever is still excluded, then diffs every
// file against the reference replay and every stripe replica against
// the model.
func (pl *failoverPlan) endState(r *run, rg *clusterRig, oracle *memfs.FS, inos, oracleInos [foClients]kernel.InodeID, models [][]byte) {
	err := runProc(rg.env, "end-state", func(p *sim.Proc) error {
		for c, cl := range rg.clusters {
			reinstateAll(p, cl)
			if down := cl.DownServers(); len(down) > 0 {
				r.fail("end state: client %d still excludes servers %v after the heal", c, down)
			}
			want, err := oracle.ContentOf(oracleInos[c])
			if err != nil {
				return err
			}
			if !bytes.Equal(want, models[c]) {
				r.fail("end state: the reference replay of f%d differs from the run-time model", c)
			}
			va, err := cl.Node().Kernel.Mmap(len(want), "end-state")
			if err != nil {
				return err
			}
			vec := core.Of(core.KernelSeg(cl.Node().Kernel, va, len(want)))
			var got []byte
			resp, err := cl.Read(p, inos[c], 0, vec)
			if err == nil {
				got, err = vecBytes(cl.Node(), vec, int(resp.N), nil)
			}
			if err != nil || !bytes.Equal(got, want) {
				r.fail("end state: f%d reads back %d bytes (err %v), the reference replay holds %d (first difference at %d)",
					c, len(got), err, len(want), firstDiff(got, want))
			}
		}
		return nil
	})
	if err != nil {
		r.fail("end state: %v", err)
	}
	for c, cl := range rg.clusters {
		for k := 0; k < foStripes; k++ {
			off := int64(k) * csStripe
			want := models[c][off : off+csStripe]
			for rep := 0; rep < foReplicas; rep++ {
				j := (cl.OwnerServer(off) + rep) % foServers
				if got := rg.serverFS[j].ReadRange(inos[c], off, csStripe); !bytes.Equal(got, want) {
					r.fail("replica audit: stripe %d of f%d on server %d differs from the model at byte %d",
						k, c, j, firstDiff(got, want))
				}
			}
		}
		r.auditSizes(rg, fmt.Sprintf("f%d", c), inos[c], int64(len(models[c])))
	}
}
