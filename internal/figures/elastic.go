package figures

// This file holds the elastic-membership suite (DESIGN.md §13): one
// run that walks the full lifecycle the elastic layer promises —
// healthy traffic, a mid-run server kill, degraded operation, heal,
// journaled-replay re-admission (Reinstate replays what each client's
// journal recorded instead of refusing), and finally a live Join that
// expands the cluster from N to N+1 under load — while measuring
// aggregate client throughput in every phase.
//
// The setup is the degraded suite's replicated unsharded cluster with
// a membership view layered on: an operator cluster on its own node
// publishes a shared MemberView (initial members = the first N of N+1
// sessions; the last slot stands by), every client attaches to it, and
// the reply deadline is calibrated from a fault-free baseline exactly
// like the degraded suite. Clients stream synchronous stripe reads
// with periodic overwrites mixed in, so the exclusion window leaves
// real dirty data in the journals and Reinstate has bytes to replay.
// Synchronous ops are deliberate: a client blocked at the membership
// fence cannot retire pipelined pendings, so a Start/Wait pipeline
// against a fencing view must drain before blocking — the simple
// always-drained shape is the one the suite measures.
//
// The acceptance number is the last row: post-expansion throughput
// (N+1 servers, fresh epoch, stripes re-placed) at or above 0.9x the
// pre-kill rate — growing the cluster must not cost the steady state.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

const (
	// elServers is the total session count: elActive initial members
	// plus one standby slot the Join admits.
	elServers = 4
	// elActive is the initial membership width.
	elActive = 3
	// elJoiner is the standby session slot Join admits mid-run.
	elJoiner = 3
	// elVictim is the member slot the schedule kills, heals and
	// re-admits. Slot 1: a member, never the minting home (slot 0), so
	// the kill exercises failover and journaling, not namespace loss.
	elVictim = 1
	// elReplicas is the replication factor: 2 survives the kill.
	elReplicas = 2
	// elWindow is the per-server session window.
	elWindow = 4
	// elClients is the streaming client count.
	elClients = 6
	// elStripes is each client's file length in stripes: enough that
	// reads sweep the whole placement ring every few iterations.
	elStripes = 12
	// elWriteEvery mixes one stripe overwrite into every so many
	// reads, so an excluded server accumulates journaled dirty data.
	elWriteEvery = 6
)

// The schedule. The two steady-state phases are counted in reads:
// traffic runs healthy for elPhaseReads reads, the victim is dark
// elDwellDur, clients heal two deadlines after the revive, the Join
// runs once every client is clean, and the run ends elPhaseReads reads
// after the cutover. The pre-kill and post-expansion rows measure
// exactly those reads, however long they take — a fixed window of a
// few milliseconds holds only ≈ 20 reads, so its row moved with where
// the window's edges fell among them rather than with the geometry.
const (
	elPhaseReads = 200
	elDwellDur   = 1 * sim.Time(1e6) // 1ms
	// elPoll is how often the controller checks the read count.
	elPoll = 10 * sim.Time(1e3) // 10µs
	// elPhaseCap bounds a counted phase: clients that stopped reading
	// fail the run instead of parking the controller forever.
	elPhaseCap = 500 * sim.Time(1e6) // 500ms
)

// elCtl is the shared phase state between the controller proc and the
// clients (cooperative scheduling: plain fields, no locks).
type elCtl struct {
	heal bool // clients may Reinstate their exclusions now
	done bool // clients drain and exit
}

// elResult is one elastic run: per-phase timestamps, every client's
// read-completion samples, the worst request latency (deadline
// calibration), and the membership/recovery accounting.
type elResult struct {
	started, finished sim.Time
	killAt, healAt    sim.Time
	joinStart, cutAt  sim.Time
	samples           []dgSample // in completion order
	cutReads          int        // len(samples) at the cutover
	maxLat            sim.Time

	failovers, reinstates      int64
	reinstateTime              sim.Time
	resyncOps                  int64
	resyncBytes, migratedBytes int64
	epoch                      uint64
	members                    []int
}

// meanReadmission returns the mean virtual time of a readmission in
// ms, fence drain included (0 with none).
func (r *elResult) meanReadmission() float64 {
	if r.reinstates == 0 {
		return 0
	}
	return ms(r.reinstateTime) / float64(r.reinstates)
}

// window returns aggregate read throughput over [from, to).
func (r *elResult) window(from, to sim.Time) float64 {
	var b int
	for _, s := range r.samples {
		if s.at >= from && s.at < to {
			b += s.bytes
		}
	}
	return mbps(b, to-from)
}

// phase returns the aggregate read throughput of the elPhaseReads
// reads completed from sample index first on, measured from start to
// the last one's completion, and that span.
func (r *elResult) phase(first int, start sim.Time) (float64, sim.Time) {
	reads := r.samples[first : first+elPhaseReads]
	var b int
	for _, s := range reads {
		b += s.bytes
	}
	span := reads[len(reads)-1].at - start
	return mbps(b, span), span
}

// elAwait parks the controller until elPhaseReads reads have completed
// beyond the first `first` samples.
func elAwait(p *sim.Proc, res *elResult, first int) error {
	for waited := sim.Time(0); len(res.samples) < first+elPhaseReads; waited += elPoll {
		if waited > elPhaseCap {
			return fmt.Errorf("figures: elastic: %d of %d reads in %v", len(res.samples)-first, elPhaseReads, elPhaseCap)
		}
		p.Sleep(elPoll)
	}
	return nil
}

// elClient streams synchronous stripe reads (with periodic stripe
// overwrites) through cl against its own file until the controller
// flags done, re-admitting its exclusions once heal is up.
func elClient(p *sim.Proc, cl *rfsrv.Cluster, ino kernel.InodeID, ctl *elCtl, res *elResult) error {
	node := cl.Node()
	va, err := node.Kernel.Mmap(msStripe, "el-buf")
	if err != nil {
		return err
	}
	buf := vecKernel(node.Kernel, va, msStripe)
	read := func(off int64) error {
		issued := p.Now()
		resp, err := cl.Read(p, ino, off, buf)
		if err != nil {
			return err
		}
		if lat := p.Now() - issued; lat > res.maxLat {
			res.maxLat = lat
		}
		res.samples = append(res.samples, dgSample{at: p.Now(), bytes: int(resp.N)})
		return nil
	}
	write := func(off int64, v core.Vector) error {
		issued := p.Now()
		if _, err := cl.Write(p, ino, off, v); err != nil {
			return err
		}
		if lat := p.Now() - issued; lat > res.maxLat {
			res.maxLat = lat
		}
		return nil
	}
	for k := 0; !ctl.done; k++ {
		if ctl.heal {
			for _, s := range cl.DownServers() {
				// A replay interrupted by residual timeouts keeps the
				// journal and is retried on the next pass.
				if err := cl.Reinstate(p, s); err != nil {
					break
				}
			}
		}
		if err := read(int64(k%elStripes) * msStripe); err != nil {
			return err
		}
		if k%elWriteEvery == elWriteEvery-1 {
			// Rotate overwrites with a stride coprime to the stripe
			// count, so dirty data spreads across the placement ring.
			if err := write(int64((k*5)%elStripes)*msStripe, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// elRun executes one elastic lifecycle on a fresh simulated cluster.
// timeout == 0 runs the fault-free calibration baseline: no kill, no
// join, just the two phases' reads of healthy traffic, measuring
// makespan throughput and worst latency.
func (c Config) elRun(timeout sim.Time) (*elResult, error) {
	r, err := rig.New(rig.Desc{Servers: elServers, Replicas: elReplicas, Stripe: msStripe,
		Window: elWindow, Timeout: timeout})
	if err != nil {
		return nil, err
	}
	opNode := r.HW.AddNode("operator")
	res := &elResult{}
	ctl := &elCtl{}
	clusters := make([]*rfsrv.Cluster, elClients)
	var (
		inos []kernel.InodeID
		op   *rfsrv.Cluster
	)
	// Processes 0..elClients-1 are the streaming clients; the last one
	// is the controller walking the lifecycle.
	span, err := r.Run("el", elClients+1, func(p *sim.Proc) (err error) {
		// Seed the initial members only: the standby slot's store is
		// rebuilt by the Join from the authoritative snapshot.
		if inos, err = msSeedStriped(p, r, elActive, elClients, elStripes*msStripe); err != nil {
			return err
		}
		// The operator cluster is the rig's first, so the rig's view is
		// its own; restricting it restricts the view (members = the
		// first elActive slots).
		if op, err = r.Cluster(p, opNode, 10); err != nil {
			return err
		}
		if err := op.SetMembers(elActive); err != nil {
			return err
		}
		res.started = p.Now()
		return nil
	}, func(p *sim.Proc, i int) error {
		if i == elClients {
			defer func() { ctl.done = true }()
			return elController(p, r, op, clusters, timeout, ctl, res)
		}
		cl, err := r.Cluster(p, r.HW.AddNode(fmt.Sprintf("client%d", i)), 10)
		if err != nil {
			return err
		}
		// Published at once, so the controller can poll exclusion state
		// while the client is still streaming.
		clusters[i] = cl
		return elClient(p, cl, inos[i], ctl, res)
	})
	if err != nil {
		return nil, fmt.Errorf("elastic: %w", err)
	}
	res.finished = res.started + span
	for _, cluster := range clusters {
		res.failovers += cluster.Failovers.N
		res.reinstates += cluster.Reinstates.N
		res.reinstateTime += cluster.ReinstateTime
		res.resyncOps += cluster.ResyncOps.N
		res.resyncBytes += cluster.ResyncBytes.Bytes
	}
	return res, nil
}

// elController walks the lifecycle on its own process: healthy
// traffic, kill, dwell, revive, heal, Join, tail. timeout == 0 is the
// baseline: healthy traffic only.
func elController(p *sim.Proc, r *rig.Rig, op *rfsrv.Cluster, clusters []*rfsrv.Cluster,
	timeout sim.Time, ctl *elCtl, res *elResult) error {
	if err := elAwait(p, res, 0); err != nil {
		return err
	}
	if timeout == 0 {
		return elAwait(p, res, len(res.samples))
	}
	victim := r.Nodes[elVictim].NIC
	res.killAt = p.Now()
	victim.Kill()
	p.Sleep(elDwellDur)
	victim.Revive()
	// Two deadlines: every flight lost to the kill has expired and late
	// frames have drained; then clients re-admit (Reinstate).
	p.Sleep(2 * timeout)
	res.healAt = p.Now()
	ctl.heal = true
	for polls := 0; ; polls++ {
		clean := true
		for _, cluster := range clusters {
			if cluster == nil || len(cluster.DownServers()) > 0 {
				clean = false
				break
			}
		}
		if clean {
			break
		}
		if polls > 400 {
			state := ""
			for i, cluster := range clusters {
				if cluster != nil {
					state += fmt.Sprintf(" c%d:down=%v reinst=%d", i,
						cluster.DownServers(), cluster.Reinstates.N)
				}
			}
			return fmt.Errorf("figures: elastic clients never healed:%s", state)
		}
		p.Sleep(50 * sim.Time(1e3))
	}
	// Expand N -> N+1 under load: online stripe migration, then the
	// epoch cutover every attached client adopts.
	res.joinStart = p.Now()
	if err := op.Join(p, elJoiner); err != nil {
		return fmt.Errorf("join of standby slot %d: %w", elJoiner, err)
	}
	res.cutAt, res.cutReads = p.Now(), len(res.samples)
	res.epoch = r.View.Epoch()
	res.members = r.View.Members()
	res.migratedBytes = op.Migrated.Bytes
	return elAwait(p, res, res.cutReads)
}

// elPhases derives the per-phase throughput rows of a faulted run —
// pre-kill (the first elPhaseReads reads), degraded (post-settle,
// victim dark or excluded) and post-expansion steady state (the first
// elPhaseReads reads after the cutover) — and the two counted phases'
// spans.
func elPhases(res *elResult, timeout sim.Time) (pre, degraded, post float64, preSpan, postSpan sim.Time) {
	pre, preSpan = res.phase(0, res.started)
	degraded = res.window(res.killAt+timeout, res.healAt)
	post, postSpan = res.phase(res.cutReads, res.cutAt)
	return
}

// Elastic runs the elastic-membership lifecycle and returns its two
// tables — per-phase aggregate throughput across kill, heal,
// journaled-replay re-admission and live N->N+1 expansion, and the
// recovery/migration accounting behind it.
func (c Config) Elastic() ([]*Table, error) {
	base, err := c.elRun(0)
	if err != nil {
		return nil, err
	}
	timeout := base.maxLat * 5 / 2
	res, err := c.elRun(timeout)
	if err != nil {
		return nil, err
	}
	pre, degraded, post, preSpan, postSpan := elPhases(res, timeout)
	baseline := base.window(base.started, base.finished)
	phases := &Table{
		ID: "elastic",
		Title: fmt.Sprintf("Elastic membership: throughput across kill -> heal -> replayed re-admission -> Join %d->%d under load (%d clients, R=%d, deadline 2.5x max fault-free latency)",
			elActive, elActive+1, elClients, elReplicas),
		Columns: []string{"phase", "servers", "window ms", "MB/s", "vs pre-kill"},
		Rows: [][]string{
			{"fault-free baseline", fmt.Sprintf("%d", elActive),
				fmt.Sprintf("%.1f", ms(base.finished-base.started)),
				fmt.Sprintf("%.1f", baseline), "-"},
			{"pre-kill", fmt.Sprintf("%d", elActive),
				fmt.Sprintf("%.1f", ms(preSpan)),
				fmt.Sprintf("%.1f", pre), "1.00"},
			{"degraded (victim excluded)", fmt.Sprintf("%d", elActive-1),
				fmt.Sprintf("%.1f", ms(res.healAt-res.killAt-timeout)),
				fmt.Sprintf("%.1f", degraded), fmt.Sprintf("%.2f", degraded/pre)},
			{"post-expansion", fmt.Sprintf("%d", elActive+1),
				fmt.Sprintf("%.1f", ms(postSpan)),
				fmt.Sprintf("%.1f", post), fmt.Sprintf("%.2f", post/pre)},
		},
		Expected: "beyond the paper (its platform is static): the kill degrades " +
			"throughput, journaled replay re-admits the healed server without an " +
			"out-of-band resync, and the live Join restores at least 0.9x the " +
			"pre-kill rate on the expanded cluster",
	}
	accounting := &Table{
		ID:    "elastic-recovery",
		Title: "Elastic membership: recovery and migration accounting of the run above",
		Columns: []string{"reinstates", "mean readmission ms", "resync ops", "resync KB",
			"join migrated KB", "join ms", "epoch", "members"},
		Rows: [][]string{{
			fmt.Sprintf("%d", res.reinstates),
			fmt.Sprintf("%.3f", res.meanReadmission()),
			fmt.Sprintf("%d", res.resyncOps),
			fmt.Sprintf("%.0f", float64(res.resyncBytes)/1024),
			fmt.Sprintf("%.0f", float64(res.migratedBytes)/1024),
			fmt.Sprintf("%.1f", ms(res.cutAt-res.joinStart)),
			fmt.Sprintf("%d", res.epoch),
			fmt.Sprintf("%v", res.members),
		}},
		Expected: "every exclusion re-admits through journal replay (resync bytes > 0 " +
			"from the overwrites the victim missed, each copied once; a readmission " +
			"takes a few ms, its fence's drain of the load included), and the Join " +
			"migrates every stripe the joiner now owns, then copies each byte written " +
			"during that copy once, under the cutover fence",
	}
	return []*Table{phases, accounting}, nil
}

// ms renders a virtual duration in milliseconds.
func ms(d sim.Time) float64 { return float64(d) / 1e6 }
