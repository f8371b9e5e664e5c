package figures

// This file holds the degraded-operation suite: the repository's first
// fault-injected experiment, and the scenario family every later
// availability measurement builds on. The multiserver suite answered
// "how does aggregate throughput scale with servers?"; this one asks
// "what happens to that throughput when one of them dies mid-run?"
//
// The setup is the multiserver orfs-direct workload with three
// changes: every stripe is written to R=2 consecutive servers
// (rfsrv.NewReplicatedCluster); every session arms a per-request reply
// deadline (Session.SetRequestTimeout) so a request in flight to the
// dying server surfaces as a fault instead of hanging its window slot
// forever; and the workload is longer with a shallower window, so the
// deadline — which must dominate the worst legitimate queueing
// latency — stays small against the run. The deadline itself is
// calibrated from a fault-free baseline run (2.5x its worst observed
// latency), the way real deployments derive RPC timeouts from healthy
// tail latency. A scheduled NIC kill (hw.NIC.KillAfter) then takes one
// server off the fabric at a fixed fraction of the fault-free
// makespan; clients time out or get dead-peer rejections and exclude
// the victim, and the read slices follow the exclusion: the survivors
// form one chain whose cuts (rfsrv placement's chainCut) spread the
// victim's share of every stripe's reads over all of them.
//
// The interesting numbers are aggregate throughput before the kill,
// the settle window (one deadline long: every request in flight to the
// victim has expired by then, since deadlines run from issue), and the
// post-settle rate — the cluster serving every byte from N-1 servers,
// each reading an equal share of the ring's pages, to within a page
// per ring round. That window ends at the first client's finish: past
// it fewer clients load the servers, and since a stripe's owner depends
// on its offset alone, every client's last stripe lands on the same
// ring position, so the drain tail measures whichever survivor serves
// it rather than the degraded cluster.

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

const (
	// dgReplicas is the replication factor: 2 survives any single
	// server loss.
	dgReplicas = 2
	// dgWindow is the per-server session window. Shallower than the
	// multiserver suite's 8: queueing latency is proportional to the
	// outstanding bytes per server, and the reply deadline must
	// dominate the worst legitimate latency, so a shallow window keeps
	// the deadline — and with it the failover settle time — small
	// against the run length.
	dgWindow = 4
	// dgFilePerCli is each client's file: larger than the multiserver
	// suite's so the run dwarfs the settle window and the post-failover
	// regime is actually observable.
	dgFilePerCli = 8 << 20
	// dgKillNum/dgKillDen place the kill at 2/5 of the fault-free
	// makespan: late enough for a stable "before" window, early enough
	// that most bytes move degraded.
	dgKillNum, dgKillDen = 2, 5
)

// dgTimeout calibrates the per-request reply deadline from a
// fault-free run's worst observed latency: 2.5x covers the post-kill
// inflation on the victim's replicas (their queues roughly double when
// they absorb its load) while staying far below the run length, so
// only requests genuinely lost to the kill expire. Real deployments do
// the same thing with their RPC timeouts: a multiple of the healthy
// tail latency.
func dgTimeout(base *dgResult) sim.Time {
	return base.maxLat * 5 / 2
}

// dgServersAxis is the swept server count (the victim is always
// server 0; with R=2 its stripes live on server 1 too).
var dgServersAxis = []int{3, 8}

// dgSample records one completed application read.
type dgSample struct {
	at    sim.Time // completion (virtual) time
	bytes int
}

// dgResult is one degraded run: the measurement window, the instant
// the first client finished, every client's completion samples, the
// summed failover counters, and the worst request latency observed
// (the number dgTimeout must dominate).
type dgResult struct {
	started, finished   sim.Time
	firstDone           sim.Time
	samples             []dgSample
	maxLat              sim.Time
	failovers, excluded int64
}

// mbpsSplit returns aggregate throughput over [started, killAt) and
// [settleAt, firstDone] — the before/after-failover numbers of the
// suite. The settle window [killAt, settleAt) is excluded from the
// "after" rate: by construction (deadlines run from issue) every
// request in flight to the victim at the kill has expired by
// killAt+timeout, so the regime after settleAt is pure degraded
// operation; the settle window itself is reported as a duration. The
// "after" window stops at the first client's finish, where the drain
// tail begins.
func (r *dgResult) mbpsSplit(killAt, settleAt sim.Time) (pre, post float64) {
	var preB, postB int
	for _, s := range r.samples {
		if s.at < killAt {
			preB += s.bytes
		} else if s.at >= settleAt && s.at <= r.firstDone {
			postB += s.bytes
		}
	}
	return mbps(preB, killAt-r.started), mbps(postB, r.firstDone-settleAt)
}

// mbpsTotal returns whole-run aggregate throughput.
func (r *dgResult) mbpsTotal() float64 {
	var b int
	for _, s := range r.samples {
		b += s.bytes
	}
	return mbps(b, r.finished-r.started)
}

// dgClient runs one client's pipelined striped reads (the multiserver
// orfs-direct workload) through cluster and returns its completion
// samples and worst request latency.
func dgClient(p *sim.Proc, cluster *rfsrv.Cluster, ino kernel.InodeID) ([]dgSample, sim.Time, error) {
	var maxLat sim.Time
	var samples []dgSample
	rs, err := newReadStream(cluster, ino, msStripe, "dg-buf", func(p *sim.Proc, pd rfsrv.PendingOp, resp *rfsrv.Resp) {
		maxLat = max(maxLat, p.Now()-pd.Issued())
		samples = append(samples, dgSample{at: p.Now(), bytes: int(resp.N)})
	})
	if err != nil {
		return nil, 0, err
	}
	for off := int64(0); off < dgFilePerCli; off += msStripe {
		if rs.read(p, off) != nil {
			break
		}
	}
	if err := rs.pl.Drain(p); err != nil {
		return nil, 0, err
	}
	return samples, maxLat, nil
}

// dgRun executes the degraded workload on a fresh simulated cluster of
// the given width. killAt > 0 schedules server 0's NIC to die at that
// absolute virtual time; 0 runs fault-free (the baseline, whose
// makespan and worst latency calibrate the kill time and the reply
// deadline). timeout arms per-request deadlines; 0 leaves them off.
func (c Config) dgRun(servers int, killAt, timeout sim.Time) (*dgResult, error) {
	r, err := rig.New(rig.Desc{Servers: servers, Replicas: dgReplicas, Stripe: msStripe,
		Window: dgWindow, Timeout: timeout})
	if err != nil {
		return nil, err
	}
	if killAt > 0 {
		r.Nodes[0].NIC.KillAfter(killAt)
	}
	res := &dgResult{}
	var inos []kernel.InodeID
	span, err := r.Run("cl", msClients, func(p *sim.Proc) (err error) {
		inos, err = msSeedStriped(p, r, servers, msClients, dgFilePerCli)
		res.started = p.Now()
		return err
	}, func(p *sim.Proc, i int) error {
		cluster, err := r.Cluster(p, r.HW.AddNode(fmt.Sprintf("client%d", i)), 10)
		if err != nil {
			return err
		}
		samples, maxLat, err := dgClient(p, cluster, inos[i])
		if err != nil {
			return err
		}
		if res.firstDone == 0 || p.Now() < res.firstDone {
			res.firstDone = p.Now()
		}
		res.maxLat = max(res.maxLat, maxLat)
		res.samples = append(res.samples, samples...)
		res.failovers += cluster.Failovers.N
		res.excluded += cluster.Excluded.N
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("degraded s=%d: %w", servers, err)
	}
	res.finished = res.started + span
	return res, nil
}

// dgKillTime places the kill inside a fault-free run's measurement
// window.
func dgKillTime(base *dgResult) sim.Time {
	return base.started + (base.finished-base.started)*dgKillNum/dgKillDen
}

// Degraded runs the whole suite and returns its table: per server
// count, fault-free aggregate throughput, throughput before and after
// a mid-run kill of server 0 (R=2, per-request timeouts armed), and
// the failover accounting.
func (c Config) Degraded() (*Table, error) {
	rows := make([][]string, 0, len(dgServersAxis))
	for _, n := range dgServersAxis {
		base, err := c.dgRun(n, 0, 0)
		if err != nil {
			return nil, err
		}
		killAt, timeout := dgKillTime(base), dgTimeout(base)
		faulted, err := c.dgRun(n, killAt, timeout)
		if err != nil {
			return nil, err
		}
		pre, post := faulted.mbpsSplit(killAt, killAt+timeout)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", dgReplicas),
			fmt.Sprintf("%.1f", base.mbpsTotal()),
			fmt.Sprintf("%.1f", pre),
			fmt.Sprintf("%.1f", float64(timeout.Microseconds())/1000),
			fmt.Sprintf("%.1f", post),
			fmt.Sprintf("%.2f", post/pre),
			fmt.Sprintf("%d", faulted.failovers),
			fmt.Sprintf("%d", faulted.excluded),
		})
	}
	return &Table{
		ID:    "degraded",
		Title: fmt.Sprintf("Aggregate throughput across a mid-run server kill (%d clients, window %d, R=%d, deadline 2.5x max fault-free latency)", msClients, dgWindow, dgReplicas),
		Columns: []string{"servers", "R", "fault-free MB/s", "pre-kill MB/s",
			"settle ms", "post-settle MB/s", "post/pre", "failovers", "excluded"},
		Rows: rows,
		Expected: "beyond the paper (its platform has no fault model): post-kill " +
			"throughput should settle near the (N-1)/N server capacity fraction, the " +
			"victim's reads spread over every survivor — not collapse to zero, and " +
			"not hang. Where the rig is bound by its clients rather than its " +
			"servers — 8 clients on 8 servers, each client near its own link — " +
			"the N-1 survivors still feed them, and post/pre stays near 1.0",
	}, nil
}
