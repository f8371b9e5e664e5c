package torture

// The rig: one deterministic simulation holding N sharded replicated
// servers, M client nodes (each with its own Cluster view — exclusion
// state is per client, which is exactly what the cross-client checks
// are about), and one oracle node whose memfs replays the linearized
// log at the end. The master proc orchestrates phases with plain
// shared fields — the simulation is cooperatively scheduled, so
// check-then-set sequences without an intervening yield are atomic.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

// simBudget bounds one run's simulated span: a logic bug that stalls
// the phase machine surfaces as a budget error instead of spinning the
// event loop forever.
const simBudget = 60 * time.Second

// tick is the poll interval of the phase barriers.
const tick = 100 * time.Microsecond

type faultEvent struct {
	at      sim.Time
	victims []int
	kind    string
	// sampled marks, per client, whether this event's recovery
	// latency was already measured (first completed op after the
	// client observed the exclusion).
	sampled []bool
}

type runState struct {
	cfg Config
	// rig is the platform: the sharded replicated servers, their
	// stores, and (Config.Elastic) the shared membership view every
	// client attaches before traffic.
	rig    *rig.Rig
	oracle *memfs.FS

	clients []*tClient
	shared  []*sharedFile
	// root models the filesystem root (client dirs and shared files
	// live there).
	root *dirModel

	log  []OpRecord
	fail *Failure

	nextHandle int
	// oracleIno maps a harness handle to the inode the oracle minted
	// for it during replay.
	oracleIno map[int]kernel.InodeID

	// Phase machine (written by master/schedule, read by everyone).
	ready      int  // clients that finished setup
	stormOn    bool // storm phase open
	stormLive  int  // clients still inside their op storm
	reviveDone bool // all NICs revived and settled; end checks may run
	endDone    int  // clients that finished their end checks
	finished   bool

	// nicDown mirrors each server NIC's dead-or-stalled state for the
	// clients' reinstate decisions (hw exposes Dead() but not stalls).
	nicDown []bool

	// Membership machinery (Config.Elastic): the operator cluster,
	// which publishes rig.View. memberBusy excludes fault injection
	// while a bounce runs; lastFaultClear is when the schedule last
	// finished an injection window, so the membership proc only strikes
	// after residual timeouts drained.
	opNode         *hw.Node
	operator       *rfsrv.Cluster
	memberBusy     bool
	lastFaultClear sim.Time
	bounces        int

	faults                                []*faultEvent
	recSamples                            []sim.Time
	kills, stalls, strikes, skippedFaults int
	deadGroupNoops                        int

	stormStart, stormEnd sim.Time
}

func newRunState(cfg Config) (*runState, error) {
	if cfg.Servers < 2 || cfg.Servers > 16 {
		return nil, fmt.Errorf("torture: %d servers (want 2..16)", cfg.Servers)
	}
	if cfg.Clients < 1 || cfg.Clients > 8 {
		return nil, fmt.Errorf("torture: %d clients (want 1..8)", cfg.Clients)
	}
	if cfg.Mode != ModeData && cfg.Mode != ModeNS {
		return nil, fmt.Errorf("torture: unknown mode %q", cfg.Mode)
	}
	r, err := rig.New(rig.Desc{Servers: cfg.Servers, Replicas: cfg.Replicas, Stripe: cfg.Stripe,
		Window: cfg.Window, Timeout: cfg.Timeout, Sharded: true})
	if err != nil {
		return nil, err
	}
	st := &runState{
		cfg:       cfg,
		rig:       r,
		oracleIno: make(map[int]kernel.InodeID),
		nicDown:   make([]bool, cfg.Servers),
	}
	if cfg.Elastic {
		st.opNode = r.HW.AddNode("operator")
	}
	st.oracle = memfs.New("oracle", r.HW.AddNode("oracle"), 0)
	st.oracleIno[rootHandle] = st.oracle.Root()
	st.nextHandle = rootHandle + 1
	st.root = &dirModel{handle: rootHandle, name: "/", entries: map[string]*entryModel{}}

	// One rand stream per client plus the schedule's, all split from
	// the master seed so a (Seed, ScheduleSeed) pair replays exactly.
	master := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Clients; i++ {
		st.clients = append(st.clients, &tClient{
			st:   st,
			idx:  i,
			node: r.HW.AddNode(fmt.Sprintf("client%d", i)),
			rng:  rand.New(rand.NewSource(master.Int63())),
		})
	}
	if cfg.Mode == ModeData {
		for k := 0; k < sharedFiles; k++ {
			st.shared = append(st.shared, &sharedFile{
				handle:  st.handle(),
				regions: make([][]byte, cfg.Clients),
				ownEnd:  make([]int64, cfg.Clients),
			})
		}
	}
	return st, nil
}

// rootHandle is the harness handle of the filesystem root.
const rootHandle = 0

// handle mints the next harness object handle.
func (st *runState) handle() int {
	h := st.nextHandle
	st.nextHandle++
	return h
}

func (st *runState) now() sim.Time { return st.rig.Env.Now() }

func (st *runState) logf(format string, args ...any) {
	if st.cfg.Logf != nil {
		st.cfg.Logf(format, args...)
	}
}

// failf records the first model-check violation, with the trace
// minimized onto the failing object (file handle, or (dir,name), or
// both; pass file=-1 / name="" for the unused coordinate). Everyone
// polls st.fail and winds down.
func (st *runState) failf(file, dir int, name, format string, args ...any) {
	if st.fail != nil {
		return
	}
	st.fail = &Failure{
		Cfg:   st.cfg,
		Msg:   fmt.Sprintf(format, args...),
		At:    st.now(),
		Trace: st.minimize(file, dir, name),
	}
}

func (st *runState) failed() bool { return st.fail != nil }

// run executes the whole phase machine and blocks until the
// simulation drains.
func (st *runState) run() (*Result, error) {
	var masterErr error
	st.rig.Env.Spawn("torture-master", func(p *sim.Proc) {
		masterErr = st.master(p)
	})
	st.rig.Env.Run(simBudget)
	if st.fail != nil {
		return nil, st.fail
	}
	if masterErr != nil {
		return nil, masterErr
	}
	if !st.finished {
		return nil, fmt.Errorf("torture: run did not finish within the %v simulation budget (seed %d)", simBudget, st.cfg.Seed)
	}
	return st.result(), nil
}

// master drives the phases: spawn clients, open the storm once every
// client finished setup, start the fault schedule, wait the storm out,
// wait for the end checks, then replay the oracle and diff.
func (st *runState) master(p *sim.Proc) error {
	st.stormLive = len(st.clients)
	if st.cfg.Elastic {
		st.rig.Env.Spawn("torture-membership", st.membership)
	}
	for _, c := range st.clients {
		c := c
		st.rig.Env.Spawn(fmt.Sprintf("torture-c%d", c.idx), c.run)
	}
	for st.ready < len(st.clients) && !st.failed() {
		p.Sleep(tick)
	}
	if st.failed() {
		return nil
	}
	st.stormStart = st.now()
	st.stormOn = true
	if !st.cfg.Quiet {
		st.rig.Env.Spawn("torture-schedule", st.schedule)
	}
	for st.stormLive > 0 && !st.failed() {
		p.Sleep(tick)
	}
	st.stormEnd = st.now()
	// Revive everything (the schedule may have exited mid-dwell on a
	// failure) and let late frames and armed timeouts drain before the
	// end checks read server state.
	for i, n := range st.rig.Nodes {
		n.NIC.Revive()
		st.nicDown[i] = false
	}
	p.Sleep(2*st.cfg.Timeout + 500*time.Microsecond)
	st.reviveDone = true
	for st.endDone < len(st.clients) && !st.failed() {
		p.Sleep(tick)
	}
	if !st.failed() {
		st.replayOracle(p)
	}
	st.finished = true
	return nil
}

// result aggregates the counters after a clean run.
func (st *runState) result() *Result {
	r := &Result{Cfg: st.cfg}
	for _, c := range st.clients {
		r.Ops += c.ops
		r.Reads += c.reads
		r.Writes += c.writes
		r.Creates += c.creates
		r.Unlinks += c.unlinks
		r.Renames += c.renames
		r.Readdirs += c.readdirs
		r.Truncates += c.truncates
		r.Getattrs += c.getattrs
		r.Seeks += c.seeks
		r.MaybeEntries += c.maybeEntries
		r.StaleSkips += c.staleSkips
		r.BusyRefusals += c.busyRefusals
		r.Reinstates += int(c.cl.Reinstates.N)
		r.ReinstateRefusals += int(c.cl.ReinstateRefusals.N)
		r.RenameInDoubts += int(c.cl.RenameInDoubts.N)
		r.ResyncOps += int(c.cl.ResyncOps.N)
		r.ResyncBytes += c.cl.ResyncBytes.Bytes
		r.ResyncSpills += int(c.cl.ResyncSpills.N)
		r.RenameAutoResolves += int(c.cl.RenameAutoResolves.N)
	}
	r.Bounces = st.bounces
	if st.operator != nil {
		r.MigratedBytes = st.operator.Migrated.Bytes
	}
	r.Kills, r.Stalls, r.Strikes, r.SkippedFaults = st.kills, st.stalls, st.strikes, st.skippedFaults
	r.Elapsed = st.stormEnd - st.stormStart
	if r.Elapsed > 0 {
		r.OpsPerSec = float64(r.Ops) / r.Elapsed.Seconds()
	}
	r.RecoverySamples = len(st.recSamples)
	var sum sim.Time
	for _, d := range st.recSamples {
		sum += d
		if d > r.RecoveryMax {
			r.RecoveryMax = d
		}
	}
	if len(st.recSamples) > 0 {
		r.RecoveryMean = sum / sim.Time(len(st.recSamples))
	}
	return r
}

// groupOf returns the owner-group members of a residue.
func (st *runState) groupOf(res int) []int {
	n := st.cfg.Servers
	out := make([]int, 0, st.cfg.Replicas)
	for j := 0; j < st.cfg.Replicas; j++ {
		out = append(out, (res+j)%n)
	}
	return out
}

// residueOf is the sharded owner residue of an inode (an independent
// copy of rfsrv's placement.residue; the rfsrv placement tests pin the
// two to each other).
func (st *runState) residueOf(ino kernel.InodeID) int {
	if ino <= 1 {
		return 0
	}
	return int((uint64(ino) - 2) % uint64(st.cfg.Servers))
}
