// Package torture is the randomized fault-schedule harness (DESIGN.md
// §12): a seeded, dice-driven operation generator drives M concurrent
// clients — open/seek/read/write/truncate/create/unlink/rename/readdir,
// weighted — over a replicated sharded rfsrv cluster, while a fault
// schedule derived from the same seed kills, stalls, revives and
// reinstates servers at randomized points. Every operation's result is
// checked against a per-inode model honoring the §9 size-epoch and §11
// rename semantics, and the end state is diffed against a reference
// memfs replay of the linearized operation log.
//
// Everything is deterministic: the simulation engine is, the dice are
// (one rand.Source split into per-client and per-schedule streams),
// and the harness itself never iterates a Go map to make a choice. A
// failing run therefore replays byte-for-byte from its seed — every
// Failure carries a one-line `go test` reproduction command and a
// minimized trace (the linearized log projected onto the failing
// object).
//
// Two modes share the machinery:
//
//   - ModeData keeps the fault schedule inside the replication
//     envelope (never a whole owner group down at once, in any
//     client's view), so every operation must succeed: reads are
//     byte-exact against the model, sizes exact after flushes, and
//     Reinstate must admit or refuse correctly.
//   - ModeNS is a namespace-only storm whose schedule deliberately
//     strikes whole owner groups, driving operations into fault
//     errors: the model then holds two-valued "maybe" states that are
//     collapsed and verified member-by-member after the strike, and
//     an ErrRenameInDoubt outcome must land in exactly one of the two
//     legal states, resolved by re-driving the rename.
package torture

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Mode selects the harness workload (see the package comment).
type Mode string

// The two harness modes.
const (
	// ModeData mixes data and namespace operations under a
	// replication-safe fault schedule: every operation must succeed
	// and check exactly.
	ModeData Mode = "data"
	// ModeNS storms the namespace while the schedule strikes whole
	// owner groups: fault outcomes become two-valued model states.
	ModeNS Mode = "ns"
)

// Config parameterizes one torture run. The zero value of every field
// picks a sensible default (see withDefaults); Seed alone identifies
// a run.
type Config struct {
	// Seed drives every random choice of the run. The same Seed (and
	// ScheduleSeed) replays the same run byte-for-byte.
	Seed int64
	// ScheduleSeed drives the fault schedule separately, so a failing
	// schedule can be replayed against different op streams. 0 derives
	// it from Seed.
	ScheduleSeed int64
	// Mode selects ModeData (default) or ModeNS.
	Mode Mode
	// Servers, Replicas, Clients size the cluster (defaults 4, 2, 3).
	Servers, Replicas, Clients int
	// Ops is the dice-driven operation count per client (default 120).
	Ops int
	// Stripe and Window shape the data path (defaults 2 pages, 4).
	Stripe, Window int
	// Timeout is the per-request reply deadline (default 5ms): faults
	// are only observable with it armed.
	Timeout sim.Time
	// Quiet disables the fault schedule (pure randomized workload).
	Quiet bool
	// Elastic adds membership changes to the schedule: an operator
	// cluster shares a membership view with every client and, in quiet
	// windows (no dark NICs, no client-side exclusions), bounces a
	// random server (a retire and a rejoin inside one full fence) while
	// the op storm runs. Membership events and fault injections are
	// mutually exclusive; the model expects bounces to preserve every
	// byte and entry exactly.
	Elastic bool
	// Logf, when set, receives progress and diagnostic lines
	// (testing.T.Logf shaped).
	Logf func(format string, args ...any)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModeData
	}
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Clients == 0 {
		c.Clients = 3
	}
	if c.Ops == 0 {
		c.Ops = 120
	}
	if c.Stripe == 0 {
		c.Stripe = 2 * mem.PageSize
	}
	if c.Window == 0 {
		c.Window = 4
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Millisecond
	}
	if c.ScheduleSeed == 0 {
		c.ScheduleSeed = int64(uint64(c.Seed)*0x9E3779B97F4A7C15 + 0x243F6A8885A308D3)
	}
	return c
}

// Result summarizes a finished run.
type Result struct {
	// Cfg is the run's effective (default-filled) configuration.
	Cfg Config
	// Ops counts completed operations; the per-kind counters below
	// partition it.
	Ops, Reads, Writes, Creates, Unlinks, Renames, Readdirs, Truncates, Getattrs, Seeks int
	// Kills, Stalls and Strikes count injected faults; SkippedFaults
	// counts schedule points where no victim satisfied the
	// replication-envelope invariant.
	Kills, Stalls, Strikes, SkippedFaults int
	// Reinstates, ReinstateRefusals and RenameInDoubts aggregate the
	// clusters' observability counters across clients.
	Reinstates, ReinstateRefusals, RenameInDoubts int
	// ResyncOps and ResyncBytes aggregate what Reinstate's journal
	// replay re-drove across clients (mutations replayed; data bytes
	// re-copied); ResyncSpills counts journals that outgrew their
	// bounds and fell back to full-slice resync; RenameAutoResolves
	// counts in-doubt renames the clusters settled on a later walk.
	ResyncOps, ResyncSpills, RenameAutoResolves int
	ResyncBytes                                 int64
	// BusyRefusals counts generated mutations of rename-tainted
	// entries the cluster refused ErrBusy (the StBusy split: stray
	// prepare marks showing through, not divergence).
	BusyRefusals int
	// Bounces counts membership bounces (Config.Elastic);
	// MigratedBytes is the data the bounces re-placed.
	Bounces       int
	MigratedBytes int64
	// MaybeEntries counts ModeNS entries whose outcome a fault left
	// two-valued (collapsed and verified at the end); StaleSkips
	// counts checks skipped because an owner group was unreachable in
	// the checking client's view.
	MaybeEntries, StaleSkips int
	// Elapsed is the simulated span of the op storm; OpsPerSec is
	// Ops over that span.
	Elapsed   sim.Time
	OpsPerSec float64
	// RecoveryMean and RecoveryMax aggregate fault-recovery latency:
	// the simulated time from a fault's injection to a client's first
	// completed operation after observing the resulting exclusion.
	RecoveryMean, RecoveryMax sim.Time
	// RecoverySamples is how many (fault, client) observations the
	// recovery aggregates cover.
	RecoverySamples int
}

// Failure is the harness's error type: a model-check violation, with
// everything needed to reproduce and localize it.
type Failure struct {
	// Cfg reproduces the run.
	Cfg Config
	// Msg states the violated property.
	Msg string
	// At is the simulated time of the violation.
	At sim.Time
	// Trace is the linearized log projected onto the failing object
	// (the minimized trace), most recent last.
	Trace []OpRecord
}

// Error renders the failure with its one-line reproduction command
// and the minimized trace.
func (f *Failure) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "torture: %s (t=%v)\n", f.Msg, f.At)
	fmt.Fprintf(&b, "repro: %s\n", f.Repro())
	if len(f.Trace) > 0 {
		fmt.Fprintf(&b, "minimized trace (%d ops):\n", len(f.Trace))
		for _, r := range f.Trace {
			fmt.Fprintf(&b, "  %s\n", r.String())
		}
	}
	return b.String()
}

// Repro is the one-line command that replays this run exactly.
func (f *Failure) Repro() string {
	s := fmt.Sprintf("go test ./internal/torture -run 'TestTortureSeed$' -torture.seed=%d -torture.schedule=%d -torture.mode=%s -torture.servers=%d -torture.replicas=%d -torture.clients=%d -torture.ops=%d",
		f.Cfg.Seed, f.Cfg.ScheduleSeed, f.Cfg.Mode, f.Cfg.Servers, f.Cfg.Replicas, f.Cfg.Clients, f.Cfg.Ops)
	if f.Cfg.Elastic {
		s += " -torture.elastic"
	}
	return s
}

// Run executes one torture run to completion (or first failure) and
// returns its summary. The returned error, when non-nil, is a
// *Failure for model-check violations, or a plain error for harness
// breakage (deadlock, setup trouble).
func Run(cfg Config) (*Result, error) {
	st, err := newRunState(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return st.run()
}
