package torture

// Tier-1 entry points: the fixed seed corpus (seconds, runs under
// -race in CI), the flag-gated single-seed replay that Failure.Repro
// prints, and a byte-for-byte determinism check.

import (
	"flag"
	"fmt"
	"reflect"
	"testing"
)

var (
	flagSeed     = flag.Int64("torture.seed", 0, "replay this torture seed (TestTortureSeed)")
	flagSchedule = flag.Int64("torture.schedule", 0, "fault-schedule seed for the replay (0 derives it from the seed)")
	flagMode     = flag.String("torture.mode", "data", "torture mode for the replay (data or ns)")
	flagServers  = flag.Int("torture.servers", 0, "server count for the replay (0: default)")
	flagReplicas = flag.Int("torture.replicas", 0, "replication factor for the replay (0: default)")
	flagClients  = flag.Int("torture.clients", 0, "client count for the replay (0: default)")
	flagOps      = flag.Int("torture.ops", 0, "per-client op count for the replay (0: default)")
	flagElastic  = flag.Bool("torture.elastic", false, "add membership bounces to the replay's schedule")
)

// shortCorpus is the fixed tier-1 seed set: the same runs every
// time, mixing both modes and a few geometries. Failures found by the
// soak binary graduate into this list by seed.
var shortCorpus = []Config{
	{Seed: 1}, {Seed: 2}, {Seed: 3}, {Seed: 4}, {Seed: 5},
	{Seed: 6, Clients: 4}, {Seed: 7, Servers: 6}, {Seed: 8, Replicas: 3},
	{Seed: 9, Ops: 160}, {Seed: 10, Servers: 5, Clients: 2},
	{Seed: 11, Mode: ModeNS}, {Seed: 12, Mode: ModeNS}, {Seed: 13, Mode: ModeNS},
	{Seed: 14, Mode: ModeNS}, {Seed: 15, Mode: ModeNS},
	{Seed: 16, Mode: ModeNS, Clients: 4}, {Seed: 17, Mode: ModeNS, Servers: 6},
	{Seed: 18, Mode: ModeNS, Ops: 160}, {Seed: 19, Mode: ModeNS, Servers: 5, Clients: 2},
	{Seed: 20, Mode: ModeNS, Replicas: 3},
	{Seed: 21, Elastic: true}, {Seed: 22, Elastic: true, Clients: 2},
	{Seed: 23, Mode: ModeNS, Elastic: true, Ops: 240},
	{Seed: 24, Mode: ModeNS, Elastic: true, Servers: 6, Ops: 240},
	// A read whose data is still queued in a stalled server NIC when a
	// truncate of the same file is served: panicked with "mem: read from
	// unallocated frame" as soon as the server kept two receives posted,
	// until read replies held their frames (rfsrv.Server.readExtents).
	{Seed: 1116},
	// Short or zero-filled shared reads: a readmitted server came back
	// at a replayed exact size — truncating again the new era other
	// clients had written to it, or missing the grow publishes — until
	// Reinstate re-imaged sizes as state (DESIGN.md §13).
	{Seed: 1000}, {Seed: 1009}, {Seed: 1215},
	{Seed: 9000094, Elastic: true}, {Seed: 9000222, Elastic: true},
	{Seed: 9020015, Elastic: true}, {Seed: 9030017, Elastic: true},
}

func TestTortureShort(t *testing.T) {
	for _, cfg := range shortCorpus {
		cfg := cfg
		name := fmt.Sprintf("%s-seed%d", cfg.withDefaults().Mode, cfg.Seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d ops (%d r / %d w / %d meta), %d kills %d stalls %d strikes %d bounces, %d reinstates (%d replayed ops, %d B replayed), %d in-doubt (%d auto-resolved), %d busy-refused, %.0f ops/s, recovery mean %v max %v over %d samples",
				res.Ops, res.Reads, res.Writes,
				res.Creates+res.Unlinks+res.Renames+res.Readdirs+res.Truncates+res.Getattrs,
				res.Kills, res.Stalls, res.Strikes, res.Bounces,
				res.Reinstates, res.ResyncOps, res.ResyncBytes,
				res.RenameInDoubts, res.RenameAutoResolves, res.BusyRefusals,
				res.OpsPerSec, res.RecoveryMean, res.RecoveryMax, res.RecoverySamples)
		})
	}
}

// TestTortureSeed replays one run from its flags — the command line
// Failure.Repro prints. Without -torture.seed it is skipped.
func TestTortureSeed(t *testing.T) {
	if *flagSeed == 0 && *flagSchedule == 0 {
		t.Skip("set -torture.seed (and friends) to replay a run")
	}
	cfg := Config{
		Seed: *flagSeed, ScheduleSeed: *flagSchedule, Mode: Mode(*flagMode),
		Servers: *flagServers, Replicas: *flagReplicas, Clients: *flagClients,
		Ops: *flagOps, Elastic: *flagElastic, Logf: t.Logf,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replay clean: %d ops, %d faults", res.Ops, res.Kills+res.Stalls+res.Strikes)
}

// TestTortureDeterminism runs the same seed twice and demands the two
// executions agree record-for-record — the property every printed
// repro line depends on.
func TestTortureDeterminism(t *testing.T) {
	for _, mode := range []Mode{ModeData, ModeNS} {
		cfg := Config{Seed: 42, Mode: mode, Ops: 80}
		runOnce := func() (*Result, []OpRecord) {
			st, err := newRunState(cfg.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.run()
			if err != nil {
				t.Fatal(err)
			}
			return res, st.log
		}
		resA, logA := runOnce()
		resB, logB := runOnce()
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("%s: two runs of seed %d disagree:\n%+v\n%+v", mode, cfg.Seed, resA, resB)
		}
		if len(logA) != len(logB) {
			t.Fatalf("%s: log lengths diverge: %d vs %d", mode, len(logA), len(logB))
		}
		for i := range logA {
			if logA[i] != logB[i] {
				t.Fatalf("%s: log record %d diverges:\n%s\n%s", mode, i, logA[i].String(), logB[i].String())
			}
		}
	}
}
