// Command torture is the soak driver for the randomized
// fault-schedule harness (internal/torture, DESIGN.md §12): it runs
// successive seeds of both modes until a wall-clock budget expires,
// printing one summary line per run and writing every failure —
// the one-line reproduction command plus the minimized trace — to its
// own file, so a CI job can upload the failing seeds as artifacts.
//
// Usage:
//
//	go run ./cmd/torture -torture.duration 10m
//	go run ./cmd/torture -torture.duration 30s -torture.mode ns
//	go run ./cmd/torture -torture.seed 123456 -torture.duration 1m
//
// Every choice is seed-derived: the starting seed defaults to the
// wall clock but is always printed, so any soak — scheduled or local
// — replays exactly with -torture.seed. Failures exit nonzero after
// the budget (the soak keeps hunting; one bad seed should not hide
// others).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/torture"
)

func main() {
	duration := flag.Duration("torture.duration", 10*time.Minute, "wall-clock soak budget")
	startSeed := flag.Int64("torture.seed", 0, "first seed (0: derive from the wall clock, printed for replay)")
	mode := flag.String("torture.mode", "both", "mode(s) to soak: data, ns or both")
	elastic := flag.Bool("torture.elastic", false, "add membership bounces (stop-world retire+rejoin) to every run's schedule")
	outDir := flag.String("torture.out", "torture-failures", "directory for per-failure repro files")
	flag.Parse()

	seed := *startSeed
	if seed == 0 {
		seed = time.Now().UnixNano() & 0x7FFFFFFF
	}
	var modes []torture.Mode
	switch *mode {
	case "data":
		modes = []torture.Mode{torture.ModeData}
	case "ns":
		modes = []torture.Mode{torture.ModeNS}
	case "both":
		modes = []torture.Mode{torture.ModeData, torture.ModeNS}
	default:
		fmt.Fprintf(os.Stderr, "torture: bad -torture.mode %q (data, ns or both)\n", *mode)
		os.Exit(2)
	}
	fmt.Printf("torture soak: start seed %d, modes %v, elastic %v, budget %v\n", seed, modes, *elastic, *duration)

	deadline := time.Now().Add(*duration)
	first, runs, failures := seed, 0, 0
	for time.Now().Before(deadline) {
		for _, m := range modes {
			cfg := torture.Config{Seed: seed, Mode: m, Elastic: *elastic}
			res, err := torture.Run(cfg)
			runs++
			if err != nil {
				failures++
				fmt.Printf("FAIL %s seed %d: %v\n", m, seed, err)
				if werr := writeFailure(*outDir, m, seed, err); werr != nil {
					fmt.Fprintf(os.Stderr, "torture: recording failure: %v\n", werr)
				}
				continue
			}
			fmt.Printf("ok   %s seed %d: %d ops, %d kills %d stalls %d strikes %d bounces, %d in-doubt, %.0f ops/s, recovery mean %v max %v\n",
				m, seed, res.Ops, res.Kills, res.Stalls, res.Strikes, res.Bounces,
				res.RenameInDoubts, res.OpsPerSec, res.RecoveryMean, res.RecoveryMax)
		}
		seed++
	}
	fmt.Printf("torture soak: %d seeds, %d runs, %d failures\n", seed-first, runs, failures)
	if failures > 0 {
		os.Exit(1)
	}
}

// writeFailure records one failing run under dir: the full failure
// rendering (repro command + minimized trace) named by mode and seed,
// ready for artifact upload and for graduating the seed into the
// tier-1 corpus.
func writeFailure(dir string, m torture.Mode, seed int64, err error) error {
	if mkerr := os.MkdirAll(dir, 0o755); mkerr != nil {
		return mkerr
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.txt", m, seed))
	return os.WriteFile(name, []byte(err.Error()+"\n"), 0o644)
}
