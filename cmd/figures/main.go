// Command figures regenerates every table and figure of the paper's
// evaluation and prints them as text, with the paper's qualitative
// expectation under each one. It runs the experiments of
// figures.Experiments, in that order; EXPERIMENTS.md holds each one's
// output at the default settings, and `go run ./tools/experiments`
// rewrites those blocks.
//
// Usage:
//
//	go run ./cmd/figures                            # everything
//	go run ./cmd/figures -only fig6                 # one experiment
//	go run ./cmd/figures -only smallfile,metadata   # a comma-separated few
//	go run ./cmd/figures -iters 20                  # more round trips per point
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/figures"
)

// idsOf lists the experiments' ids, in their order.
func idsOf(es []figures.Experiment) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.ID)
	}
	return out
}

// selectExperiments parses the -only flag into the experiments to run,
// in print order: comma-separated, case-insensitive, blanks ignored, ""
// meaning all of them. Any id that is not an experiment is an error,
// even next to ones that are.
func selectExperiments(only string) ([]figures.Experiment, error) {
	valid := idsOf(figures.Experiments)
	want := make(map[string]bool)
	for _, id := range strings.Split(strings.ToLower(only), ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	if len(want) == 0 {
		return figures.Experiments, nil
	}
	var sel []figures.Experiment
	for _, e := range figures.Experiments {
		if want[e.ID] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

func main() {
	// One simulated process is runnable at any instant: extra Ps only
	// add futex wake-ups between threads (bench/runner.go has numbers).
	runtime.GOMAXPROCS(1)
	cfg := figures.DefaultConfig()
	flag.IntVar(&cfg.Iters, "iters", cfg.Iters, "ping-pong iterations per message size")
	only := flag.String("only", "", "run only these comma-separated experiment ids ("+strings.Join(idsOf(figures.Experiments), ", ")+")")
	flag.Parse()

	sel, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, e := range sel {
		text, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(text)
	}
}
