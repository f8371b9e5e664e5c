// Command diff compares two benchmark reports written by
// `go run ./bench -json <file>`:
//
//	go run ./bench/diff old.json new.json
//
// It first lists every virtual value that drifted at all — the
// simulation is deterministic, so at one seed any difference, better or
// worse, is a behaviour change that CHANGES.md must name — and then
// gives a verdict for each workload x end-to-end metric against the
// benchmark's regression bounds, one block per workload, every ratio
// printed with its base. The exit status is 1 when a metric regressed
// beyond its bound or the reports do not cover the same runs, 0
// otherwise; drift alone does not fail the comparison.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/bench/metrics"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench/diff old.json new.json")
		os.Exit(2)
	}
	old, err := load(os.Args[1])
	if err == nil {
		var cur *metrics.Report
		if cur, err = load(os.Args[2]); err == nil {
			os.Exit(report(old, cur))
		}
	}
	fmt.Fprintln(os.Stderr, "diff:", err)
	os.Exit(2)
}

func load(path string) (*metrics.Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r metrics.Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Results) == 0 {
		return nil, fmt.Errorf("%s: no results (want the file written by `go run ./bench -json`)", path)
	}
	return &r, nil
}

// report prints the comparison and returns the exit status.
func report(old, cur *metrics.Report) int {
	cmp := metrics.Compare(old, cur)
	fmt.Printf("virtual drift (exact compare): %d value(s)\n", len(cmp.Drift))
	for _, d := range cmp.Drift {
		fmt.Println("  " + d)
	}
	fmt.Println("\nend-to-end verdicts (new against old):")
	fmt.Print(cmp.Table())
	status := 0
	for _, m := range cmp.Missing {
		fmt.Println("NOT COMPARABLE:", m)
		status = 1
	}
	for _, v := range cmp.Regressions() {
		fmt.Println("REGRESSION:", v)
		status = 1
	}
	for _, r := range cur.Results {
		if !r.Correct {
			fmt.Printf("INCORRECT: %s failed its own verification (%d failed of %d)\n", r.Workload, r.Failed, r.Attempted)
			status = 1
		}
	}
	if status == 0 {
		fmt.Println("no end-to-end metric is worse than its bound")
	}
	return status
}
