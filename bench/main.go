// Command bench is the repository benchmark: five seeded, closed-loop
// workloads measured on both clocks, per-layer utilisation and
// counters read from outside the program, and a traced layer ladder.
//
//	go run ./bench                          every workload, untraced then traced
//	go run ./bench -workload netpipe        one workload
//	go run ./bench -check                   the full set twice, diffed against itself
//	go run ./bench -json out.json           also write the report for bench/diff
//
// The benchmark driver calls it as
//
//	go run ./bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output: one JSON object with the
// run's correctness, operation counts and metrics (the end-to-end set
// with --trace 0, the per-layer set with --trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/bench/metrics"
)

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	reps     int
	trace    string
	check    bool
	jsonPath string
	// scale is the fraction of the full operation counts: 1 from the
	// command line, smaller only in tests.
	scale float64
}

// outDir is where result and Chrome trace files go (git-ignored),
// relative to the module root the command is run from.
const outDir = "bench/out"

// runSeconds is BENCHMARK.json's run_seconds: how long one run
// measures when -reps does not fix the repetition count.
const runSeconds = 15

func main() {
	// Heap-profile sampling stays off except around the traced run's
	// profiled repetitions, so the untraced run pays nothing for it.
	runtime.MemProfileRate = 0

	opt := options{scale: 1}
	flag.StringVar(&opt.workload, "workload", "", "workload to run (default: all of "+strings.Join(metrics.WorkloadNames(), ", ")+")")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for sizes, offsets, op order, names and the kill instant")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "host seconds one run measures for (at least 7 repetitions regardless)")
	flag.IntVar(&opt.reps, "reps", 0, "fixed number of measured repetitions (>= 7) instead of -seconds")
	flag.StringVar(&opt.trace, "trace", "both", "0: untraced run (end-to-end metrics), 1: traced run (per-layer metrics), both")
	flag.BoolVar(&opt.check, "check", false, "run the full set twice and apply bench/diff to the two reports")
	flag.StringVar(&opt.jsonPath, "json", "", "write the report (every result of this invocation) to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if opt.reps != 0 && opt.reps < metrics.MinHostReps {
		fatal(fmt.Errorf("-reps %d: a host metric is not reported from fewer than %d repetitions", opt.reps, metrics.MinHostReps))
	}
	var traced []bool
	switch opt.trace {
	case "0", "false":
		traced = []bool{false}
	case "1", "true":
		traced = []bool{true}
	case "both":
		traced = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", opt.trace))
	}
	names := metrics.WorkloadNames()
	if opt.workload != "" {
		names = []string{opt.workload}
	}

	if opt.check {
		os.Exit(selfCheck(opt, names))
	}
	report, ok := runSet(opt, names, traced, true)
	if opt.jsonPath != "" {
		if err := writeJSON(opt.jsonPath, report); err != nil {
			fatal(err)
		}
	}
	if len(report.Results) == 1 {
		printDriverLine(&report.Results[0])
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runSet runs every named workload in every requested mode, prints each
// result and returns the report and whether every run was correct.
func runSet(opt options, names []string, traced []bool, files bool) (*metrics.Report, bool) {
	report := &metrics.Report{}
	ok := true
	for _, name := range names {
		for _, tr := range traced {
			res, rec, err := runWorkload(name, opt, tr)
			if err != nil {
				fatal(err)
			}
			printResult(res)
			ok = ok && res.Correct
			report.Results = append(report.Results, *res)
			if !files {
				continue
			}
			base := fmt.Sprintf("%s-seed%d", name, opt.seed)
			if tr {
				base += "-traced"
			}
			if err := writeJSON(filepath.Join(outDir, base+".json"), res); err != nil {
				fatal(err)
			}
			if rec != nil {
				if err := writeTrace(filepath.Join(outDir, base+".trace.json"), rec); err != nil {
					fatal(err)
				}
			}
		}
	}
	return report, ok
}

// selfCheck is `go run ./bench -check`: two complete sets of runs of
// the same code must agree within the benchmark's own bounds — every
// virtual value identical, every end-to-end metric inside its bound,
// and no failed operation.
func selfCheck(opt options, names []string) int {
	modes := []bool{false, true}
	first, ok1 := runSet(opt, names, modes, false)
	second, ok2 := runSet(opt, names, modes, false)
	cmp := metrics.Compare(first, second)
	fmt.Printf("\n== self-check, seed %d: second set against the first ==\n", opt.seed)
	fmt.Print(cmp.Table())
	status := 0
	for _, d := range cmp.Drift {
		fmt.Println("VIRTUAL DRIFT:", d)
		status = 1
	}
	for _, m := range cmp.Missing {
		fmt.Println("MISSING:", m)
		status = 1
	}
	for _, v := range cmp.Regressions() {
		fmt.Println("OUT OF BOUND:", v)
		status = 1
	}
	if !ok1 || !ok2 {
		fmt.Println("INCORRECT: a run failed its own verification")
		status = 1
	}
	if status == 0 {
		fmt.Println("self-check passed: every virtual value identical, every end-to-end metric within its bound")
	}
	return status
}

// printResult prints every metric of a result by name with its unit.
func printResult(r *metrics.Result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s (%s) seed %d scale %g: %d reps, %.1f s host, nproc %d, %s ==\n",
		r.Workload, mode, r.Seed, r.Scale, r.Reps, r.HostSeconds, r.NProc, r.GoVersion)
	show := func(defs []metrics.Def) {
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%-34s %18.6f %-6s", d.Name, v.Value, v.Unit)
			if v.Stat != "" {
				line += " (" + v.Stat + ")"
			}
			if v.N > 0 {
				line += fmt.Sprintf(" n=%d", v.N)
			}
			if v.Reps != nil {
				line += fmt.Sprintf(" reps=%d q1=%.6g q3=%.6g", v.Reps.N, v.Reps.Q1, v.Reps.Q3)
			}
			fmt.Println(line)
		}
	}
	show(metrics.EndToEnd)
	if r.Traced {
		show(metrics.PerLayer)
	}
	if _, ok := r.Metrics["paper_err_pct"]; !ok {
		fmt.Println("paper_err_pct                      omitted: no paper reference for this workload (unvalidated beyond the paper)")
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Println("  FAILED:", e)
	}
}

// driverLine is the one-line result the benchmark driver parses.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLineOf builds the driver's result line: every BENCHMARK.json
// end_to_end metric for an untraced run, every per_layer metric for a
// traced one. A per-layer metric the workload does not exercise reads 0.
func driverLineOf(r *metrics.Result) driverLine {
	defs := metrics.DriverEndToEnd()
	if r.Traced {
		defs = metrics.DriverPerLayer()
	}
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{Value: r.DriverValue(d.Name), Unit: d.Unit}
	}
	return line
}

// printDriverLine prints the result as the last line of standard output.
func printDriverLine(r *metrics.Result) {
	b, err := json.Marshal(driverLineOf(r))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
