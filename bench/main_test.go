package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/bench/metrics"
	"repro/bench/trace"
	"repro/bench/workload"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWhy    `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specLayer  `json:"per_layer"`
}

type specWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// buildSpec generates BENCHMARK.json's content from the metric tables.
func buildSpec() spec {
	s := spec{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range metrics.Workloads {
		s.Workloads = append(s.Workloads, specWhy{w.Name, w.Why})
	}
	for _, d := range metrics.DriverEndToEnd() {
		s.EndToEnd = append(s.EndToEnd, specMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range metrics.DriverPerLayer() {
		s.PerLayer = append(s.PerLayer, specLayer{d.Name, d.Unit, d.Better})
	}
	return s
}

// TestBenchmarkJSONMatchesTheMetricTables keeps BENCHMARK.json equal to
// what the metric tables generate, so a metric cannot be added to one
// and forgotten in the other. On a mismatch it logs the file the tables
// expect.
func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk spec
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildSpec(); !reflect.DeepEqual(onDisk, want) {
		expect, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the metric tables, which expect:\n%s", expect)
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 || len(onDisk.Workloads) < 2 || len(onDisk.Workloads) > 8 ||
		len(onDisk.EndToEnd) < 1 || len(onDisk.EndToEnd) > 16 || len(onDisk.PerLayer) < 1 || len(onDisk.PerLayer) > 128 {
		t.Errorf("BENCHMARK.json outside the contract's limits: %d s, %d workloads, %d + %d metrics",
			onDisk.RunSeconds, len(onDisk.Workloads), len(onDisk.EndToEnd), len(onDisk.PerLayer))
	}
	setup := false
	for _, m := range onDisk.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
}

// TestRunnerEmitsExactlyTheListedMetrics runs one workload at smoke
// scale through the real runner, untraced and traced, and checks that
// the driver line carries every metric BENCHMARK.json lists for that
// mode and no other, each with its unit; that no end-to-end metric is
// zero; and that every host per-layer metric was really measured.
func TestRunnerEmitsExactlyTheListedMetrics(t *testing.T) {
	opt := options{seed: 5, reps: metrics.MinHostReps, scale: 0.005}
	listed := buildSpec()
	for _, traced := range []bool{false, true} {
		res, rec, err := runWorkload("netpipe", opt, traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("traced=%v: smoke run incorrect: %v", traced, res.Errors)
		}
		want := map[string]string{}
		if traced {
			for _, m := range listed.PerLayer {
				want[m.Name] = m.Unit
			}
			if rec == nil || len(rec.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		} else {
			for _, m := range listed.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		line := driverLineOf(res)
		var got, names []string
		for name, v := range line.Metrics {
			got = append(got, name)
			if v.Unit != want[name] {
				t.Errorf("%s reported in %q, listed in %q", name, v.Unit, want[name])
			}
			if !traced && v.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", name)
			}
		}
		for name := range want {
			names = append(names, name)
		}
		sort.Strings(got)
		sort.Strings(names)
		if !reflect.DeepEqual(got, names) {
			t.Errorf("traced=%v: the driver line's metrics are not the listed ones:\n got %v\nwant %v", traced, got, names)
		}
		for name := range res.Metrics {
			if _, ok := metrics.Find(name); !ok {
				t.Errorf("runner emits %s, which no table lists", name)
			}
		}
		if traced {
			for _, d := range metrics.PerLayer {
				if _, ok := res.Metrics[d.Name]; d.Clock == metrics.Host && !ok {
					t.Errorf("traced run did not measure host per-layer metric %s", d.Name)
				}
			}
		}
	}
}

// TestAllocSharesDoNotCarryOverBetweenWorkloads profiles two workloads
// back to back in one process, as `go run ./bench` and -check do. The
// heap profile accumulates from process start, so without a baseline
// netpipe — which never enters rfsrv — would inherit meta_storm's rfsrv
// allocations.
func TestAllocSharesDoNotCarryOverBetweenWorkloads(t *testing.T) {
	rfsrvShare := func(name string) float64 {
		plan, err := workload.New(name, workload.Config{Seed: 5, Scale: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		rep := func(tr *trace.Recorder) (*workload.Outcome, error) { return plan.Run(tr) }
		_, alloc, err := profileReps(rep, 1e-9) // one repetition
		if err != nil {
			t.Fatal(err)
		}
		return alloc.ByPackage["rfsrv"]
	}
	if got := rfsrvShare("meta_storm"); got == 0 {
		t.Fatal("meta_storm's heap profile shows no rfsrv allocation: the test would prove nothing")
	}
	if got := rfsrvShare("netpipe"); got != 0 {
		t.Errorf("netpipe's rfsrv.host_alloc_share is %v after meta_storm ran in the same process, want 0", got)
	}
}

// TestRunnerFailuresCountInFailedOpsShare: a failure the runner itself
// finds (here: host metrics refused for too few repetitions) is no
// operation's, yet it must show in failed, failed_ops_share and the
// driver's ok_ops_share — not only in correct.
func TestRunnerFailuresCountInFailedOpsShare(t *testing.T) {
	res, _, err := runWorkload("netpipe", options{seed: 5, reps: metrics.MinHostReps - 1, scale: 0.005}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || len(res.Errors) == 0 {
		t.Fatalf("a run of %d repetitions passed: correct %v, failed %d, errors %v", res.Reps, res.Correct, res.Failed, res.Errors)
	}
	share := res.Metrics["failed_ops_share"].Value
	if want := float64(res.Failed) / float64(res.Attempted); share != want || share <= 0 {
		t.Errorf("failed_ops_share %v with %d of %d failed, want %v", share, res.Failed, res.Attempted, want)
	}
	if ok := driverLineOf(res).Metrics[metrics.OkOpsShare].Value; ok != 1-share {
		t.Errorf("driver ok_ops_share %v, want 1 - failed_ops_share = %v", ok, 1-share)
	}
}
