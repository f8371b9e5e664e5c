package main

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/bench/metrics"
)

// fixture returns ten seed pairs of one-workload reports: the head
// lowers sim_p50_us by 1 µs on every seed, loses 10 % host time on all
// but one, moves sim_mbps on none, and fails nothing.
func fixture() []pair {
	var pairs []pair
	for seed := int64(1); seed <= 10; seed++ {
		p50 := 18.4 + 0.1*float64(seed)
		mk := func(p50, host float64) *metrics.Report {
			return &metrics.Report{Results: []metrics.Result{{
				Workload: "meta_storm", Seed: seed,
				Metrics: map[string]metrics.Value{
					"sim_p50_us":       {Value: p50, Unit: "us", Clock: metrics.Virtual},
					"sim_mbps":         {Value: 237, Unit: "MB/s", Clock: metrics.Virtual},
					"failed_ops_share": {Value: 0, Unit: "ratio", Clock: metrics.Virtual},
					"host_us_per_op":   {Value: host, Unit: "us", Clock: metrics.Host},
				},
			}}}
		}
		host := 50.0
		if seed == 4 {
			host = 60 // the one seed the head's host time wins
		}
		pairs = append(pairs, pair{seed: seed, base: mk(p50, host), head: mk(p50-1, 55)})
	}
	return pairs
}

var fixtureDefs = []metrics.Def{
	{Name: "sim_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "sim_p50_us", Unit: "us", Better: "lower"},
	{Name: "host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "ok_ops_share", Unit: "ratio", Better: "higher"},
	{Name: "rfsrv.failovers", Unit: "count", Better: "lower"}, // traced only: no row
}

func TestSignTestIsExact(t *testing.T) {
	for _, tc := range []struct {
		w, l int
		p    float64
	}{
		{10, 0, 2.0 / 1024}, {0, 10, 2.0 / 1024}, {9, 1, 22.0 / 1024}, {5, 5, 1}, {0, 0, 1}, {1, 0, 1},
	} {
		if got := signTest(tc.w, tc.l); math.Abs(got-tc.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %g, want %g", tc.w, tc.l, got, tc.p)
		}
	}
}

func TestTablesOnFixtureReports(t *testing.T) {
	out := tables(fixture(), fixtureDefs)
	if len(out) != 1 {
		t.Fatalf("%d tables, want one for meta_storm", len(out))
	}
	lines := strings.Split(strings.TrimSpace(out[0]), "\n")
	want := []string{
		"### meta_storm",
		"",
		"| metric | base median [Q1–Q3] | head median | Δ % | wins/n | sign p | |",
		"|---|---|---|---|---|---|---|",
		"| sim_mbps (MB/s, higher) | 237 [237–237] | 237 | +0.00 | 0/10 | 1 |  |",
		"| sim_p50_us (us, lower) | 18.95 [18.725–19.175] | 17.95 | -5.28 | 10/10 | 0.00195 |  |",
		"| host_us_per_op (us, lower) | 50 [50–50] | 55 | +10.00 | 1/10 | 0.0215 | **worse** host |",
		"| ok_ops_share (ratio, higher) | 1 [1–1] | 1 | +0.00 | 0/10 | 1 |  |",
	}
	if !slices.Equal(lines, want) {
		t.Errorf("table:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

func TestSameFlagsDrift(t *testing.T) {
	same := fixture()
	for i := range same {
		same[i].head = same[i].base
	}
	var out bytes.Buffer
	if err := checkSame(same, &out); err != nil {
		t.Errorf("identical runs: %v", err)
	}
	out.Reset()
	if err := checkSame(fixture(), &out); err == nil || !strings.Contains(out.String(), "sim_p50_us") {
		t.Errorf("runs whose sim_p50_us differs: %v, %q", err, out.String())
	}
}

func TestParseSeeds(t *testing.T) {
	if got, err := parseSeeds("3-6"); err != nil || !slices.Equal(got, []int64{3, 4, 5, 6}) {
		t.Errorf("3-6: %v %v", got, err)
	}
	if got, err := parseSeeds("11,13"); err != nil || !slices.Equal(got, []int64{11, 13}) {
		t.Errorf("11,13: %v %v", got, err)
	}
	for _, bad := range []string{"6-3", "x", "1-"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}
