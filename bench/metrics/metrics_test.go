package metrics

import (
	"strings"
	"testing"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := TopPercentile(c.n); got != c.want {
			t.Errorf("TopPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := TopPercentile(c.n); q > 0 && Beyond(c.n, q) < MinBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, Beyond(c.n, q), q*100)
		}
	}
	if got := Beyond(1000, 0.99); got != 10 {
		t.Errorf("1000 samples have %d beyond the p99, want exactly 10", got)
	}
}

func TestSummarizeReportsCountAndFallsBackToMax(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // unsorted on purpose
	}
	s := Summarize(samples)
	if s.N != 1000 || s.P50 != 500 || s.Max != 1000 {
		t.Fatalf("summary %+v", s)
	}
	if v, stat := s.P99OrMax(); stat != "p99" || v != 990 {
		t.Errorf("p99 of 1..1000 = %v (%s), want 990 (p99)", v, stat)
	}
	small := Summarize(samples[:999])
	if v, stat := small.P99OrMax(); stat != "max" || v != small.Max {
		t.Errorf("999 samples report %v as %s, want the max", v, stat)
	}
	if small.N != 999 || small.TailQ != 0.9 {
		t.Errorf("999 samples: n=%d tail q=%v, want 999 and 0.9", small.N, small.TailQ)
	}
}

func TestHostQuartilesRefuseFewRepetitions(t *testing.T) {
	if _, err := HostQuartiles([]float64{1, 2, 3, 4, 5, 6}); err == nil {
		t.Error("six repetitions accepted, want a refusal below seven")
	}
	q, err := HostQuartiles([]float64{7, 1, 6, 2, 5, 3, 4})
	if err != nil || q.N != 7 || q.Median != 4 || q.Q1 != 2.5 || q.Q3 != 5.5 {
		t.Errorf("quartiles of 1..7 = %+v, %v", q, err)
	}
}

func TestNamesAreLegalAndUnique(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !ValidName(name) {
			t.Errorf("illegal name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]Def(nil), EndToEnd...), PerLayer...) {
		check(d.Name)
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if len(d.Unit) == 0 || len(d.Unit) > 16 {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	if n := len(PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", strings.Repeat("x", 65)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

func result(workload string, vals map[string]float64) Result {
	r := Result{Workload: workload, Seed: 1, Scale: 1, Correct: true, Metrics: map[string]Value{}}
	for name, v := range vals {
		d, _ := Find(name)
		r.Metrics[name] = Value{Value: v, Unit: d.Unit, Clock: d.Clock}
	}
	return r
}

func TestCompareListsDriftAndJudgesBounds(t *testing.T) {
	old := &Report{Results: []Result{result("netpipe", map[string]float64{
		"sim_mbps": 200, "sim_p50_us": 10, "host_us_per_op": 100, "host_allocs_per_op": 80, "failed_ops_share": 0, "paper_err_pct": 3.8,
	})}}
	cur := &Report{Results: []Result{result("netpipe", map[string]float64{
		"sim_mbps": 199.9, "sim_p50_us": 10.2, "host_us_per_op": 109, "host_allocs_per_op": 82, "failed_ops_share": 0.001, "paper_err_pct": 4.5,
	})}}
	cmp := Compare(old, cur)
	// Three virtual values moved; each is listed whether or not it is
	// within its bound.
	if len(cmp.Drift) != 4 {
		t.Errorf("drift lists %d values, want 4 (sim_mbps, sim_p50_us, failed_ops_share, paper_err_pct): %v", len(cmp.Drift), cmp.Drift)
	}
	regressed := map[string]bool{}
	for _, v := range cmp.Regressions() {
		regressed[v.Metric] = true
	}
	want := map[string]bool{
		"sim_p50_us":         true,  // +2 % against a 1 % bound
		"host_allocs_per_op": true,  // +2.5 % against 2 %
		"failed_ops_share":   true,  // any increase
		"sim_mbps":           false, // -0.05 %
		"host_us_per_op":     false, // +9 % against 10 %
		"paper_err_pct":      false, // +0.7 points against 1 point
	}
	for m, w := range want {
		if regressed[m] != w {
			t.Errorf("%s regressed = %v, want %v", m, regressed[m], w)
		}
	}
	if same := Compare(old, old); len(same.Drift) != 0 || len(same.Regressions()) != 0 || len(same.Missing) != 0 {
		t.Errorf("a report differs from itself: %+v", same)
	}
	reseeded := &Report{Results: []Result{result("netpipe", map[string]float64{"sim_mbps": 201})}}
	reseeded.Results[0].Seed = 2
	if cmp := Compare(old, reseeded); len(cmp.Missing) != 1 || len(cmp.Drift) != 0 {
		t.Errorf("reports of two seeds were compared value by value: %+v", cmp)
	}
	other := &Report{Results: []Result{result("orfs_file", map[string]float64{"sim_mbps": 1})}}
	if cmp := Compare(old, other); len(cmp.Missing) != 2 {
		t.Errorf("disjoint reports: missing = %v, want one line per side", cmp.Missing)
	}
}

func TestDriverViewIsDerivedFromTheResult(t *testing.T) {
	r := result("failover", map[string]float64{"failed_ops_share": 0.25, "sim_recovery_ms": 5.9, "sim_mbps": 489})
	for name, want := range map[string]float64{
		OkOpsShare: 0.75, "e2e.sim_recovery_ms": 5.9, "e2e.paper_err_pct": 0, "sim_mbps": 489,
	} {
		if got := r.DriverValue(name); got != want {
			t.Errorf("DriverValue(%s) = %v, want %v", name, got, want)
		}
	}
	for _, d := range DriverEndToEnd() {
		if d.Unit == "" || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("driver end-to-end metric %+v: no unit, or bound outside (0, 0.25]", d)
		}
		if _, stored := Find(d.Name); stored == (d.Name == OkOpsShare) {
			t.Errorf("%s: only ok_ops_share may be a driver-only name", d.Name)
		}
	}
	if got, want := len(DriverPerLayer()), len(PerLayer)+3; got != want {
		t.Errorf("%d driver per-layer metrics, want PerLayer plus the 3 workload-specific end-to-end ones = %d", got, want)
	}
}
