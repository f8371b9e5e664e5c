package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
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

// fakeModule writes a module at dir whose ./bench reports sim_mbps as
// mbps for every seed, the way the real bench's -json report does.
func fakeModule(t *testing.T, dir string, mbps int) {
	t.Helper()
	files := map[string]string{
		"go.mod":         "module fakebench\n\ngo 1.24\n",
		"BENCHMARK.json": `{"end_to_end": [{"name": "sim_mbps", "unit": "MB/s", "better": "higher"}], "per_layer": []}`,
		"bench/main.go": fmt.Sprintf(`package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	seed := flag.Int64("seed", 0, "")
	out := flag.String("json", "", "")
	flag.String("workload", "", "")
	flag.Parse()
	report := fmt.Sprintf(%q, *seed)
	if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
		panic(err)
	}
}
`, fmt.Sprintf(`{"results": [{"workload": "w", "seed": %%d, "metrics": {"sim_mbps": {"value": %d, "unit": "MB/s", "clock": "virtual"}}}]}`, mbps)),
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunOutsideAGitCheckout compares two plain directories from inside
// one of them, with git off the PATH: the module root comes from go.mod,
// and git is needed only to check out a revision.
func TestRunOutsideAGitCheckout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two bench binaries")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on the PATH")
	}
	head, base := filepath.Join(t.TempDir(), "head"), filepath.Join(t.TempDir(), "base")
	fakeModule(t, head, 110)
	fakeModule(t, base, 100)
	t.Setenv("PATH", filepath.Dir(goBin))
	t.Chdir(filepath.Join(head, "bench"))
	var out bytes.Buffer
	if err := run(base, "", "", "1-7", false, nil, &out); err != nil {
		t.Fatal(err)
	}
	want := "| sim_mbps (MB/s, higher) | 100 [100–100] | 110 | +10.00 | 7/7 | 0.0156 |  |"
	if !strings.Contains(out.String(), want) {
		t.Errorf("output:\n%s\nwant a row %q", out.String(), want)
	}
}
