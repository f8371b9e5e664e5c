package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/bench/metrics"
	"repro/bench/trace"
)

// smoke is the scale the tests run the workloads at: 1/50 of the
// benchmark, floors applied.
const smoke = 0.02

// generated returns the seed-derived inputs of a plan, for comparing
// two plans.
func generated(t *testing.T, name string, seed int64) any {
	t.Helper()
	pl, err := New(name, Config{Seed: seed, Scale: smoke})
	if err != nil {
		t.Fatal(err)
	}
	switch p := pl.(type) {
	case *netpipePlan:
		return []any{p.sizes, p.offs}
	case *orfsFilePlan:
		return []any{p.ops, p.base[0][:4096]}
	case *streamPlan:
		return []any{p.start, p.ownOffs, p.shareOffs, p.content[0][:4096]}
	case *metaPlan:
		return []any{p.ops, p.startDirs}
	case *failoverPlan:
		return []any{p.ops, p.victim, p.jitter}
	}
	t.Fatalf("unknown plan type %T", pl)
	return nil
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range Names() {
		a, b, c := generated(t, name, 7), generated(t, name, 7), generated(t, name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
}

func TestWorkloadNamesMatchTheMetricTables(t *testing.T) {
	if got, want := strings.Join(Names(), ","), "cluster_stream,failover,meta_storm,netpipe,orfs_file"; got != want {
		t.Fatalf("implemented workloads %s, want %s", got, want)
	}
	for _, n := range metrics.WorkloadNames() {
		if planners[n] == nil {
			t.Errorf("metrics lists workload %s, nothing implements it", n)
		}
	}
	for i, c := range metrics.OpClasses {
		if Class(i).String() != c {
			t.Errorf("class %d is %s here, %s in the metric tables", i, Class(i), c)
		}
	}
}

// TestSmokeRunsVerifyAndCatchSabotage runs every workload at smoke
// scale three times: clean (must pass its own verifier), with one byte
// corrupted under an uncached read, and with one operation silently
// dropped — the verifier must notice both. (That repetitions of one
// seed agree on the virtual clock is checked by the runner on every
// real run, and by its test.) It also checks that, together with the
// ladder, the clean runs emit every virtual per-layer metric the
// metric tables publish.
func TestSmokeRunsVerifyAndCatchSabotage(t *testing.T) {
	emitted := map[string]bool{}
	for _, name := range Names() {
		run := func(f Fault) *Outcome {
			pl, err := New(name, Config{Seed: 3, Scale: smoke, Fault: f})
			if err != nil {
				t.Fatal(err)
			}
			out, err := pl.Run(nil)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, f, err)
			}
			return out
		}
		clean := run(Fault{})
		if clean.Failed != 0 || len(clean.Errors) != 0 {
			t.Errorf("%s: clean smoke run failed %d ops: %v", name, clean.Failed, clean.Errors)
		}
		if clean.Ops == 0 || clean.Payload == 0 || clean.Window <= 0 || len(clean.Samples) != clean.Ops {
			t.Errorf("%s: ops %d, payload %d, window %v, %d samples", name, clean.Ops, clean.Payload, clean.Window, len(clean.Samples))
		}
		for k := range clean.Layer {
			emitted[k] = true
		}
		for k := range clean.E2E {
			emitted[k] = true
		}
		third := clean.Ops / 3
		if out := run(Fault{CorruptOp: third}); out.Failed == 0 || len(out.Errors) == 0 {
			t.Errorf("%s: a corrupted byte under op %d went unnoticed", name, third)
		}
		if out := run(Fault{DropOp: third}); out.Failed == 0 || len(out.Errors) == 0 {
			t.Errorf("%s: dropping op %d went unnoticed", name, third)
		}
	}
	ladder, err := Ladder(trace.New())
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	for k := range ladder {
		emitted[k] = true
	}
	for _, d := range metrics.PerLayer {
		if d.Clock == metrics.Virtual && !strings.HasPrefix(d.Name, "op.") && !emitted[d.Name] {
			t.Errorf("no workload and no ladder rung emits per-layer metric %s", d.Name)
		}
	}
	for k := range emitted {
		if _, ok := metrics.Find(k); !ok && !strings.HasSuffix(k, "_host_ns_64k") {
			t.Errorf("metric %s is emitted but not in the metric tables", k)
		}
	}
}

func TestLadderSelfTimes(t *testing.T) {
	tr := trace.New()
	out, err := Ladder(tr)
	if err != nil {
		t.Fatal(err)
	}
	self := tr.SelfTimes()
	for _, size := range []string{"4k", "64k"} {
		top, cluster := -1, -1
		for i, s := range tr.Spans {
			switch s.Name {
			case "orfs_direct_" + size:
				top = i
			case "cluster_" + size:
				cluster = i
			}
		}
		if top < 0 || cluster < 0 {
			t.Fatalf("%s: ladder spans missing", size)
		}
		for i := range tr.Spans {
			if chained(tr, i, top) && self[i] < 0 {
				t.Errorf("%s: rung %s has negative self time %v", size, tr.Spans[i].Name, self[i])
			}
		}
		if self[cluster] != 0 {
			t.Errorf("%s: one-server cluster self time %v, want 0", size, self[cluster])
		}
		if out["ladder.orfs_direct_us_"+size] != float64(tr.Spans[top].VDur())/1e3 {
			t.Errorf("%s: reported top rung disagrees with its span", size)
		}
	}
	if out["gm.register_us_64k"]+out["gm.deregister_us_64k"] <= out["hw.copy_us_64k"] {
		t.Errorf("Fig 1(b): register+deregister of 64 KB (%v+%v us) should cost more than copying it (%v us)",
			out["gm.register_us_64k"], out["gm.deregister_us_64k"], out["hw.copy_us_64k"])
	}
}
