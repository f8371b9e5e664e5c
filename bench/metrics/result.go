package metrics

// The result-file schema and the comparison the diff tool and
// `go run ./bench -check` share.

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock Clock   `json:"clock"`
	// N is the number of samples behind a latency statistic.
	N int `json:"n,omitempty"`
	// Stat names the statistic when it is not the metric's nominal one
	// ("max" where a class is too small for a p99).
	Stat string `json:"stat,omitempty"`
	// Reps holds the quartiles over repetitions of a host metric.
	Reps *Quartiles `json:"reps,omitempty"`
}

// Result is one workload's run.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Scale     float64  `json:"scale"`
	Traced    bool     `json:"traced"`
	Reps      int      `json:"reps"` // measured repetitions (the discarded first one not counted)
	NProc     int      `json:"nproc"`
	GoVersion string   `json:"go_version"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Errors    []string `json:"errors,omitempty"`
	// HostSeconds is how long the whole run took on the host.
	HostSeconds float64          `json:"host_seconds"`
	Metrics     map[string]Value `json:"metrics"`
}

// Report is a set of results: what `go run ./bench -json <file>`
// writes and `go run ./bench/diff` reads.
type Report struct {
	Results []Result `json:"results"`
}

// key identifies a result within a report.
func (r *Result) key() string {
	k := r.Workload
	if r.Traced {
		k += " (traced)"
	}
	return k
}

// Verdict is the comparison of one end-to-end metric of one workload.
type Verdict struct {
	Workload, Metric string
	Old, New         float64
	Unit             string
	// Worse is the share of the old value by which the new one is
	// worse (negative when it is better); for paper_err_pct it is in
	// percentage points.
	Worse float64
	Bound float64
	// Regressed is true when Worse exceeds Bound.
	Regressed bool
}

// String renders the verdict as one table cell, ratio with its base.
func (v Verdict) String() string {
	state := "ok"
	if v.Regressed {
		state = "REGRESSED"
	}
	return fmt.Sprintf("%s %s: %.6g -> %.6g %s (%+.2f%% of %.6g, bound %.2f%%) %s",
		v.Workload, v.Metric, v.Old, v.New, v.Unit, v.Worse*100, v.Old, v.Bound*100, state)
}

// Comparison is what Compare found.
type Comparison struct {
	// Drift lists every virtual value that differs at all between the
	// two reports (exact compare): the simulation is deterministic, so
	// each line is a behaviour change CHANGES.md must name.
	Drift []string
	// Verdicts holds one entry per workload x end-to-end metric.
	Verdicts []Verdict
	// Missing lists workloads or metrics present on one side only.
	Missing []string
}

// Regressions returns the verdicts that exceeded their bound.
func (c *Comparison) Regressions() []Verdict {
	var out []Verdict
	for _, v := range c.Verdicts {
		if v.Regressed {
			out = append(out, v)
		}
	}
	return out
}

// Compare applies the benchmark's rules to two reports of the same
// seed: virtual values compare exactly and every difference is listed;
// each end-to-end metric gets a verdict against its bound.
func Compare(old, new *Report) *Comparison {
	c := &Comparison{}
	olds := map[string]*Result{}
	for i := range old.Results {
		olds[old.Results[i].key()] = &old.Results[i]
	}
	seen := map[string]bool{}
	for i := range new.Results {
		n := &new.Results[i]
		o := olds[n.key()]
		seen[n.key()] = true
		if o == nil {
			c.Missing = append(c.Missing, n.key()+": only in the new report")
			continue
		}
		if o.Seed != n.Seed || o.Scale != n.Scale {
			c.Missing = append(c.Missing, fmt.Sprintf("%s: seed/scale %d/%g vs %d/%g — virtual values are not comparable",
				n.key(), o.Seed, o.Scale, n.Seed, n.Scale))
			continue
		}
		names := make([]string, 0, len(n.Metrics))
		for name := range n.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			nv := n.Metrics[name]
			ov, ok := o.Metrics[name]
			if !ok {
				c.Missing = append(c.Missing, fmt.Sprintf("%s %s: only in the new report", n.key(), name))
				continue
			}
			if nv.Clock == Virtual && ov.Value != nv.Value {
				c.Drift = append(c.Drift, fmt.Sprintf("%s %s: %v -> %v %s", n.key(), name, ov.Value, nv.Value, nv.Unit))
			}
		}
		for name := range o.Metrics {
			if _, ok := n.Metrics[name]; !ok {
				c.Missing = append(c.Missing, fmt.Sprintf("%s %s: only in the old report", n.key(), name))
			}
		}
		if n.Traced {
			continue // end-to-end numbers always come from the untraced run
		}
		for _, d := range EndToEnd {
			ov, ok1 := o.Metrics[d.Name]
			nv, ok2 := n.Metrics[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			c.Verdicts = append(c.Verdicts, judge(n.Workload, d, ov.Value, nv.Value))
		}
	}
	for k := range olds {
		if !seen[k] {
			c.Missing = append(c.Missing, k+": only in the old report")
		}
	}
	sort.Strings(c.Missing)
	return c
}

// judge compares one metric against its bound.
func judge(workload string, d Def, old, new float64) Verdict {
	v := Verdict{Workload: workload, Metric: d.Name, Old: old, New: new, Unit: d.Unit, Bound: d.Bound}
	diff := new - old
	if d.Better == "higher" {
		diff = old - new
	}
	switch {
	case d.Name == "paper_err_pct":
		// Bound in percentage points, not as a share of the old value.
		v.Worse, v.Bound = diff/100, d.Bound/100
	case old != 0:
		v.Worse = diff / math.Abs(old)
	case diff > 0:
		v.Worse = math.Inf(1)
	}
	v.Regressed = v.Worse > v.Bound
	return v
}

// Table renders the verdicts as one row per workload, one column per
// metric, each cell "new (±x.xx% of old)".
func (c *Comparison) Table() string {
	rows := map[string]map[string]Verdict{}
	var workloads, cols []string
	for _, v := range c.Verdicts {
		if rows[v.Workload] == nil {
			rows[v.Workload] = map[string]Verdict{}
			workloads = append(workloads, v.Workload)
		}
		rows[v.Workload][v.Metric] = v
	}
	for _, d := range EndToEnd {
		for _, w := range workloads {
			if _, ok := rows[w][d.Name]; ok {
				cols = append(cols, d.Name)
				break
			}
		}
	}
	var b strings.Builder
	for _, w := range workloads {
		fmt.Fprintf(&b, "%s\n", w)
		for _, col := range cols {
			v, ok := rows[w][col]
			if !ok {
				continue
			}
			mark := ""
			if v.Regressed {
				mark = "  <-- REGRESSED"
			}
			fmt.Fprintf(&b, "  %-20s %14.6g -> %-14.6g %-6s %+8.3f%% of %-12.6g (bound %g%%)%s\n",
				col, v.Old, v.New, v.Unit, v.Worse*100, v.Old, v.Bound*100, mark)
		}
	}
	return b.String()
}
