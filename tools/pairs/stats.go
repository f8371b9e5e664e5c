package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/bench/metrics"
)

// pair is one seed's base and head reports.
type pair struct {
	seed       int64
	base, head *metrics.Report
}

// value reads the driver's metric name from res — ok_ops_share and the
// e2e. names undone as the driver line does (Result.DriverValue) — and
// reports whether the workload has it at all.
func value(res *metrics.Result, name string) (float64, metrics.Clock, bool) {
	own := strings.TrimPrefix(name, "e2e.")
	if name == metrics.OkOpsShare {
		own = "failed_ops_share"
	}
	v, ok := res.Metrics[own]
	return res.DriverValue(name), v.Clock, ok
}

// row is one metric of one workload over the seeds.
type row struct {
	def        metrics.Def
	clock      metrics.Clock
	base, head []float64 // per seed, in seed order
}

// stats is what a row prints.
type stats struct {
	base            metrics.Quartiles
	head            float64 // median
	deltaPct        float64 // head median against base median
	wins, losses, n int
	p               float64 // exact two-sided sign test over wins+losses
	worse           bool
}

func (r row) stats() (stats, error) {
	bq, err := metrics.HostQuartiles(r.base)
	if err != nil {
		return stats{}, err
	}
	hq, err := metrics.HostQuartiles(r.head)
	if err != nil {
		return stats{}, err
	}
	s := stats{base: bq, head: hq.Median, n: len(r.base)}
	if bq.Median != 0 {
		s.deltaPct = (hq.Median - bq.Median) / math.Abs(bq.Median) * 100
	}
	better := func(a, b float64) bool { // a better than b
		if r.def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range r.base {
		switch {
		case better(r.head[i], r.base[i]):
			s.wins++
		case better(r.base[i], r.head[i]):
			s.losses++
		}
	}
	s.p = signTest(s.wins, s.losses)
	s.worse = better(bq.Median, hq.Median)
	return s, nil
}

// signTest is the exact two-sided sign-test p of w successes against l
// failures (ties dropped): the probability, under a fair coin, of a
// split at least as lopsided.
func signTest(w, l int) float64 {
	n, k := w+l, min(w, l)
	if n == 0 {
		return 1
	}
	tail, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail/math.Pow(2, float64(n)))
}

// tables builds one markdown table per workload the reports hold, rows
// in BENCHMARK.json's order, for the metrics the workload reports.
func tables(pairs []pair, defs []metrics.Def) []string {
	var keys []string
	byKey := map[string][]row{}
	for i, pr := range pairs {
		for ri := range pr.head.Results {
			h := &pr.head.Results[ri]
			b := find(pr.base, h)
			if b == nil {
				continue
			}
			key := h.Workload
			if h.Traced {
				key += " (traced)"
			}
			if i == 0 {
				keys = append(keys, key)
				for _, d := range defs {
					if _, clock, ok := value(h, d.Name); ok {
						byKey[key] = append(byKey[key], row{def: d, clock: clock})
					}
				}
			}
			for k := range byKey[key] {
				r := &byKey[key][k]
				bv, _, _ := value(b, r.def.Name)
				hv, _, _ := value(h, r.def.Name)
				r.base, r.head = append(r.base, bv), append(r.head, hv)
			}
		}
	}
	var out []string
	for _, key := range keys {
		var sb strings.Builder
		fmt.Fprintf(&sb, "### %s\n\n", key)
		sb.WriteString("| metric | base median [Q1–Q3] | head median | Δ % | wins/n | sign p | |\n|---|---|---|---|---|---|---|\n")
		for _, r := range byKey[key] {
			if len(r.base) != len(pairs) {
				continue // a seed whose run lacked the workload
			}
			s, err := r.stats()
			if err != nil {
				fmt.Fprintf(&sb, "| %s | %v | | | | | |\n", r.def.Name, err)
				continue
			}
			mark := ""
			if s.worse {
				mark = "**worse**"
			}
			if r.clock == metrics.Host {
				mark = strings.TrimSpace(mark + " host")
			}
			fmt.Fprintf(&sb, "| %s (%s, %s) | %s [%s–%s] | %s | %+.2f | %d/%d | %.3g | %s |\n",
				r.def.Name, r.def.Unit, r.def.Better, num(s.base.Median), num(s.base.Q1), num(s.base.Q3),
				num(s.head), s.deltaPct, s.wins, s.n, s.p, mark)
		}
		sb.WriteString("\n")
		out = append(out, sb.String())
	}
	return out
}

// find returns the result of rep that matches res's workload and
// tracing.
func find(rep *metrics.Report, res *metrics.Result) *metrics.Result {
	i := slices.IndexFunc(rep.Results, func(r metrics.Result) bool {
		return r.Workload == res.Workload && r.Traced == res.Traced
	})
	if i < 0 {
		return nil
	}
	return &rep.Results[i]
}

// num prints a value with six significant digits.
func num(v float64) string { return fmt.Sprintf("%.6g", v) }

// checkSame requires every virtual value of each seed's two runs to be
// identical (metrics.Compare's exact drift list).
func checkSame(pairs []pair, out io.Writer) error {
	drift := 0
	for _, pr := range pairs {
		for _, d := range metrics.Compare(pr.base, pr.head).Drift {
			fmt.Fprintf(out, "seed %d: %s\n", pr.seed, d)
			drift++
		}
	}
	if drift > 0 {
		return fmt.Errorf("%d virtual value(s) did not repeat", drift)
	}
	fmt.Fprintf(out, "every virtual value repeated on %d seed(s)\n", len(pairs))
	return nil
}
