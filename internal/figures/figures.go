// Package figures regenerates every table and figure of the paper's
// evaluation from the simulated cluster: the experiment harness behind
// cmd/figures, bench_test.go and EXPERIMENTS.md.
//
// Each FigN function builds the cluster(s) it needs, runs the paper's
// workload, and returns labelled series plus the paper's qualitative
// expectation, so callers can print measured-vs-expected side by side.
package figures

import (
	"fmt"
	"strings"

	"repro/internal/hw"
	"repro/internal/netpipe"
	"repro/internal/sim"
)

// Config tunes experiment effort.
type Config struct {
	// Iters is the per-size round-trip count (default 10).
	Iters int
	// Warmup exchanges per size (default 2).
	Warmup int
	// Probe, if set, hears of every pipeline step of both NICs in the
	// ping-pong runs (hw.NIC.SetProbe).
	Probe func(hw.Step)
}

// DefaultConfig returns the settings used for EXPERIMENTS.md.
func DefaultConfig() Config { return Config{Iters: 10, Warmup: 2} }

// Figure is one reproduced plot.
type Figure struct {
	ID       string // e.g. "fig5a"
	Title    string
	XLabel   string
	YLabel   string
	Series   []netpipe.Series
	Expected string // the paper's qualitative claim, for EXPERIMENTS.md
	// Unit overrides the non-latency value unit (default "MB/s") for
	// figures whose y axis is a count or ratio rather than bandwidth.
	Unit string
}

// Table is one reproduced table.
type Table struct {
	ID       string
	Title    string
	Columns  []string
	Rows     [][]string
	Expected string
}

// Render formats a figure as aligned text columns (size + one column
// per series, latency in µs or bandwidth in MB/s depending on kind).
func (f *Figure) Render(latency bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "   x: %s, y: %s\n", f.XLabel, f.YLabel)
	fmt.Fprintf(&b, "%12s", "size(B)")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %22s", trunc(s.Label, 22))
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 || len(f.Series[0].Points) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%12d", f.Series[0].Points[i].Size)
		for _, s := range f.Series {
			if i >= len(s.Points) {
				fmt.Fprintf(&b, " %22s", "-")
				continue
			}
			pt := s.Points[i]
			if latency {
				fmt.Fprintf(&b, " %20.2fµs", float64(pt.OneWay.Nanoseconds())/1000)
			} else {
				unit := f.Unit
				if unit == "" {
					unit = "MB/s"
				}
				fmt.Fprintf(&b, " %17.1f %s", pt.MBps, unit)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "   paper: %s\n", f.Expected)
	return b.String()
}

// Render formats a table as text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "| %-*s ", widths[i], c)
		}
		b.WriteString("|\n")
	}
	line(t.Columns)
	for i, w := range widths {
		_ = i
		b.WriteString("|")
		b.WriteString(strings.Repeat("-", w+2))
	}
	b.WriteString("|\n")
	for _, row := range t.Rows {
		line(row)
	}
	if t.Expected != "" {
		fmt.Fprintf(&b, "   paper: %s\n", t.Expected)
	}
	return b.String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// pairMaker builds the two transport ends on freshly created nodes.
type pairMaker func(p *sim.Proc, a, b *hw.Node) (netpipe.Transport, netpipe.Transport, error)

// pingpong builds a two-node cluster and measures the schedule over
// the transport pair.
func (c Config) pingpong(model hw.LinkModel, sizes []int, mk pairMaker) ([]netpipe.Point, error) {
	env := sim.NewEngine()
	cl := hw.NewCluster(env, hw.DefaultParams(), model)
	a, b := cl.AddNode("a"), cl.AddNode("b")
	a.NIC.SetProbe(c.Probe)
	b.NIC.SetProbe(c.Probe)
	var pts []netpipe.Point
	var setupErr, runErr error
	ready := sim.NewSignal(env)
	var ta, tb netpipe.Transport
	env.Spawn("setup", func(p *sim.Proc) {
		ta, tb, setupErr = mk(p, a, b)
		ready.Fire()
	})
	r := &netpipe.Runner{Iters: c.iters(), Warmup: c.warmup()}
	env.Spawn("responder", func(p *sim.Proc) {
		ready.Wait(p)
		if setupErr != nil {
			return
		}
		if err := r.Respond(p, tb, sizes); err != nil && runErr == nil {
			runErr = err
		}
	})
	env.Spawn("initiator", func(p *sim.Proc) {
		ready.Wait(p)
		if setupErr != nil {
			return
		}
		p.Sleep(10 * sim.Time(1000))
		var err error
		pts, err = r.Measure(p, ta, sizes)
		if err != nil && runErr == nil {
			runErr = err
		}
	})
	env.Run(0)
	if setupErr != nil {
		return nil, setupErr
	}
	if runErr != nil {
		return nil, runErr
	}
	if pts == nil {
		return nil, fmt.Errorf("figures: measurement deadlocked")
	}
	return pts, nil
}

func (c Config) iters() int {
	if c.Iters <= 0 {
		return 10
	}
	return c.Iters
}

func (c Config) warmup() int {
	if c.Warmup < 0 {
		return 0
	}
	if c.Warmup == 0 {
		return 2
	}
	return c.Warmup
}

// All runs every experiment, in paper order.
func (c Config) All() ([]*Figure, []*Table, error) {
	var figs []*Figure
	var tabs []*Table
	type figFn func() (*Figure, error)
	for _, fn := range []figFn{
		c.Fig1b, c.Fig3b, c.Fig4a, c.Fig4b,
		c.Fig5a, c.Fig5b, c.Fig6, c.Fig7a, c.Fig7b,
		c.Fig8a, c.Fig8b,
	} {
		f, err := fn()
		if err != nil {
			return nil, nil, err
		}
		figs = append(figs, f)
	}
	t1, err := c.Table1()
	if err != nil {
		return nil, nil, err
	}
	tabs = append(tabs, t1)
	return figs, tabs, nil
}

// Latency reports whether a figure plots latency (vs bandwidth).
func (f *Figure) Latency() bool { return strings.Contains(f.YLabel, "µs") }
