// Package figures regenerates every table and figure of the paper's
// evaluation from the simulated cluster: the experiment registry behind
// cmd/figures and EXPERIMENTS.md's generated blocks.
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

// Experiment is one entry of the experiment registry: the id
// cmd/figures -only selects it by, and the run that returns its
// rendered text.
type Experiment struct {
	ID  string
	Run func(Config) (string, error)
}

// Experiments is every experiment cmd/figures runs, in print order: the
// paper's figures and Table 1, the two ablations of its design, then the
// suites built since.
var Experiments = []Experiment{
	{"fig1b", one(Config.Fig1b)},
	{"fig3b", one(Config.Fig3b)},
	{"fig4a", one(Config.Fig4a)},
	{"fig4b", one(Config.Fig4b)},
	{"fig5a", one(Config.Fig5a)},
	{"fig5b", one(Config.Fig5b)},
	{"fig6", one(Config.Fig6)},
	{"fig7a", one(Config.Fig7a)},
	{"fig7b", one(Config.Fig7b)},
	{"fig8a", one(Config.Fig8a)},
	{"fig8b", one(Config.Fig8b)},
	{"table1", one(Config.Table1)},
	{"ablation-combining", one(Config.AblationCombining)},
	{"ablation-physapi", one(Config.AblationPhysicalAPI)},
	{"multiserver", all(Config.MultiServer)},
	{"sharedfile", all(Config.SharedFile)},
	{"smallfile", all(Config.SmallFile)},
	{"metadata", all(Config.Metadata)},
	{"degraded", one(Config.Degraded)},
	{"elastic", all(Config.Elastic)},
}

// one adapts an experiment that returns one figure or table.
func one[T fmt.Stringer](run func(Config) (T, error)) func(Config) (string, error) {
	return all(func(c Config) ([]T, error) {
		v, err := run(c)
		return []T{v}, err
	})
}

// all adapts an experiment that returns several: its text is each one
// rendered, followed by a blank line.
func all[T fmt.Stringer](run func(Config) ([]T, error)) func(Config) (string, error) {
	return func(c Config) (string, error) {
		vs, err := run(c)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, v := range vs {
			b.WriteString(v.String())
			b.WriteByte('\n')
		}
		return b.String(), nil
	}
}

// String renders the figure in its own unit: latency if its y axis is
// in µs, otherwise bandwidth (or its Unit).
func (f *Figure) String() string { return f.Render(f.Latency()) }

// String renders the table.
func (t *Table) String() string { return t.Render() }

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

// twoNodes builds the raw transport platform: nodes "a" and "b" on one
// link model, both NICs reporting their steps to c.Probe.
func (c Config) twoNodes(model hw.LinkModel) (env *sim.Engine, a, b *hw.Node) {
	env = sim.NewEngine()
	cl := hw.NewCluster(env, hw.DefaultParams(), model)
	a, b = cl.AddNode("a"), cl.AddNode("b")
	a.NIC.SetProbe(c.Probe)
	b.NIC.SetProbe(c.Probe)
	return env, a, b
}

// pingpong builds a two-node cluster and measures the schedule over
// the transport pair.
func (c Config) pingpong(model hw.LinkModel, sizes []int, mk pairMaker) ([]netpipe.Point, error) {
	env, a, b := c.twoNodes(model)
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

// Latency reports whether a figure plots latency (vs bandwidth).
func (f *Figure) Latency() bool { return strings.Contains(f.YLabel, "µs") }
