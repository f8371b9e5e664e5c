// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §6 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results).
//
// Each benchmark runs the corresponding experiment b.N times and
// reports the figure's headline quantities as custom metrics, so
// `go test -bench=.` doubles as the reproduction harness:
//
//	go test -bench=Fig5a -benchmem
//
// The simulations run in virtual time; ns/op measures host cost of the
// simulation, while the reported µs / MB/s metrics are the simulated
// results that correspond to the paper's plots.
package knapi

import (
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/netpipe"
)

// benchConfig keeps benchmark iterations modest; the shapes are
// deterministic, so few round trips suffice.
func benchConfig() figures.Config { return figures.Config{Iters: 6, Warmup: 1} }

// run executes one figure experiment per b.N iteration and reports the
// requested points as metrics.
func runFigure(b *testing.B, fn func() (*figures.Figure, error), metrics func(b *testing.B, f *figures.Figure)) {
	b.Helper()
	var f *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		f, err = fn()
		if err != nil {
			b.Fatal(err)
		}
	}
	if f != nil {
		metrics(b, f)
	}
}

// at returns the point of a series with the given size (or zero).
func at(s netpipe.Series, size int) netpipe.Point {
	for _, pt := range s.Points {
		if pt.Size == size {
			return pt
		}
	}
	return netpipe.Point{}
}

func usOf(pt netpipe.Point) float64 { return float64(pt.OneWay.Nanoseconds()) / 1000 }

// BenchmarkFig1b — Figure 1(b): copy vs registration/deregistration
// overhead.
func BenchmarkFig1b(b *testing.B) {
	runFigure(b, benchConfig().Fig1b, func(b *testing.B, f *figures.Figure) {
		b.ReportMetric(usOf(at(f.Series[2], 65536)), "reg-64KB-µs")
		b.ReportMetric(usOf(at(f.Series[3], 65536)), "dereg-64KB-µs")
		b.ReportMetric(usOf(at(f.Series[1], 65536)), "copyP4-64KB-µs")
	})
}

// BenchmarkFig3b — Figure 3(b): ORFS direct access and the
// registration cache.
func BenchmarkFig3b(b *testing.B) {
	runFigure(b, benchConfig().Fig3b, func(b *testing.B, f *figures.Figure) {
		const n = 65536
		b.ReportMetric(at(f.Series[1], n).MBps, "ORFA-cache-MB/s")
		b.ReportMetric(at(f.Series[2], n).MBps, "ORFS-cache-MB/s")
		b.ReportMetric(at(f.Series[3], n).MBps, "ORFS-nocache-MB/s")
	})
}

// BenchmarkFig4a — Figure 4(a): registered-virtual vs physical
// addressing latency in the kernel.
func BenchmarkFig4a(b *testing.B) {
	runFigure(b, benchConfig().Fig4a, func(b *testing.B, f *figures.Figure) {
		b.ReportMetric(usOf(at(f.Series[0], 1024)), "virt-1KB-µs")
		b.ReportMetric(usOf(at(f.Series[1], 1024)), "phys-1KB-µs")
	})
}

// BenchmarkFig4b — Figure 4(b): ORFS/GM direct vs buffered access.
func BenchmarkFig4b(b *testing.B) {
	runFigure(b, benchConfig().Fig4b, func(b *testing.B, f *figures.Figure) {
		b.ReportMetric(at(f.Series[0], 4096).MBps, "direct-4KB-MB/s")
		b.ReportMetric(at(f.Series[1], 4096).MBps, "buffered-4KB-MB/s")
		b.ReportMetric(at(f.Series[0], 1<<20).MBps, "direct-1MB-MB/s")
		b.ReportMetric(at(f.Series[1], 1<<20).MBps, "buffered-1MB-MB/s")
	})
}

// BenchmarkFig5a — Figure 5(a): GM vs MX latency, user vs kernel.
func BenchmarkFig5a(b *testing.B) {
	runFigure(b, benchConfig().Fig5a, func(b *testing.B, f *figures.Figure) {
		b.ReportMetric(usOf(at(f.Series[0], 1)), "GM-user-µs")
		b.ReportMetric(usOf(at(f.Series[1], 1)), "GM-kernel-µs")
		b.ReportMetric(usOf(at(f.Series[2], 1)), "MX-user-µs")
		b.ReportMetric(usOf(at(f.Series[3], 1)), "MX-kernel-µs")
	})
}

// BenchmarkFig5b — Figure 5(b): GM vs MX bandwidth.
func BenchmarkFig5b(b *testing.B) {
	runFigure(b, benchConfig().Fig5b, func(b *testing.B, f *figures.Figure) {
		b.ReportMetric(at(f.Series[0], 1<<20).MBps, "GM-1MB-MB/s")
		b.ReportMetric(at(f.Series[1], 1<<20).MBps, "MXuser-1MB-MB/s")
		b.ReportMetric(at(f.Series[2], 1<<20).MBps, "MXkphys-1MB-MB/s")
	})
}

// BenchmarkFig6 — Figure 6: medium-message copy removal.
func BenchmarkFig6(b *testing.B) {
	runFigure(b, benchConfig().Fig6, func(b *testing.B, f *figures.Figure) {
		std := at(f.Series[1], 32768).MBps
		nsc := at(f.Series[2], 32768).MBps
		ncp := at(f.Series[3], 32768).MBps
		b.ReportMetric(std, "std-32KB-MB/s")
		b.ReportMetric(nsc, "nosend-32KB-MB/s")
		b.ReportMetric(ncp, "nocopy-32KB-MB/s")
		b.ReportMetric((nsc-std)/std*100, "nosend-gain-%")
		b.ReportMetric((ncp-nsc)/nsc*100, "norecv-extra-%")
	})
}

// BenchmarkFig7a — Figure 7(a): ORFS direct access, GM vs MX.
func BenchmarkFig7a(b *testing.B) {
	runFigure(b, benchConfig().Fig7a, func(b *testing.B, f *figures.Figure) {
		b.ReportMetric(at(f.Series[1], 1<<20).MBps, "ORFS-GM-1MB-MB/s")
		b.ReportMetric(at(f.Series[3], 1<<20).MBps, "ORFS-MX-1MB-MB/s")
	})
}

// BenchmarkFig7b — Figure 7(b): ORFS buffered access, GM vs MX.
func BenchmarkFig7b(b *testing.B) {
	runFigure(b, benchConfig().Fig7b, func(b *testing.B, f *figures.Figure) {
		gm := at(f.Series[1], 1<<20).MBps
		mx := at(f.Series[3], 1<<20).MBps
		b.ReportMetric(gm, "ORFS-GM-MB/s")
		b.ReportMetric(mx, "ORFS-MX-MB/s")
		b.ReportMetric((mx-gm)/gm*100, "MX-gain-%")
	})
}

// BenchmarkFig8a — Figure 8(a): SOCKETS-MX vs SOCKETS-GM latency.
func BenchmarkFig8a(b *testing.B) {
	runFigure(b, benchConfig().Fig8a, func(b *testing.B, f *figures.Figure) {
		b.ReportMetric(usOf(at(f.Series[0], 1)), "SockGM-µs")
		b.ReportMetric(usOf(at(f.Series[1], 1)), "SockMX-µs")
	})
}

// BenchmarkFig8b — Figure 8(b): SOCKETS-MX vs SOCKETS-GM bandwidth.
func BenchmarkFig8b(b *testing.B) {
	runFigure(b, benchConfig().Fig8b, func(b *testing.B, f *figures.Figure) {
		gm4 := at(f.Series[0], 4096).MBps
		mx4 := at(f.Series[1], 4096).MBps
		gm1M := at(f.Series[0], 1<<20).MBps
		mx1M := at(f.Series[1], 1<<20).MBps
		b.ReportMetric(gm4, "SockGM-4KB-MB/s")
		b.ReportMetric(mx4, "SockMX-4KB-MB/s")
		b.ReportMetric(gm1M, "SockGM-1MB-MB/s")
		b.ReportMetric(mx1M, "SockMX-1MB-MB/s")
	})
}

// BenchmarkTable1 — Table 1: the summary comparison.
func BenchmarkTable1(b *testing.B) {
	cfg := benchConfig()
	var tab *figures.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = cfg.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	if tab != nil {
		b.Logf("\n%s", tab.Render())
	}
}

// BenchmarkSmallFile — the PR6 layout suite: small-file storm ops/s
// under the striped vs whole-on-home policies (see DESIGN.md §10 and
// the smallfile figures in EXPERIMENTS.md).
func BenchmarkSmallFile(b *testing.B) {
	var figs []*figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		figs, err = benchConfig().SmallFile()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(figs) == 0 {
		return
	}
	ops := figs[0]
	for _, s := range ops.Series {
		b.ReportMetric(at(s, 4).MBps, s.Label+"-4srv-ops/s")
		b.ReportMetric(at(s, 8).MBps, s.Label+"-8srv-ops/s")
	}
	for _, s := range figs[1].Series {
		if s.Label == "whole-on-home" {
			b.ReportMetric(at(s, 8).MBps, "whole-setsize/write")
		}
	}
}

// BenchmarkMetadataStorm — the PR7 sharded-namespace suite: aggregate
// namespace ops/s of the create/unlink, readdir and rename storms
// under the replicated fan-out vs the directory-owned sharded
// namespace (see DESIGN.md §11 and the metadata figure in
// EXPERIMENTS.md).
func BenchmarkMetadataStorm(b *testing.B) {
	var figs []*figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		figs, err = benchConfig().Metadata()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(figs) == 0 {
		return
	}
	for _, s := range figs[0].Series {
		label := strings.ReplaceAll(s.Label, " ", "-")
		b.ReportMetric(at(s, 1).MBps, label+"-1srv-ops/s")
		b.ReportMetric(at(s, 8).MBps, label+"-8srv-ops/s")
	}
}

// BenchmarkSizePublishAllocs — heap allocations per extending write on
// the batched size-publish path (alloc_gate_test.go pins its ceiling).
func BenchmarkSizePublishAllocs(b *testing.B) {
	var perOp figures.HostCost
	var err error
	for i := 0; i < b.N; i++ {
		perOp, err = figures.SizePublishAllocs(256)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perOp.Allocs, "pub-allocs/op")
	b.ReportMetric(perOp.Bytes, "pub-bytes/op")
}

// BenchmarkRequestPathAllocs — heap allocations per client-observed
// cluster operation on the MX request path (the PR6 zero-alloc pass's
// headline number; alloc_gate_test.go pins its ceiling).
func BenchmarkRequestPathAllocs(b *testing.B) {
	var perOp figures.HostCost
	var err error
	for i := 0; i < b.N; i++ {
		perOp, err = figures.RequestPathAllocs(256)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Not the builtin "allocs/op" (only shown under -benchmem): this is
	// the per-cluster-operation count measured inside the simulation.
	b.ReportMetric(perOp.Allocs, "req-allocs/op")
	b.ReportMetric(perOp.Bytes, "req-bytes/op")
}

// BenchmarkAblationCombining — the paper's §3.3 prediction: request
// combining (Linux 2.6 style, enabled by vectorial primitives) lifts
// the buffered-access ceiling.
func BenchmarkAblationCombining(b *testing.B) {
	runFigure(b, benchConfig().AblationCombining, func(b *testing.B, f *figures.Figure) {
		b.ReportMetric(f.Series[0].Points[0].MBps, "combine1-MB/s")
		b.ReportMetric(f.Series[3].Points[0].MBps, "combine8-MB/s")
		b.ReportMetric(f.Series[len(f.Series)-1].Points[0].MBps, "direct-MB/s")
	})
}

// BenchmarkAblationPhysicalAPI — what the §3.3 GM physical-address
// extension buys over stock GM for buffered access.
func BenchmarkAblationPhysicalAPI(b *testing.B) {
	runFigure(b, benchConfig().AblationPhysicalAPI, func(b *testing.B, f *figures.Figure) {
		last := len(f.Series[0].Points) - 1
		b.ReportMetric(f.Series[0].Points[last].MBps, "physAPI-MB/s")
		b.ReportMetric(f.Series[1].Points[last].MBps, "stockGM-MB/s")
	})
}

// BenchmarkScalability — the sliding-window suite: aggregate
// throughput and p50/p99 latency against the session window and the
// client count, for ORFS-direct, ORFS-buffered and NBD (all beyond
// the paper: its prototypes allow one outstanding request).
func BenchmarkScalability(b *testing.B) {
	var figs []*figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		figs, err = benchConfig().Scalability()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(figs) == 0 {
		return
	}
	winBW := figs[0]
	for _, s := range winBW.Series {
		if s.Label != "orfs-direct" {
			continue
		}
		b.ReportMetric(at(s, 1).MBps, "direct-w1-MB/s")
		b.ReportMetric(at(s, 8).MBps, "direct-w8-MB/s")
		b.ReportMetric(at(s, 32).MBps, "direct-w32-MB/s")
	}
	cliBW := figs[2]
	for _, s := range cliBW.Series {
		if s.Label == "orfs-direct" {
			b.ReportMetric(at(s, 8).MBps, "direct-8cli-MB/s")
		}
	}
}
