package figures

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/netpipe"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

// This file holds the sliding-window scalability suite: ablations
// beyond the paper's figures that measure what pipelining outstanding
// requests (impossible in the paper's synchronous prototypes) buys
// each in-kernel application. Three scenarios run a sequential-read
// workload against one file server:
//
//   - orfs-direct:   O_DIRECT chunk reads issued through the session
//     window (the application-level readahead pattern);
//   - orfs-buffered: page-cache reads with ORFS prefetching the
//     following pages through the window;
//   - nbd:           buffered block-device reads, the page cache
//     combining pages into a queue of pipelined block requests.
//
// Window = 1 is the paper's synchronous protocol; the sweep shows how
// aggregate throughput and tail latency respond to deeper windows and
// to more concurrent clients.

const (
	scalChunk      = 64 * 1024 // application request size
	scalFilePerCli = 2 << 20   // bytes each client reads
)

// scalSample is one request's (or application read's) latency.
type scalResult struct {
	mbps     float64
	p50, p99 sim.Time
}

// percentile returns the q-quantile (0..1) of the sorted samples.
func percentile(samples []sim.Time, q float64) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	i := int(q * float64(len(samples)-1))
	return samples[i]
}

func summarize(samples []sim.Time, totalBytes int, makespan sim.Time) scalResult {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return scalResult{
		mbps: mbps(totalBytes, makespan),
		p50:  percentile(samples, 0.50),
		p99:  percentile(samples, 0.99),
	}
}

// scalDirectReads issues the file's chunks through the client's window
// (sliding, retired in order), one buffer per window slot so transfers
// never share staging. It takes any Async client — a Session drives
// one server, a Cluster stripes the same chunk stream across several
// (each 64 KB chunk is exactly one stripe, so chunks round-robin) —
// pacing issues with CanStart so a full per-server window retires the
// oldest chunk instead of blocking the pipeline.
func scalDirectReads(p *sim.Proc, node *hw.Node, sess rfsrv.Async, ino kernel.InodeID) ([]sim.Time, error) {
	window := sess.Window()
	bufs := make([]vm.VirtAddr, window)
	for j := range bufs {
		va, err := node.Kernel.Mmap(scalChunk, "scal-buf")
		if err != nil {
			return nil, err
		}
		bufs[j] = va
	}
	type inflight struct{ pd rfsrv.PendingOp }
	var q []inflight
	var samples []sim.Time
	reads := scalFilePerCli / scalChunk
	for issued := 0; issued < reads; issued++ {
		off := int64(issued) * scalChunk
		for len(q) > 0 && (len(q) == window || !sess.CanStart(ino, off, scalChunk)) {
			pd := q[0].pd
			q = q[1:]
			if _, err := pd.Wait(p); err != nil {
				return nil, err
			}
			samples = append(samples, p.Now()-pd.Issued())
		}
		pd, err := sess.StartRead(p, ino, off,
			core.Of(core.KernelSeg(node.Kernel, bufs[issued%window], scalChunk)))
		if err != nil {
			return nil, err
		}
		q = append(q, inflight{pd})
	}
	for _, f := range q {
		if _, err := f.pd.Wait(p); err != nil {
			return nil, err
		}
		samples = append(samples, p.Now()-f.pd.Issued())
	}
	return samples, nil
}

// scalBufferedReads reads the file sequentially through the VFS in
// application-sized chunks, timing each read call.
func scalBufferedReads(p *sim.Proc, node *hw.Node, osys *kernel.OS, path string, base int64) ([]sim.Time, error) {
	f, err := osys.Open(p, path, 0)
	if err != nil {
		return nil, err
	}
	as := node.NewUserSpace("app")
	va, err := as.Mmap(scalChunk, "buf")
	if err != nil {
		return nil, err
	}
	var samples []sim.Time
	for off := int64(0); off < scalFilePerCli; off += scalChunk {
		t0 := p.Now()
		n, err := f.ReadAt(p, as, va, scalChunk, base+off)
		if err != nil {
			return nil, err
		}
		if n != scalChunk {
			return nil, fmt.Errorf("figures: short buffered read %d at %d", n, base+off)
		}
		samples = append(samples, p.Now()-t0)
	}
	return samples, f.Close(p)
}

// scalWindows and scalClients are the sweep axes of the suite.
var (
	scalWindows     = []int{1, 2, 4, 8, 16, 32}
	scalClientsAxis = []int{1, 2, 4, 8}
)

// scalScenarios names the three workloads.
var scalScenarios = []string{"orfs-direct", "orfs-buffered", "nbd"}

// sweep runs every scenario at every point of one axis and returns
// the aggregate-throughput series and the p50/p99 latency series.
func sweep(xs []int, run func(scen string, x int) (scalResult, error)) (bw, lat []netpipe.Series, err error) {
	for _, scen := range scalScenarios {
		b := netpipe.Series{Label: scen}
		p50s, p99s := netpipe.Series{Label: scen + " p50"}, netpipe.Series{Label: scen + " p99"}
		for _, x := range xs {
			r, err := run(scen, x)
			if err != nil {
				return nil, nil, err
			}
			b.Points = append(b.Points, netpipe.Point{Size: x, MBps: r.mbps})
			p50s.Points = append(p50s.Points, netpipe.Point{Size: x, OneWay: r.p50})
			p99s.Points = append(p99s.Points, netpipe.Point{Size: x, OneWay: r.p99})
		}
		bw = append(bw, b)
		lat = append(lat, p50s, p99s)
	}
	return bw, lat, nil
}

// Scalability runs the whole suite and returns four figures: aggregate
// throughput and p50/p99 latency against the window size (one client),
// and the same pair against the client count (window 8). Every point
// is the multiserver harness at one server.
func (c Config) Scalability() ([]*Figure, error) {
	pair := func(id, title, xlabel string, xs []int, run func(scen string, x int) (scalResult, error)) ([]*Figure, error) {
		bw, lat, err := sweep(xs, run)
		if err != nil {
			return nil, err
		}
		return []*Figure{{
			ID: id, Title: title,
			XLabel: xlabel, YLabel: "aggregate throughput (MB/s)",
			Series: bw,
			Expected: "beyond the paper: its prototypes are synchronous (window = 1), " +
				"so these curves have no measured counterpart",
		}, {
			ID: id + "-lat", Title: title + " — request latency",
			XLabel: xlabel, YLabel: "latency p50/p99 (µs)",
			Series: lat,
			Expected: "deeper windows trade per-request latency (queueing) for " +
				"aggregate throughput; p99 grows with the window",
		}}, nil
	}
	win, err := pair("scal-window",
		"Aggregate sequential-read throughput vs window size (1 client)",
		"window (outstanding requests)", scalWindows,
		func(scen string, w int) (scalResult, error) { return c.msRun(scen, 1, 1, w) })
	if err != nil {
		return nil, err
	}
	cli, err := pair("scal-clients",
		"Aggregate sequential-read throughput vs concurrent clients (window 8)",
		"concurrent clients", scalClientsAxis,
		func(scen string, n int) (scalResult, error) { return c.msRun(scen, 1, n, 8) })
	if err != nil {
		return nil, err
	}
	return append(win, cli...), nil
}
