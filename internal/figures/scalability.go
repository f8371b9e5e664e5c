package figures

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/netpipe"
	"repro/internal/rfsrv"
	"repro/internal/sim"
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

// readStream is the windowed read loop the cluster figures share:
// chunk-sized reads of one file through any Async client — a Session
// drives one server, a Cluster stripes the same chunk stream across
// several — one kernel buffer per window slot so transfers never share
// staging, retired in order.
type readStream struct {
	sess   rfsrv.Async
	ino    kernel.InodeID
	bufs   []core.Vector
	issued int
	pl     *fabric.Pipeline[rfsrv.PendingOp]
}

// newReadStream maps the stream's buffers (chunk bytes each) and arms
// its pipeline; done sees every read that completed before any error.
func newReadStream(sess rfsrv.Async, ino kernel.InodeID, chunk int, label string, done func(p *sim.Proc, pd rfsrv.PendingOp, resp *rfsrv.Resp)) (*readStream, error) {
	kern := sess.Node().Kernel
	rs := &readStream{sess: sess, ino: ino, bufs: make([]core.Vector, sess.Window())}
	for i := range rs.bufs {
		va, err := kern.Mmap(chunk, label)
		if err != nil {
			return nil, err
		}
		rs.bufs[i] = vecKernel(kern, va, chunk)
	}
	rs.pl = fabric.NewPipeline(func(p *sim.Proc, pd rfsrv.PendingOp, failed bool) error {
		resp, err := pd.Wait(p)
		if err == nil && !failed {
			done(p, pd, resp)
		}
		return err
	})
	return rs, nil
}

// read issues the stream's next chunk at off, pacing with CanStart so
// a full per-server window retires the oldest chunk instead of
// blocking the pipeline with retired slots in hand. The caller stops
// at the first error and drains rs.pl either way.
func (rs *readStream) read(p *sim.Proc, off int64) error {
	dst := rs.bufs[rs.issued%len(rs.bufs)]
	room := func() bool {
		return rs.pl.Len() < len(rs.bufs) && rs.sess.CanStart(rs.ino, off, dst.TotalLen())
	}
	if err := rs.pl.Room(p, room); err != nil {
		return err
	}
	pd, err := rs.sess.StartRead(p, rs.ino, off, dst)
	if err != nil {
		rs.pl.Fail(err)
		return err
	}
	rs.pl.Push(pd)
	rs.issued++
	return nil
}

// scalDirectReads streams the file's chunk-byte pieces through the
// client's window (the figures read scalChunk: each 64 KB chunk is
// exactly one stripe, so over a cluster chunks round-robin) and returns
// every request's latency.
func scalDirectReads(p *sim.Proc, sess rfsrv.Async, ino kernel.InodeID, chunk int) ([]sim.Time, error) {
	var samples []sim.Time
	rs, err := newReadStream(sess, ino, chunk, "scal-buf", func(p *sim.Proc, pd rfsrv.PendingOp, _ *rfsrv.Resp) {
		samples = append(samples, p.Now()-pd.Issued())
	})
	if err != nil {
		return nil, err
	}
	for off := int64(0); off < scalFilePerCli; off += int64(chunk) {
		if rs.read(p, off) != nil {
			break
		}
	}
	if err := rs.pl.Drain(p); err != nil {
		return nil, err
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
