package figures

// This file holds the striped multi-server suite: sequential reads of
// one file per client, striped across 1..8 rfsrv (or NBD) servers
// through rfsrv.Cluster / nbd.NewStripedDevice, with enough concurrent
// clients that aggregate throughput is limited by server links, not by
// a single client NIC. Three scenarios:
//
//   - orfs-direct:   64 KB O_DIRECT chunk reads through the striped
//     cluster's windows (one chunk = one stripe, chunks round-robin
//     across servers);
//   - orfs-buffered: page-cache reads with ORFS readahead prefetching
//     through the cluster's aggregate window;
//   - nbd:           buffered reads of a block-striped device, the
//     page cache combining enough pages per miss to span every server.
//
// Every point runs at window 8 per server with a fixed client count,
// so the single moving variable is the server count. The one-server
// configuration is the cluster code path end to end, and is
// bit-identical to driving a plain Session
// (rfsrv.TestClusterOneServerMatchesSession guards the client layer,
// TestMultiServerOneServerMatchesSession the whole harness). What the
// window buys one server is pinned by TestScalabilityWindowSpeedup,
// TestScalabilityBufferedAndNBDWindows and
// TestWindowOneMatchesSynchronousClient.

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/nbd"
	"repro/internal/netpipe"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

const (
	// msWindow is the per-server window: window 8 saturates one link.
	msWindow = 8
	// msStripe is the stripe width and the application's read size,
	// so direct reads map one-to-one onto stripes.
	msStripe = rfsrv.DefaultStripeSize
	// msFilePerCli is the bytes each client reads.
	msFilePerCli = 2 << 20
	// msClients is the fixed client count: enough client NICs that
	// 8 server links can in principle be kept busy (each link is
	// 250 MB/s on both sides).
	msClients = 8
)

// msServersAxis is the swept server count, msScenarios the workloads.
var (
	msServersAxis = []int{1, 2, 4, 8}
	msScenarios   = []string{"orfs-direct", "orfs-buffered", "nbd"}
)

// msResult is one point: aggregate throughput and the request (or
// application read) latency percentiles.
type msResult struct {
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

func summarize(samples []sim.Time, totalBytes int, makespan sim.Time) msResult {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return msResult{
		mbps: mbps(totalBytes, makespan),
		p50:  percentile(samples, 0.50),
		p99:  percentile(samples, 0.99),
	}
}

// msSeedStriped replicates the namespace onto every server of the rig
// the way the cluster client would (same creation order everywhere →
// same inode numbers) and writes each file's stripes onto their owners
// — stripe k to servers (k mod N)..(k mod N)+R-1 at its global offset —
// then extends every server's copy to the full size: the on-disk
// layout a (replicated) cluster client's own writes would produce,
// seeded server-side so setup cost stays out of the measurement. One
// placement routine serves the multiserver (R=1), degraded and elastic
// (R=2) suites, so it cannot drift from rfsrv.Cluster's policy in just
// one of them. The rig's first n servers are seeded (the elastic
// suite's standby slot stays empty).
func msSeedStriped(p *sim.Proc, r *rig.Rig, n, clients, filePerCli int) ([]kernel.InodeID, error) {
	inos := make([]kernel.InodeID, clients)
	stripes := filePerCli / msStripe
	for j, fs := range r.Stores[:n] {
		kern := r.Nodes[j].Kernel
		seedVA, err := kern.Mmap(msStripe, "seed")
		if err != nil {
			return nil, err
		}
		for i := 0; i < clients; i++ {
			attr, err := fs.Create(p, fs.Root(), fmt.Sprintf("f%d", i))
			if err != nil {
				return nil, err
			}
			if j == 0 {
				inos[i] = attr.Ino
			} else if attr.Ino != inos[i] {
				return nil, fmt.Errorf("figures: seed inode divergence (%d vs %d)", attr.Ino, inos[i])
			}
			for k := 0; k < stripes; k++ {
				mine := false
				for rep := 0; rep < r.Desc.Replicas; rep++ {
					if (k%n+rep)%n == j {
						mine = true
						break
					}
				}
				if !mine {
					continue
				}
				off := int64(k) * msStripe
				if _, err := fs.WriteDirect(p, attr.Ino, off, vecKernel(kern, seedVA, msStripe)); err != nil {
					return nil, err
				}
			}
			if err := fs.Truncate(p, attr.Ino, int64(filePerCli)); err != nil {
				return nil, err
			}
		}
	}
	return inos, nil
}

// msRun executes one scenario at one (servers, clients, window) point
// on a fresh rig and returns aggregate throughput plus per-request
// latency percentiles. At one server the cluster code path over one
// session is bit-identical to the plain session
// (rfsrv.TestClusterOneServerMatchesSession).
func (c Config) msRun(scenario string, servers, clients, window int) (msResult, error) {
	d := rig.Desc{Servers: servers, Replicas: 1, Stripe: msStripe, Window: window}
	totalBlocks := clients * msFilePerCli / nbd.BlockSize
	var r *rig.Rig
	var err error
	if scenario == "nbd" {
		r, err = rig.NewBare(d, func(r *rig.Rig, n *hw.Node) error {
			srv, err := nbd.NewServer(n, totalBlocks)
			if err != nil {
				return err
			}
			return srv.ServeMX(r.MX(n), rig.ServerEP, rig.Workers)
		})
	} else {
		r, err = rig.New(d)
	}
	if err != nil {
		return msResult{}, err
	}
	var inos []kernel.InodeID
	var samples []sim.Time
	span, err := r.Run("cl", clients, func(p *sim.Proc) (err error) {
		// NBD blocks read as zeros unwritten; only rfsrv needs seeding.
		if scenario != "nbd" {
			inos, err = msSeedStriped(p, r, servers, clients, msFilePerCli)
		}
		return err
	}, func(p *sim.Proc, i int) error {
		lat, err := msClient(p, r, scenario, i, inos, totalBlocks)
		samples = append(samples, lat...)
		return err
	})
	if err != nil {
		return msResult{}, fmt.Errorf("%s s=%d w=%d: %w", scenario, servers, window, err)
	}
	return summarize(samples, clients*msFilePerCli, span), nil
}

// msClient runs client i's workload from its own node and returns its
// latency samples.
func msClient(p *sim.Proc, r *rig.Rig, scenario string, i int, inos []kernel.InodeID, totalBlocks int) ([]sim.Time, error) {
	node := r.HW.AddNode(fmt.Sprintf("client%d", i))
	switch scenario {
	case "orfs-direct", "orfs-buffered":
		cluster, err := r.Cluster(p, node, 10)
		if err != nil {
			return nil, err
		}
		if scenario == "orfs-direct" {
			return msDirectReads(p, cluster, inos[i], msStripe)
		}
		osys := kernel.NewOS(node, 0)
		osys.Mount("/mnt", orfs.New("orfs", cluster))
		return msBufferedReads(p, node, osys, fmt.Sprintf("/mnt/f%d", i), 0)
	case "nbd":
		return msNBDReads(p, r, node, totalBlocks, int64(i)*msFilePerCli)
	}
	return nil, fmt.Errorf("figures: unknown multiserver scenario %q", scenario)
}

// msNBDReads reads one client's share of the block-striped device
// through the page cache, which combines enough device pages per miss
// that the resulting block queue spans every server's window.
func msNBDReads(p *sim.Proc, r *rig.Rig, node *hw.Node, totalBlocks int, base int64) ([]sim.Time, error) {
	m := r.MX(node)
	cls := make([]*nbd.Client, len(r.Nodes))
	for j, srv := range r.Nodes {
		bc, err := nbd.NewClient(m, uint8(10+j), srv.ID, rig.ServerEP, totalBlocks)
		if err != nil {
			return nil, err
		}
		if err := bc.SetWindow(r.Desc.Window); err != nil {
			return nil, err
		}
		cls[j] = bc
	}
	dev, err := nbd.NewStripedDevice(cls)
	if err != nil {
		return nil, err
	}
	osys := kernel.NewOS(node, 0)
	osys.SetReadChunkPages(r.Desc.Window * len(r.Nodes))
	osys.Mount("/dev", dev)
	return msBufferedReads(p, node, osys, "/dev/disk", base)
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

// msDirectReads streams the file's chunk-byte pieces through the
// client's window (the suite reads msStripe: each 64 KB chunk is
// exactly one stripe, so over a cluster chunks round-robin) and returns
// every request's latency.
func msDirectReads(p *sim.Proc, sess rfsrv.Async, ino kernel.InodeID, chunk int) ([]sim.Time, error) {
	var samples []sim.Time
	rs, err := newReadStream(sess, ino, chunk, "ms-buf", func(p *sim.Proc, pd rfsrv.PendingOp, _ *rfsrv.Resp) {
		samples = append(samples, p.Now()-pd.Issued())
	})
	if err != nil {
		return nil, err
	}
	for off := int64(0); off < msFilePerCli; off += int64(chunk) {
		if rs.read(p, off) != nil {
			break
		}
	}
	if err := rs.pl.Drain(p); err != nil {
		return nil, err
	}
	return samples, nil
}

// msBufferedReads reads the file sequentially through the VFS in
// application-sized chunks, timing each read call.
func msBufferedReads(p *sim.Proc, node *hw.Node, osys *kernel.OS, path string, base int64) ([]sim.Time, error) {
	f, err := osys.Open(p, path, 0)
	if err != nil {
		return nil, err
	}
	as := node.NewUserSpace("app")
	va, err := as.Mmap(msStripe, "buf")
	if err != nil {
		return nil, err
	}
	var samples []sim.Time
	for off := int64(0); off < msFilePerCli; off += msStripe {
		t0 := p.Now()
		n, err := f.ReadAt(p, as, va, msStripe, base+off)
		if err != nil {
			return nil, err
		}
		if n != msStripe {
			return nil, fmt.Errorf("figures: short buffered read %d at %d", n, base+off)
		}
		samples = append(samples, p.Now()-t0)
	}
	return samples, f.Close(p)
}

// MultiServer runs the whole suite and returns two figures: aggregate
// throughput and p50/p99 request latency against the server count,
// with the window and client count fixed.
func (c Config) MultiServer() ([]*Figure, error) {
	var bwSeries, latSeries []netpipe.Series
	for _, scen := range msScenarios {
		bw := netpipe.Series{Label: scen}
		p50s, p99s := netpipe.Series{Label: scen + " p50"}, netpipe.Series{Label: scen + " p99"}
		for _, s := range msServersAxis {
			r, err := c.msRun(scen, s, msClients, msWindow)
			if err != nil {
				return nil, err
			}
			bw.Points = append(bw.Points, netpipe.Point{Size: s, MBps: r.mbps})
			p50s.Points = append(p50s.Points, netpipe.Point{Size: s, OneWay: r.p50})
			p99s.Points = append(p99s.Points, netpipe.Point{Size: s, OneWay: r.p99})
		}
		bwSeries = append(bwSeries, bw)
		latSeries = append(latSeries, p50s, p99s)
	}
	bwFig := &Figure{
		ID:     "multiserver",
		Title:  fmt.Sprintf("Aggregate striped-read throughput vs server count (%d clients, window %d, %d KB stripes)", msClients, msWindow, msStripe/1024),
		XLabel: "servers (data striped across)", YLabel: "aggregate throughput (MB/s)",
		Series: bwSeries,
		Expected: "beyond the paper: its platform serves every client from one node; " +
			"striping should scale aggregate bandwidth with the server count until " +
			"client links saturate",
	}
	latFig := &Figure{
		ID:     "multiserver-lat",
		Title:  "Striped-read request latency vs server count",
		XLabel: "servers (data striped across)", YLabel: "latency p50/p99 (µs)",
		Series: latSeries,
		Expected: "more servers drain the same per-client window faster, so request " +
			"latency falls as the cluster widens",
	}
	return []*Figure{bwFig, latFig}, nil
}
