package figures

// This file holds the striped multi-server suite: the axis PR 2 could
// not move. Pipelining saturated ONE server's 250 MB/s link; here the
// same workloads stripe their data across 1..8 rfsrv (or NBD) servers
// through rfsrv.Cluster / nbd.NewStripedDevice, with enough concurrent
// clients that aggregate throughput is limited by server links, not by
// a single client NIC. Three scenarios, as in the scalability suite:
//
//   - orfs-direct:   64 KB O_DIRECT chunk reads through the striped
//     cluster's windows (one chunk = one stripe, chunks round-robin
//     across servers);
//   - orfs-buffered: page-cache reads with ORFS readahead prefetching
//     through the cluster's aggregate window;
//   - nbd:           buffered reads of a block-striped device, the
//     page cache combining enough pages per miss to span every server.
//
// Every point runs at the scalability suite's best window (8 per
// server) with a fixed client count, so the single moving variable is
// the server count. The one-server configuration is the cluster code
// path end to end, and is bit-identical to driving a plain Session
// (rfsrv.TestClusterOneServerMatchesSession guards the client layer,
// TestMultiServerOneServerMatchesScalability the whole harness).

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/nbd"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

const (
	// msWindow is the per-server window: the best window from the PR 2
	// scalability sweep (window 8 saturates one link).
	msWindow = 8
	// msStripe is the stripe width: one application chunk, so direct
	// reads map one-to-one onto stripes.
	msStripe = rfsrv.DefaultStripeSize
	// msClients is the fixed client count: enough client NICs that
	// 8 server links can in principle be kept busy (each link is
	// 250 MB/s on both sides).
	msClients = 8
)

// msServersAxis is the swept server count.
var msServersAxis = []int{1, 2, 4, 8}

// msSeedStriped replicates the namespace onto every server of the rig
// the way the cluster client would (same creation order everywhere →
// same inode numbers) and writes each file's stripes onto their owners
// — stripe k to servers (k mod N)..(k mod N)+R-1 at its global offset —
// then extends every server's copy to the full size: the on-disk
// layout a (replicated) cluster client's own writes would produce,
// seeded server-side so setup cost stays out of the measurement. One
// placement routine serves the scalability and multiserver (R=1),
// degraded and elastic (R=2) suites, so it cannot drift from
// rfsrv.Cluster's policy in just one of them. The rig's first n
// servers are seeded (the elastic suite's standby slot stays empty).
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
// latency percentiles. One server is the scalability suite's platform
// (the cluster code path over one session is bit-identical to the
// plain session — rfsrv.TestClusterOneServerMatchesSession).
func (c Config) msRun(scenario string, servers, clients, window int) (scalResult, error) {
	d := rig.Desc{Servers: servers, Replicas: 1, Stripe: msStripe, Window: window, Trace: c.Trace}
	totalBlocks := clients * scalFilePerCli / nbd.BlockSize
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
		return scalResult{}, err
	}
	var inos []kernel.InodeID
	var samples []sim.Time
	span, err := r.Run("cl", clients, func(p *sim.Proc) (err error) {
		// NBD blocks read as zeros unwritten; only rfsrv needs seeding.
		if scenario != "nbd" {
			inos, err = msSeedStriped(p, r, servers, clients, scalFilePerCli)
		}
		return err
	}, func(p *sim.Proc, i int) error {
		lat, err := msClient(p, r, scenario, i, inos, totalBlocks)
		samples = append(samples, lat...)
		return err
	})
	if err != nil {
		return scalResult{}, fmt.Errorf("%s s=%d w=%d: %w", scenario, servers, window, err)
	}
	return summarize(samples, clients*scalFilePerCli, span), nil
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
			return scalDirectReads(p, cluster, inos[i])
		}
		osys := kernel.NewOS(node, 0)
		osys.Mount("/mnt", orfs.New("orfs", cluster))
		return scalBufferedReads(p, node, osys, fmt.Sprintf("/mnt/f%d", i), 0)
	case "nbd":
		return msNBDReads(p, r, node, totalBlocks, int64(i)*scalFilePerCli)
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
	return scalBufferedReads(p, node, osys, "/dev/disk", base)
}

// MultiServer runs the whole suite and returns two figures: aggregate
// throughput and p50/p99 request latency against the server count,
// with the window and client count fixed.
func (c Config) MultiServer() ([]*Figure, error) {
	bwSeries, latSeries, err := sweep(msServersAxis, func(scen string, s int) (scalResult, error) {
		return c.msRun(scen, s, msClients, msWindow)
	})
	if err != nil {
		return nil, err
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
