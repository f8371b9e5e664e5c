package figures

// This file holds the small-file suite: the workload the per-file
// layout policy (DESIGN.md §10) exists for. The multiserver and
// shared-file suites move megabytes through 64 KB stripes; here K
// clients storm the cluster with files of 1–16 KB — create, one
// write, one read-back each — where striping is pure overhead: every
// file's single stripe lands on the stripe-0 owner (one server takes
// all data), and every size-extending write fans an OpSetSize
// reconciliation to the N−1 servers the data did not touch.
//
// The suite runs each server count twice: once with the default
// (policy-free, everything striped) client and once under the adaptive
// layout policy, which classifies these files whole-on-home — data on
// the file's metadata home, spread across servers by the inode hash,
// with NO reconciliation fan (the home is the size authority, see
// Cluster.setSizeTo). The interesting numbers are aggregate small-file
// ops/s against the server count for both policies, and the
// reconciliation RPCs each policy paid per data write.
//
// Every adaptive run finishes with an in-simulation audit: the
// whole-on-home clients must have issued ZERO OpSetSize
// reconciliation requests, or the run fails — small-file extends
// riding the reconciliation fan would mean the layout machinery
// silently degraded to striping's coherence cost.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netpipe"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

const (
	// sfcClients is the storming client count (enough concurrency that
	// the stripe-0 owner becomes the striped policy's bottleneck).
	sfcClients = 4
	// sfcFilesPerCli is how many files each client creates, writes and
	// reads back (a multiple of len(sfcSizes) so the size mix is even).
	sfcFilesPerCli = 40
	// sfcOpsPerFile: create + write + read-back.
	sfcOpsPerFile = 3
)

// sfcServersAxis is the swept server count.
var sfcServersAxis = []int{1, 4, 8}

// sfcSizes is the file-size mix, cycled per file: all well under
// PromoteThreshold, so the adaptive policy keeps every file
// whole-on-home.
var sfcSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}

// sfcPolicies names the two client configurations.
var sfcPolicies = []string{"striped", "whole-on-home"}

// sfcResult is one (policy, servers) point.
type sfcResult struct {
	opsPerSec float64
	// setSizePerWrite is the OpSetSize reconciliation RPCs issued per
	// data write, summed over clients — striping's coherence fan
	// (≈ N−1 on fresh files), identically zero for whole-on-home.
	setSizePerWrite float64
}

// sfcRun executes the storm at one (adaptive?, servers) point on a
// fresh simulated cluster. Files are created through each client's own
// cluster (so create hints classify them) but serialized across
// clients by the setup process: concurrent creates could fan to the
// servers in different interleavings and diverge the replicated
// namespace's inode assignment. The write/read storm then runs fully
// concurrently — that is where the two policies differ.
func (c Config) sfcRun(adaptive bool, servers int) (sfcResult, error) {
	r, err := rig.New(rig.Desc{Servers: servers, Replicas: 1, Stripe: msStripe, Window: msWindow, Trace: c.Trace})
	if err != nil {
		return sfcResult{}, err
	}
	clusters := make([]*rfsrv.Cluster, sfcClients)
	inos := make([][]kernel.InodeID, sfcClients)
	var (
		created  sim.Time // the serialized creates' span (they start at time zero)
		setSizes int64
	)
	storm, err := r.Run("storm", sfcClients, func(p *sim.Proc) error {
		for i := range clusters {
			cluster, err := r.Cluster(p, r.HW.AddNode(fmt.Sprintf("client%d", i)), 10)
			if err != nil {
				return err
			}
			if adaptive {
				if err := cluster.SetLayoutPolicy(rfsrv.LayoutPolicy{Adaptive: true}); err != nil {
					return err
				}
			}
			clusters[i] = cluster
			for f := 0; f < sfcFilesPerCli; f++ {
				resp, err := cluster.Meta(p, &rfsrv.Req{
					Op: rfsrv.OpCreate, Ino: 0, Name: fmt.Sprintf("c%d-f%d", i, f),
				})
				if err != nil {
					return err
				}
				inos[i] = append(inos[i], resp.Attr.Ino)
			}
		}
		created = p.Now()
		return nil
	}, func(p *sim.Proc, i int) error {
		err := sfcStorm(p, clusters[i], inos[i])
		setSizes += clusters[i].SetSizes.N
		return err
	})
	if err != nil {
		return sfcResult{}, fmt.Errorf("smallfile adaptive=%v s=%d: %w", adaptive, servers, err)
	}
	if adaptive && setSizes != 0 {
		return sfcResult{}, fmt.Errorf("figures: whole-on-home storm issued %d OpSetSize reconciliations, want 0 (s=%d)", setSizes, servers)
	}
	ops := sfcClients * sfcFilesPerCli * sfcOpsPerFile
	writes := sfcClients * sfcFilesPerCli
	return sfcResult{
		opsPerSec:       float64(ops) / (created + storm).Seconds(),
		setSizePerWrite: float64(setSizes) / float64(writes),
	}, nil
}

// sfcStorm writes then reads back every file of one client: the
// concurrent half of the workload (creates were serialized by setup).
func sfcStorm(p *sim.Proc, cluster *rfsrv.Cluster, inos []kernel.InodeID) error {
	node := cluster.Node()
	buf, err := node.Kernel.Mmap(sfcSizes[len(sfcSizes)-1], "smallfile-buf")
	if err != nil {
		return err
	}
	for f, ino := range inos {
		size := sfcSizes[f%len(sfcSizes)]
		vec := core.Of(core.KernelSeg(node.Kernel, buf, size))
		if _, err := cluster.Write(p, ino, 0, vec); err != nil {
			return err
		}
		resp, err := cluster.Read(p, ino, 0, vec)
		if err != nil {
			return err
		}
		if int(resp.N) != size {
			return fmt.Errorf("figures: smallfile read-back got %d bytes, want %d", resp.N, size)
		}
	}
	return nil
}

// SmallFile runs the whole suite and returns two figures: aggregate
// small-file operation throughput and the OpSetSize reconciliation
// fan per write, both against the server count for both policies.
func (c Config) SmallFile() ([]*Figure, error) {
	var opsSeries, fanSeries []netpipe.Series
	for _, pol := range sfcPolicies {
		var ops, fan netpipe.Series
		ops.Label, fan.Label = pol, pol
		for _, s := range sfcServersAxis {
			r, err := c.sfcRun(pol == "whole-on-home", s)
			if err != nil {
				return nil, err
			}
			ops.Points = append(ops.Points, netpipe.Point{Size: s, MBps: r.opsPerSec})
			fan.Points = append(fan.Points, netpipe.Point{Size: s, MBps: r.setSizePerWrite})
		}
		opsSeries = append(opsSeries, ops)
		fanSeries = append(fanSeries, fan)
	}
	opsFig := &Figure{
		ID: "smallfile",
		Title: fmt.Sprintf("Small-file storm ops/s vs server count (%d clients, %d files each, %d–%d KB)",
			sfcClients, sfcFilesPerCli, sfcSizes[0]/1024, sfcSizes[len(sfcSizes)-1]/1024),
		XLabel: "servers", YLabel: "aggregate create+write+read ops/s",
		Series: opsSeries,
		Unit:   "ops/s",
		Expected: "beyond the paper: striping gains nothing below one stripe — the adaptive " +
			"whole-on-home layout spreads small files across servers by inode hash and skips " +
			"the size-reconciliation fan, so it should pull ahead as servers are added while " +
			"the striped policy stays pinned to the stripe-0 owner",
	}
	fanFig := &Figure{
		ID:     "smallfile-setsize",
		Title:  "OpSetSize reconciliation RPCs per small-file write",
		XLabel: "servers", YLabel: "reconciliations per write",
		Series: fanSeries,
		Unit:   "ops/write",
		Expected: "striped extends fan a grow-only OpSetSize to the N−1 servers the data " +
			"missed; whole-on-home extends pay exactly zero (the home is the size authority)",
	}
	return []*Figure{opsFig, fanFig}, nil
}
