package figures

// This file holds the metadata suite: the workload the sharded
// namespace (DESIGN.md §11) exists for. The small-file suite showed
// the DATA of small files escaping the stripe-0 owner; here there is
// no data at all — K clients storm the cluster with pure namespace
// operations (create/unlink batches, readdir scans, rename chains)
// against two client/server configurations:
//
//   - fan-out: the replicated namespace. Every mutation fans to all N
//     servers, so adding servers adds work per operation — mutation
//     throughput is flat-to-falling in N. Concurrent creates are not
//     even safe (different fan interleavings could diverge the
//     replicated inode assignment), so this mode's create/unlink
//     storm runs serialized across clients — itself part of the
//     story.
//   - sharded: directory-owned metadata. Each directory (and the
//     files under it) has one owner group; mutations go only there,
//     different directories' storms land on different servers, and
//     batched combining packs each client's share per server. All
//     storms run fully concurrently.
//
// The interesting number is aggregate namespace ops/s against the
// server count. The acceptance bar (TestMetadataShardedScales) is
// that the sharded create/unlink storm gains at least 1.5× from N=1
// to N=8 — the scaling the O(N) fan structurally cannot produce.

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/netpipe"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

const (
	// mdClients is the storming client count.
	mdClients = 4
	// mdDirsPerCli is each client's private directory count: its storm
	// spreads over them, so under sharding one client's mutations land
	// on several owner groups.
	mdDirsPerCli = 4
	// mdBatch is the MetaBatch size of the storms (16 requests per
	// combined batch — two window-8 flights on one server, one short
	// flight each on many).
	mdBatch = 16
	// mdRounds is the create/unlink storm's round count per client:
	// each round creates a batch of files and unlinks it again.
	mdRounds = 6
	// mdReaddirRounds is the readdir storm's round count per client.
	mdReaddirRounds = 12
	// mdRenames is the rename chain length per client: one file walked
	// around the client's directory ring, one serial rename at a time.
	mdRenames = 48
)

// mdServersAxis is the swept server count.
var mdServersAxis = []int{1, 2, 4, 8}

// mdScenarios names the three workloads.
var mdScenarios = []string{"create-unlink", "readdir", "rename"}

// mdModes names the two namespace configurations.
var mdModes = []string{"fan-out", "sharded"}

// mdRun executes one scenario at one (sharded?, servers) point on a
// fresh simulated cluster and returns aggregate namespace ops/s.
func (c Config) mdRun(scenario string, sharded bool, servers int) (float64, error) {
	r, err := rig.New(rig.Desc{Servers: servers, Replicas: 1, Stripe: msStripe, Window: msWindow,
		Sharded: sharded, Trace: c.Trace})
	if err != nil {
		return 0, err
	}
	clusters := make([]*rfsrv.Cluster, mdClients)
	dirs := make([][]kernel.InodeID, mdClients)
	files := make([][]kernel.InodeID, mdClients)
	// The replicated namespace cannot run concurrent creates safely;
	// its create/unlink storm is the serialized best case, one process
	// driving every client in turn.
	procs, perProc := mdClients, 1
	if scenario == "create-unlink" && !sharded {
		procs, perProc = 1, mdClients
	}
	ops := 0
	span, err := r.Run("storm", procs, func(p *sim.Proc) error {
		// Clusters and directories are set up serially: in fan-out mode
		// concurrent namespace minting is unsafe (see the file comment),
		// and keeping setup identical across modes keeps the storms the
		// only difference.
		for i := range clusters {
			cluster, err := r.Cluster(p, r.HW.AddNode(fmt.Sprintf("client%d", i)), 10)
			if err != nil {
				return err
			}
			clusters[i] = cluster
			for d := 0; d < mdDirsPerCli; d++ {
				resp, err := cluster.Meta(p, &rfsrv.Req{
					Op: rfsrv.OpMkdir, Ino: 0, Name: fmt.Sprintf("c%d-d%d", i, d),
				})
				if err != nil {
					return err
				}
				dirs[i] = append(dirs[i], resp.Attr.Ino)
			}
			if err := mdSeedScenario(p, scenario, cluster, dirs[i], &files[i], i); err != nil {
				return err
			}
		}
		return nil
	}, func(p *sim.Proc, proc int) error {
		for i := proc * perProc; i < (proc+1)*perProc; i++ {
			n, err := mdStorm(p, scenario, clusters[i], dirs[i], files[i], i)
			if err != nil {
				return err
			}
			ops += n
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("metadata %s sharded=%v s=%d: %w", scenario, sharded, servers, err)
	}
	return float64(ops) / span.Seconds(), nil
}

// mdSeedScenario performs the scenario's per-client setup: the
// readdir storm scans pre-created files, the rename chain walks one.
func mdSeedScenario(p *sim.Proc, scenario string, cluster *rfsrv.Cluster, dirs []kernel.InodeID, files *[]kernel.InodeID, id int) error {
	var names []string
	switch scenario {
	case "readdir":
		// mdBatch-mdDirsPerCli getattr victims per batch round.
		for k := 0; k < mdBatch-mdDirsPerCli; k++ {
			names = append(names, fmt.Sprintf("c%d-s%d", id, k))
		}
	case "rename":
		names = []string{fmt.Sprintf("c%d-x0", id)}
	default:
		return nil
	}
	for k, name := range names {
		resp, err := cluster.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dirs[k%len(dirs)], Name: name})
		if err != nil {
			return err
		}
		*files = append(*files, resp.Attr.Ino)
	}
	return nil
}

// mdStorm runs one client's storm and returns its operation count.
func mdStorm(p *sim.Proc, scenario string, cluster *rfsrv.Cluster, dirs, files []kernel.InodeID, id int) (int, error) {
	switch scenario {
	case "create-unlink":
		return mdCreateUnlinkStorm(p, cluster, dirs, id)
	case "readdir":
		return mdReaddirStorm(p, cluster, dirs, files)
	case "rename":
		return mdRenameStorm(p, cluster, dirs, id)
	}
	return 0, fmt.Errorf("figures: unknown metadata scenario %q", scenario)
}

// mdCreateUnlinkStorm creates a batch of files spread over the
// client's directories, then unlinks the batch, mdRounds times — all
// through combined MetaBatch requests.
func mdCreateUnlinkStorm(p *sim.Proc, cluster *rfsrv.Cluster, dirs []kernel.InodeID, id int) (int, error) {
	ops := 0
	for round := 0; round < mdRounds; round++ {
		for _, op := range []rfsrv.Op{rfsrv.OpCreate, rfsrv.OpUnlink} {
			reqs := make([]*rfsrv.Req, mdBatch)
			for k := range reqs {
				reqs[k] = &rfsrv.Req{Op: op, Ino: dirs[k%len(dirs)],
					Name: fmt.Sprintf("c%d-r%d-f%d", id, round, k)}
			}
			if _, err := cluster.MetaBatch(p, reqs); err != nil {
				return 0, err
			}
			ops += mdBatch
		}
	}
	return ops, nil
}

// mdReaddirStorm scans the client's directories and getattrs its
// files, mdReaddirRounds times, one combined batch per round.
func mdReaddirStorm(p *sim.Proc, cluster *rfsrv.Cluster, dirs, files []kernel.InodeID) (int, error) {
	ops := 0
	for round := 0; round < mdReaddirRounds; round++ {
		reqs := make([]*rfsrv.Req, 0, len(dirs)+len(files))
		for _, d := range dirs {
			reqs = append(reqs, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: d})
		}
		for _, f := range files {
			reqs = append(reqs, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: f})
		}
		if _, err := cluster.MetaBatch(p, reqs); err != nil {
			return 0, err
		}
		ops += len(reqs)
	}
	return ops, nil
}

// mdRenameStorm walks the client's chain file around its directory
// ring: one serial rename per step, each a cross-owner multi-phase
// rename whenever the adjacent directories' owner groups differ.
func mdRenameStorm(p *sim.Proc, cluster *rfsrv.Cluster, dirs []kernel.InodeID, id int) (int, error) {
	name := fmt.Sprintf("c%d-x0", id)
	for r := 0; r < mdRenames; r++ {
		from := dirs[r%len(dirs)]
		to := dirs[(r+1)%len(dirs)]
		if _, err := cluster.Rename(p, from, name, to, name); err != nil {
			return 0, err
		}
	}
	return mdRenames, nil
}

// Metadata runs the whole suite and returns one figure: aggregate
// namespace ops/s against the server count, one series per
// (scenario, mode).
func (c Config) Metadata() ([]*Figure, error) {
	var series []netpipe.Series
	for _, scen := range mdScenarios {
		for _, mode := range mdModes {
			var s netpipe.Series
			s.Label = scen + " " + mode
			for _, n := range mdServersAxis {
				ops, err := c.mdRun(scen, mode == "sharded", n)
				if err != nil {
					return nil, err
				}
				s.Points = append(s.Points, netpipe.Point{Size: n, MBps: ops})
			}
			series = append(series, s)
		}
	}
	fig := &Figure{
		ID: "metadata",
		Title: fmt.Sprintf("Namespace storm ops/s vs server count (%d clients, %d dirs each, batches of %d)",
			mdClients, mdDirsPerCli, mdBatch),
		XLabel: "servers", YLabel: "aggregate namespace ops/s",
		Series: series,
		Unit:   "ops/s",
		Expected: "beyond the paper: the replicated namespace fans every mutation to all N " +
			"servers (and must serialize concurrent creates), so its mutation throughput is " +
			"flat-to-falling in N; directory-owned sharding sends each mutation to one owner " +
			"group, so create/unlink and rename throughput should grow with the server count " +
			"(≥1.5× from 1 to 8 servers is the acceptance bar)",
	}
	return []*Figure{fig}, nil
}
