package figures

// This file holds the shared-file coherence suite: the first
// multi-writer workload in the repository, and the scenario the
// size-coherence protocol (DESIGN.md §9) exists for. The multiserver
// suite striped one file per client; here K writer clients append,
// interleaved, to ONE striped file while K reader clients tail it —
// every writer's synchronous Write runs the cluster's validated size
// cache and OpSetSize reconciliation, and every reader's homed getattr
// revalidates against the size authority, so the measured throughput
// includes the full cost of keeping every server's local size (and
// with it homed getattr and striped-read EOF clipping) coherent.
//
// The interesting numbers are aggregate throughput against the server
// count, read/write latency, and the coherence overhead itself:
// OpSetSize reconciliation RPCs per data write. The overhead is the
// protocol's honest price — each size-extending write fans a grow-only
// OpSetSize to the servers its data did not touch — and it is what a
// single-writer workload never pays (those runs skip reconciliation
// whenever their validated cache already covers the write, which is
// why every single-writer figure in this file's siblings is
// bit-identical to the pre-coherence code).
//
// Every run finishes with an in-simulation coherence audit: the file's
// final size must be agreed by every server's local metadata and by a
// homed getattr through a fresh client, or the run fails — the harness
// half of rfsrv's TestClusterCrossClientExtend acceptance.

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/netpipe"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

const (
	// sfWindow is the per-server session window (the scalability
	// suite's best window).
	sfWindow = 8
	// sfWriters and sfReaders are the client counts on each side of
	// the shared file.
	sfWriters = 4
	sfReaders = 4
	// sfChunk is the application write/read unit: one stripe, so every
	// chunk maps to exactly one server.
	sfChunk = rfsrv.DefaultStripeSize
	// sfChunksPerWriter is each writer's share of the file in the full
	// suite: 4 writers x 16 chunks x 64 KB = 4 MB shared file.
	sfChunksPerWriter = 16
	// sfPoll is how long a reader sleeps when it has caught up with
	// the writers before re-checking the file size.
	sfPoll = sim.Time(20 * time.Microsecond)
)

// sfServersAxis is the swept server count.
var sfServersAxis = []int{1, 4, 8}

// sfResult carries one run's aggregate metrics.
type sfResult struct {
	mbps         float64
	writeP50     sim.Time
	writeP99     sim.Time
	readP50      sim.Time
	readP99      sim.Time
	setSizeRPCs  int
	writeChunks  int
	coherencePct float64 // OpSetSize RPCs per 100 data writes
}

// sfRun executes the shared-file workload over the given server count:
// sfWriters clients interleave synchronous chunk appends to one
// striped file while sfReaders clients tail it to the end, each client
// on its own node with its own cluster. chunksPerWriter scales the run
// (the short-mode smoke uses a small value). With batched set, the
// writers defer their reconciliation through the coalescing publish
// queue (Cluster.SetSizePublishBatch) and drain it before finishing —
// the amortized mode DESIGN.md §11 adds. The run fails if the final
// size is not coherent on every server and through a homed getattr.
func (c Config) sfRun(servers, chunksPerWriter int, batched bool) (sfResult, error) {
	r, err := rig.New(rig.Desc{Servers: servers, Replicas: 1, Stripe: msStripe, Window: sfWindow, Trace: c.Trace})
	if err != nil {
		return sfResult{}, err
	}
	totalChunks := sfWriters * chunksPerWriter
	total := int64(totalChunks) * sfChunk
	var (
		ino          kernel.InodeID
		writeSamples []sim.Time
		readSamples  []sim.Time
		setSizeRPCs  int
		bytesMoved   int
	)
	span, err := r.Run("sf", sfWriters+sfReaders, func(p *sim.Proc) error {
		// Replicate the empty file onto every server the way a cluster
		// client's fanned-out create would (same creation order → same
		// inode and a zero size epoch everywhere).
		for j, fs := range r.Stores {
			attr, err := fs.Create(p, fs.Root(), "shared")
			if err != nil {
				return err
			}
			if j == 0 {
				ino = attr.Ino
			} else if attr.Ino != ino {
				return fmt.Errorf("figures: shared-file seed inode divergence")
			}
		}
		return nil
	}, func(p *sim.Proc, i int) error {
		name := fmt.Sprintf("writer%d", i)
		if i >= sfWriters {
			name = fmt.Sprintf("reader%d", i-sfWriters)
		}
		cluster, err := r.Cluster(p, r.HW.AddNode(name), 10)
		if err != nil {
			return err
		}
		if i >= sfWriters {
			lat, moved, err := sfReader(p, cluster, ino, total)
			readSamples = append(readSamples, lat...)
			bytesMoved += moved
			return err
		}
		lat, moved, err := sfWriter(p, cluster, ino, i, chunksPerWriter, batched)
		writeSamples = append(writeSamples, lat...)
		bytesMoved += moved
		setSizeRPCs += int(cluster.SetSizes.N)
		return err
	})
	if err == nil {
		_, err = r.Run("audit", 0, func(p *sim.Proc) error { return sfAudit(p, r, ino, total) }, nil)
	}
	if err != nil {
		return sfResult{}, fmt.Errorf("shared-file s=%d: %w", servers, err)
	}
	w := summarize(writeSamples, 0, 0)
	rd := summarize(readSamples, 0, 0)
	return sfResult{
		mbps:     mbps(bytesMoved, span),
		writeP50: w.p50, writeP99: w.p99,
		readP50: rd.p50, readP99: rd.p99,
		setSizeRPCs:  setSizeRPCs,
		writeChunks:  totalChunks,
		coherencePct: 100 * float64(setSizeRPCs) / float64(totalChunks),
	}, nil
}

// sfAudit is the end-of-run coherence check: every server's local size
// and a homed getattr through a fresh cluster client must agree on the
// file's final size.
func sfAudit(p *sim.Proc, r *rig.Rig, ino kernel.InodeID, total int64) error {
	for j, fs := range r.Stores {
		a, err := fs.Getattr(p, ino)
		if err != nil {
			return err
		}
		if a.Size != total {
			return fmt.Errorf("figures: shared-file incoherent: server %d local size %d, want %d", j, a.Size, total)
		}
	}
	cluster, err := r.Cluster(p, r.HW.AddNode("audit"), 10)
	if err != nil {
		return err
	}
	resp, err := cluster.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
	if err != nil || resp.Attr.Size != total {
		return fmt.Errorf("figures: shared-file homed getattr = %d (%v), want %d", resp.Attr.Size, err, total)
	}
	return nil
}

// sfWriter appends writer w's interleaved chunks (w, w+K, w+2K, ...)
// to the shared file through its own cluster, synchronously, and
// returns chunk latencies and bytes written. Per-write mode pays the reconciliation fan on every
// size-extending write; batched mode coalesces the ends through the
// publish queue — one combined batch round per window drain — and
// drains the queue before the writer finishes, so the end-of-run
// audit still sees every server agreeing on the final size.
func sfWriter(p *sim.Proc, cluster *rfsrv.Cluster, ino kernel.InodeID, w, chunksPerWriter int, batched bool) ([]sim.Time, int, error) {
	node := cluster.Node()
	if batched {
		if err := cluster.SetSizePublishBatch(rfsrv.DefaultSizePublishBatch); err != nil {
			return nil, 0, err
		}
	}
	va, err := node.Kernel.Mmap(sfChunk, "sf-wbuf")
	if err != nil {
		return nil, 0, err
	}
	vec := vecKernel(node.Kernel, va, sfChunk)
	var samples []sim.Time
	moved := 0
	totalChunks := sfWriters * chunksPerWriter
	for chunk := w; chunk < totalChunks; chunk += sfWriters {
		t0 := p.Now()
		resp, err := cluster.Write(p, ino, int64(chunk)*sfChunk, vec)
		if err != nil {
			return nil, 0, err
		}
		if int(resp.N) != sfChunk {
			return nil, 0, fmt.Errorf("figures: short shared-file write %d at chunk %d", resp.N, chunk)
		}
		samples = append(samples, p.Now()-t0)
		moved += sfChunk
	}
	if batched {
		if err := cluster.FlushSizes(p); err != nil {
			return nil, 0, err
		}
	}
	return samples, moved, nil
}

// sfReader tails the shared file through its own cluster: a homed
// getattr (the size authority) bounds how far it may read, whole
// chunks stream through the window, and a reader that catches up with
// the writers sleeps briefly before re-checking. Chunks the writers
// have not reached yet inside the visible size read as holes — the
// reader measures coherence and transport cost, not content.
func sfReader(p *sim.Proc, cluster *rfsrv.Cluster, ino kernel.InodeID, total int64) ([]sim.Time, int, error) {
	var samples []sim.Time
	rs, err := newReadStream(cluster, ino, sfChunk, "sf-rbuf", func(p *sim.Proc, pd rfsrv.PendingOp, _ *rfsrv.Resp) {
		samples = append(samples, p.Now()-pd.Issued())
	})
	if err != nil {
		return nil, 0, err
	}
	var pos int64
poll:
	for pos < total {
		resp, err := cluster.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
		if err != nil {
			rs.pl.Fail(err)
			break
		}
		limit := min(resp.Attr.Size-resp.Attr.Size%sfChunk, total)
		if pos == limit {
			p.Sleep(sfPoll)
			continue
		}
		for ; pos < limit; pos += sfChunk {
			if rs.read(p, pos) != nil {
				break poll
			}
		}
	}
	if err := rs.pl.Drain(p); err != nil {
		return nil, 0, err
	}
	return samples, rs.issued * sfChunk, nil
}

// SharedFile runs the whole suite and returns three figures: aggregate
// throughput, read/write latency percentiles, and the coherence
// overhead (OpSetSize reconciliation RPCs per 100 data writes), each
// against the server count.
func (c Config) SharedFile() ([]*Figure, error) {
	var bw, bwBatched, coh, cohBatched netpipe.Series
	bw.Label, bwBatched.Label = "per-write", "batched publish"
	coh.Label, cohBatched.Label = "per-write", "batched publish"
	var wp50, wp99, rp50, rp99 netpipe.Series
	wp50.Label, wp99.Label = "write p50", "write p99"
	rp50.Label, rp99.Label = "read p50", "read p99"
	for _, s := range sfServersAxis {
		r, err := c.sfRun(s, sfChunksPerWriter, false)
		if err != nil {
			return nil, err
		}
		bw.Points = append(bw.Points, netpipe.Point{Size: s, MBps: r.mbps})
		coh.Points = append(coh.Points, netpipe.Point{Size: s, MBps: r.coherencePct})
		wp50.Points = append(wp50.Points, netpipe.Point{Size: s, OneWay: r.writeP50})
		wp99.Points = append(wp99.Points, netpipe.Point{Size: s, OneWay: r.writeP99})
		rp50.Points = append(rp50.Points, netpipe.Point{Size: s, OneWay: r.readP50})
		rp99.Points = append(rp99.Points, netpipe.Point{Size: s, OneWay: r.readP99})
		b, err := c.sfRun(s, sfChunksPerWriter, true)
		if err != nil {
			return nil, err
		}
		bwBatched.Points = append(bwBatched.Points, netpipe.Point{Size: s, MBps: b.mbps})
		cohBatched.Points = append(cohBatched.Points, netpipe.Point{Size: s, MBps: b.coherencePct})
	}
	bwFig := &Figure{
		ID: "sharedfile",
		Title: fmt.Sprintf("Shared-file multi-writer throughput vs server count (%d writers + %d readers, window %d, %d KB chunks)",
			sfWriters, sfReaders, sfWindow, sfChunk/1024),
		XLabel: "servers (one file striped across)", YLabel: "aggregate throughput (MB/s)",
		Series: []netpipe.Series{bw, bwBatched},
		Expected: "beyond the paper: its per-mount attribute caches had no cross-client " +
			"invalidation, so a shared-file workload could not be served coherently at " +
			"all; with the size-epoch protocol the workload runs coherent and still " +
			"scales with the server count, and batched publishes recover the fan's cost",
	}
	latFig := &Figure{
		ID:     "sharedfile-lat",
		Title:  "Shared-file request latency vs server count",
		XLabel: "servers (one file striped across)", YLabel: "latency p50/p99 (µs)",
		Series: []netpipe.Series{wp50, wp99, rp50, rp99},
		Expected: "each write pays the OpSetSize reconciliation fan, yet latency still " +
			"falls with the server count: four writers contending for one link queue " +
			"far longer than the widened cluster's fan costs",
	}
	cohFig := &Figure{
		ID:     "sharedfile-coh",
		Title:  "Size-coherence overhead vs server count",
		XLabel: "servers (one file striped across)", YLabel: "OpSetSize RPCs per 100 data writes",
		Series: []netpipe.Series{coh, cohBatched},
		Unit:   "RPCs",
		Expected: "per-write reconciliation approaches (N-1) RPCs per extending write as " +
			"the cluster widens and vanishes on one server; the batched publish queue " +
			"coalesces a window of ends into one combined round, dropping the amortized " +
			"cost below one OpSetSize per write at every width",
	}
	return []*Figure{bwFig, latFig, cohFig}, nil
}
