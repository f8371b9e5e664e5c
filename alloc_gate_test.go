//go:build !race

// Allocation regression gates for the data-path hot loops. The PR6
// zero-alloc pass cut the simulator's per-request heap traffic (87
// allocs per cluster op, down from 287; Fig 5a generation from 27.3k
// to 17.6k allocs, Fig 5b from 128k to 40.8k); these tests pin
// ceilings 12-25% above the measured numbers so a future change that
// reintroduces per-request allocation fails loudly instead of slowly
// rotting the benchmarks. A count cannot see a 64 KB staging buffer —
// it is one allocation — so since PR 19's copy-only data plane every
// per-op gate carries a bytes ceiling beside its count, and the ORFS
// file path (buffered hit, O_DIRECT) and the raw fabric (a 4 KB round
// trip on GM-physical and MX-kernel) are gated too. Excluded under the
// race detector, whose instrumentation changes allocation counts (and
// whose sync.Pool drops a quarter of what is put back).
package knapi

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/figures"
)

// Measured with go1.24 on linux/amd64 once a send's NIC record, a
// receive's extent list, a staged send's extents, a cluster part's
// Pending and its destination slice were all recycled rather than
// allocated per message (the "was" figures are from before). The two
// figure ceilings are the measurements plus ~25% for toolchain drift,
// the per-op count ceilings plus ~12%, the per-op bytes ceilings plus
// ~15% and at least 300 B (a garbage collection that empties the pools
// mid-measurement adds back a few hundred B/op, which the margin
// covers; one reintroduced 64 KB buffer per request adds 65 536).
// Lower them when a future pass cuts allocations further.
const (
	maxRequestPathAllocsPerOp    = 14    // measured 12.29 (was 24.04)
	maxFig5aAllocs               = 7100  // measured 5666 (was 7111)
	maxFig5bAllocs               = 21700 // measured 17297 (was 19203)
	maxExtendingWriteAllocsPerOp = 37    // measured 32.30, a one-page write + a 3-server size fan (was 57.30)

	maxRequestPathBytesPerOp    = 2450  // measured 2128 (64 KB ops; was 3504)
	maxWriteAllocsPerOp         = 15    // measured 13.02, a 64 KB write whose payload travels alone (was 25.08)
	maxWriteBytesPerOp          = 2490  // measured 2161 (was 3465)
	maxExtendingWriteBytesPerOp = 11420 // measured 9926 (was 12694)
	maxORFSDirectAllocsPerOp    = 37    // measured 32.14 (was 42.14)
	maxORFSDirectBytesPerOp     = 2310  // measured 2002 (was 3474)

	// A 64 KB MX Session read into kernel memory, synchronous and eight
	// deep, in two eager pieces into receives posted before the request
	// left, and a write from it eight deep, in two eager pieces into
	// receives the server posts as it admits the header.
	maxKernelRead64KAllocsPerOp    = 15   // measured 13.03 (was 25.02)
	maxKernelRead64KBytesPerOp     = 2430 // measured 2113 (was 3409)
	maxKernelRead64KW8AllocsPerOp  = 16   // measured 14.01 (was 26.01)
	maxKernelRead64KW8BytesPerOp   = 2540 // measured 2208 (was 3504)
	maxKernelWrite64KW8AllocsPerOp = 17   // measured 15.03 (was 27.03)
	maxKernelWrite64KW8BytesPerOp  = 2660 // measured 2306 (was 3603)

	// One synchronous 64 KB read of a stripe that two of four servers
	// hold: its two read slices are two requests, one to each replica.
	// The ceilings are the usual margins over what the read cost while
	// the primary served all of it in one request (27.02 allocs/op,
	// 3 633 B/op), so the second request must not cost more than the
	// per-message cuts saved; it measures 19.05 and 3 282.
	maxReplicatedReadAllocsPerOp = 31
	maxReplicatedReadBytesPerOp  = 4180

	// One 4 KB ping-pong round trip on the raw fabric: two messages.
	maxGMRoundTripAllocsPerOp = 21   // measured 17.99 (was 19.99)
	maxGMRoundTripBytesPerOp  = 1060 // measured 752 (was 1264)
	maxMXRoundTripAllocsPerOp = 9    // measured 8.00 (was 13.99)
	maxMXRoundTripBytesPerOp  = 1390 // measured 1087 (was 1727)
)

// figAllocs generates the figure twice — once to warm lazy caches and
// pools, once measured — and returns the malloc count of the second
// run. The simulations are deterministic, so the count is stable to
// within a handful of allocations.
func figAllocs(t *testing.T, fn func() (*figures.Figure, error)) float64 {
	t.Helper()
	if _, err := fn(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := fn(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// gate fails the test when a measured per-op cost exceeds its ceilings.
func gate(t *testing.T, what string, got figures.HostCost, maxAllocs, maxBytes float64) {
	t.Helper()
	t.Logf("%s: %.2f allocs/op (ceiling %.0f), %.0f B/op (ceiling %.0f)", what, got.Allocs, maxAllocs, got.Bytes, maxBytes)
	if got.Allocs > maxAllocs {
		t.Errorf("%s allocates %.2f objects/op, above the %.0f ceiling — a hot-path allocation crept back in", what, got.Allocs, maxAllocs)
	}
	if got.Bytes > maxBytes {
		t.Errorf("%s allocates %.0f B/op, above the %.0f ceiling — a per-request buffer crept back in", what, got.Bytes, maxBytes)
	}
}

// TestAllocGateRequestPath gates heap allocations per client-observed
// 64 KB operation on the cluster's MX request path (session issue,
// server dispatch/reply, NIC and channel machinery): the count, and the
// bytes — which stay far below the payload size only while the NIC's
// payload buffers, memfs's block copies and the page frames are reused
// rather than allocated.
func TestAllocGateRequestPath(t *testing.T) {
	got, err := figures.RequestPathAllocs(256)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "request path", got, maxRequestPathAllocsPerOp, maxRequestPathBytesPerOp)
}

// TestAllocGateReplicatedRead gates a 64 KB read from a cluster that
// keeps two replicas of every stripe: each replica serves its read
// slice, so the read costs two requests where it once cost one, and
// the ceilings are the one request's.
func TestAllocGateReplicatedRead(t *testing.T) {
	got, err := figures.ReplicatedReadAllocs(256)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "64 KB R=2 cluster read", got, maxReplicatedReadAllocsPerOp, maxReplicatedReadBytesPerOp)
}

// TestAllocGateWrite gates a 64 KB MX write on its own: its payload
// travels as its own message into fresh server frames that the block
// store installs by page flip, and the frame list and receive vector of
// that path live in the server's reused work records — so a write costs
// less than the request path's ceilings, which bound it from above, and
// its own ceilings sit the usual margin over what it measures.
func TestAllocGateWrite(t *testing.T) {
	got, err := figures.WriteAllocs(256)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "64 KB MX write", got, maxWriteAllocsPerOp, maxWriteBytesPerOp)
}

// TestAllocGateExtendingWrite gates heap allocations per extending
// one-page write over four servers: the data leg plus the grow-OpSetSize
// fan that publishes the new end to the other three before the write
// returns. The fan reuses one request and the cluster's flight scratch,
// so it must not regrow per-write reconciliation garbage.
func TestAllocGateExtendingWrite(t *testing.T) {
	got, err := figures.ExtendingWriteAllocs(256)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "extending write + size fan", got, maxExtendingWriteAllocsPerOp, maxExtendingWriteBytesPerOp)
}

// TestAllocGateKernelRead64K gates a 64 KB MX Session read into kernel
// memory, at window 1 and at window 8, and a write from it at window 8:
// one eager message cannot carry the data, so it travels in two eager
// pieces — a read's into receives posted before the request left, a
// write's into receives the server posts as it admits the header —
// where it once took MX's rendezvous.
func TestAllocGateKernelRead64K(t *testing.T) {
	for _, w := range []struct {
		op                  string
		window              int
		maxAllocs, maxBytes float64
	}{
		{"read", 1, maxKernelRead64KAllocsPerOp, maxKernelRead64KBytesPerOp},
		{"read", 8, maxKernelRead64KW8AllocsPerOp, maxKernelRead64KW8BytesPerOp},
		{"write", 8, maxKernelWrite64KW8AllocsPerOp, maxKernelWrite64KW8BytesPerOp},
	} {
		got, err := figures.KernelDataAllocs(256, w.window, w.op == "write")
		if err != nil {
			t.Fatal(err)
		}
		gate(t, fmt.Sprintf("64 KB kernel %s, window %d", w.op, w.window), got, w.maxAllocs, w.maxBytes)
	}
}

// TestAllocGateORFSFile gates the paper's headline path (the orfs_file
// workload's): a 64 KB read syscall on an ORFS mount. Served from the page
// cache it is sixteen frame → user-page copies and allocates nothing
// at all; O_DIRECT it is one request through orfs, Session, the wire
// and the server's memfs, and allocates the request path's small
// control objects but no buffer.
func TestAllocGateORFSFile(t *testing.T) {
	hit, direct, err := figures.ORFSFileAllocs(256)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "ORFS buffered-hit 64 KB read", hit, 0, 0)
	gate(t, "ORFS O_DIRECT 64 KB read", direct, maxORFSDirectAllocsPerOp, maxORFSDirectBytesPerOp)
}

// TestAllocGatePipelinedReadBounces gates what a queued request pins on
// the server: a pipelined read through an MX server takes no bounce
// buffer from the pool in steady state. A read (like every request but
// an inline write, whose payload's frames go with it) is copied out of
// the receiver's inbox when it is received, so the receiver posts the
// same inbox again; taking a fresh bounce per request, as the server
// did while it handed every bounce to a worker, reads 1.0 here.
func TestAllocGatePipelinedReadBounces(t *testing.T) {
	got, err := figures.PipelinedReadBounces(256)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pipelined 16 KB reads: %.3f bounce buffers from the server's pool per request (want 0)", got)
	if got != 0 {
		t.Errorf("a pipelined read takes %.3f bounce buffers from the server's pool, want 0 — queued reads pin bounces again", got)
	}
}

// TestAllocGateFabricRoundTrip gates the raw fabric, with nothing above
// it: one 4 KB ping-pong round trip — two messages, two posted
// receives, their completions — on GM's physical-address primitives and
// on an MX kernel endpoint. This is where a per-message object in sim,
// hw, gm, mx or a fabric adapter shows undiluted.
func TestAllocGateFabricRoundTrip(t *testing.T) {
	gmPhys, mxKernel, err := figures.FabricRoundTripAllocs(512)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "GM-physical 4 KB round trip", gmPhys, maxGMRoundTripAllocsPerOp, maxGMRoundTripBytesPerOp)
	gate(t, "MX-kernel 4 KB round trip", mxKernel, maxMXRoundTripAllocsPerOp, maxMXRoundTripBytesPerOp)
}

// TestAllocGateFig5a gates the latency figure's simulation hot path.
func TestAllocGateFig5a(t *testing.T) {
	cfg := figures.Config{Iters: 6, Warmup: 1} // bench_test.go's benchConfig
	n := figAllocs(t, cfg.Fig5a)
	t.Logf("Fig5a generation: %.0f allocs (ceiling %d)", n, maxFig5aAllocs)
	if n > maxFig5aAllocs {
		t.Errorf("Fig5a generation allocates %.0f, above the %d ceiling", n, maxFig5aAllocs)
	}
}

// TestAllocGateFig5b gates the bandwidth figure's simulation hot path
// (large transfers: the fragmentation and gather loops).
func TestAllocGateFig5b(t *testing.T) {
	cfg := figures.Config{Iters: 6, Warmup: 1}
	n := figAllocs(t, cfg.Fig5b)
	t.Logf("Fig5b generation: %.0f allocs (ceiling %d)", n, maxFig5bAllocs)
	if n > maxFig5bAllocs {
		t.Errorf("Fig5b generation allocates %.0f, above the %d ceiling", n, maxFig5bAllocs)
	}
}
