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
	"runtime"
	"testing"

	"repro/internal/figures"
)

// Measured with go1.24 on linux/amd64 at PR 20 (event-driven NIC
// pipeline; one record per send, no boxed trace arguments, no
// extent-list temporaries). The two figure ceilings are the
// measurements plus ~25% for toolchain drift, the per-op count ceilings
// plus ~12%, the per-op bytes ceilings plus ~15% (a garbage collection
// that empties the pools mid-measurement adds back a few hundred B/op,
// which the margin covers; one reintroduced 64 KB buffer per request
// adds 65 536). Lower them when a future pass cuts allocations further.
const (
	maxRequestPathAllocsPerOp = 39    // measured 34.3 (PR 19: 78.5)
	maxFig5aAllocs            = 9000  // measured 7179 (PR 19: 15377)
	maxFig5bAllocs            = 25500 // measured 20354 (PR 19: 38216)
	maxSizePublishAllocsPerOp = 33    // measured 29.4 (PR 19: 61.9)

	maxRequestPathBytesPerOp = 7450  // measured 6460 (64 KB ops; PR 19: 7314)
	maxSizePublishBytesPerOp = 10700 // measured 9267 (PR 19: 9940)
	maxORFSDirectAllocsPerOp = 64    // measured 57.0 (PR 19: 99.1)
	maxORFSDirectBytesPerOp  = 7150  // measured 6192 (PR 19: 7183)

	// One 4 KB ping-pong round trip on the raw fabric: two messages.
	maxGMRoundTripAllocsPerOp = 23   // measured 20.0
	maxGMRoundTripBytesPerOp  = 1470 // measured 1272
	maxMXRoundTripAllocsPerOp = 16   // measured 14.0
	maxMXRoundTripBytesPerOp  = 1920 // measured 1664
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

// TestAllocGateSizePublish gates heap allocations per extending write
// on the batched size-publish path (PR 7): the write plus the amortized
// share of the coalesced flush must stay below the plain request path,
// not regrow per-write reconciliation garbage.
func TestAllocGateSizePublish(t *testing.T) {
	got, err := figures.SizePublishAllocs(256)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "batched size publish", got, maxSizePublishAllocsPerOp, maxSizePublishBytesPerOp)
}

// TestAllocGateORFSFile gates the paper's headline path (ROADMAP item
// 3(b)): a 64 KB read syscall on an ORFS mount. Served from the page
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
// a write) is copied out of the bounce it landed in when it is
// received, so the receiver posts the same bounce again; taking a fresh
// 272 KB bounce per request, as the server did while it handed every
// bounce to a worker, reads 1.0 here.
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
