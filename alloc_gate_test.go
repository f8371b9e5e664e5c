//go:build !race

// Allocation regression gates for the data-path hot loops. The PR6
// zero-alloc pass cut the simulator's per-request heap traffic (87
// allocs per cluster op, down from 287; Fig 5a generation from 27.3k
// to 17.6k allocs, Fig 5b from 128k to 40.8k); these tests pin
// ceilings 12-25% above the measured numbers so a future change that
// reintroduces per-request allocation fails loudly instead of slowly
// rotting the benchmarks. Excluded under the race detector, whose
// instrumentation changes allocation counts.
package knapi

import (
	"runtime"
	"testing"

	"repro/internal/figures"
)

// Measured with go1.24 on linux/amd64. The two figure ceilings are the
// PR6 measurements plus ~25% for toolchain drift; the two per-op
// ceilings are the PR 13 measurements (unchanged by PR 14's placement
// refactor, whose data-path methods are //allocfree) plus ~12%. Lower
// them when a future pass cuts allocations further.
const (
	maxRequestPathAllocsPerOp = 95    // measured 84.5
	maxFig5aAllocs            = 22000 // measured 17620
	maxFig5bAllocs            = 51000 // measured 40795
	maxSizePublishAllocsPerOp = 76    // measured 67.5
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

// TestAllocGateRequestPath gates heap allocations per client-observed
// operation on the cluster's MX request path (session issue, server
// dispatch/reply, NIC and channel machinery).
func TestAllocGateRequestPath(t *testing.T) {
	perOp, err := figures.RequestPathAllocs(256)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("request path: %.2f allocs/op (ceiling %d)", perOp, maxRequestPathAllocsPerOp)
	if perOp > maxRequestPathAllocsPerOp {
		t.Errorf("request path allocates %.2f/op, above the %d ceiling — a hot-path allocation crept back in",
			perOp, maxRequestPathAllocsPerOp)
	}
}

// TestAllocGateSizePublish gates heap allocations per extending write
// on the batched size-publish path (PR 7): the write plus the amortized
// share of the coalesced flush must stay below the plain request path,
// not regrow per-write reconciliation garbage.
func TestAllocGateSizePublish(t *testing.T) {
	perOp, err := figures.SizePublishAllocs(256)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batched size publish: %.2f allocs/op (ceiling %d)", perOp, maxSizePublishAllocsPerOp)
	if perOp > maxSizePublishAllocsPerOp {
		t.Errorf("batched size-publish path allocates %.2f/op, above the %d ceiling — per-write garbage crept back into the coalescing queue",
			perOp, maxSizePublishAllocsPerOp)
	}
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
