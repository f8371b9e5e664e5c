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
// file path (buffered hit and miss, O_DIRECT) and the raw fabric (a
// 4 KB round trip on GM-physical and MX-kernel) are gated too.
// Excluded under the race detector, whose instrumentation changes
// allocation counts.
package knapi

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/figures"
)

// Measured with go1.24 on linux/amd64 once every fabric Op the rfsrv
// client and server and the netpipe harness hold is released to its
// transport's free list, the zero-copy send's completion callback is
// built once per request and the server decodes each request into its
// work record (the "was" figures are from before; a send's NIC record, a
// staged send's extents, a cluster part's Pending and its destination
// slice were recycled already). The two figure ceilings are the
// measurements plus ~25% for toolchain drift, the per-op count ceilings
// plus ~12%, the per-op bytes ceilings plus ~15% and at least 300 B
// (runs vary by a few tens of B/op; one reintroduced 64 KB buffer per
// request adds 65 536). Lower them when a future pass cuts allocations
// further. A measurement marked "before" was taken while freed frames
// went to a sync.Pool, which a collection mid-measurement emptied.
const (
	maxRequestPathAllocsPerOp    = 2     // measured 1.55 (was 12.29)
	maxFig5aAllocs               = 3500  // measured 2785 (was 5666)
	maxFig5bAllocs               = 16800 // measured 13395 (was 17297)
	maxExtendingWriteAllocsPerOp = 13    // measured 11.30, a one-page write + a 3-server size fan (was 32.30)

	maxRequestPathBytesPerOp    = 450  // measured 144 (230 before; 64 KB ops; was 2128)
	maxWriteAllocsPerOp         = 3    // measured 2.04, a 64 KB write whose payload travels alone (was 13.02)
	maxWriteBytesPerOp          = 500  // measured 192 (278 before; was 2161)
	maxExtendingWriteBytesPerOp = 6760 // measured 5872 (6061 before; was 9926)
	maxORFSDirectAllocsPerOp    = 10   // measured 8.15 once pins are held by value (24.15 before; was 32.14)
	maxORFSDirectBytesPerOp     = 580  // measured 276 (327 before; was 2002)

	// A 64 KB MX Session read into kernel memory, synchronous and eight
	// deep, in two eager pieces into receives posted before the request
	// left, and a write from it eight deep, in two eager pieces into
	// receives the server posts as it admits the header.
	maxKernelRead64KAllocsPerOp    = 3   // measured 2.04 (was 13.03)
	maxKernelRead64KBytesPerOp     = 450 // measured 144 (230 before; was 2113)
	maxKernelRead64KW8AllocsPerOp  = 4   // measured 3.02 (was 14.01)
	maxKernelRead64KW8BytesPerOp   = 580 // measured 272 (305 before; was 2208)
	maxKernelWrite64KW8AllocsPerOp = 5   // measured 4.03 (was 15.03)
	maxKernelWrite64KW8BytesPerOp  = 670 // measured 368 (403 before; was 2306)

	// One synchronous 64 KB read of a stripe that two of four servers
	// hold: its two read slices are two requests, one to each replica.
	// It measured 19.05 allocs/op and 3 282 B/op while every request
	// allocated its Ops, less than the one request the primary once
	// served (27.02, 3 633); with the Ops released, 3.05 and 418; with
	// freed frames kept through collections, 3.00 and 288.
	maxReplicatedReadAllocsPerOp = 4
	maxReplicatedReadBytesPerOp  = 590

	// One 4 KB ping-pong round trip on the raw fabric: two messages.
	maxGMRoundTripAllocsPerOp = 1   // measured 0.00 with posted receives and acks as FIFOs (6.00 before; was 17.99)
	maxGMRoundTripBytesPerOp  = 300 // measured 0 (176 before; was 752)
	maxMXRoundTripAllocsPerOp = 1   // measured 0.00, a stray runtime allocation reads 0.01 (was 8.00)
	maxMXRoundTripBytesPerOp  = 300 // measured 0 (was 1087)

	// A buffered 64 KB read that misses all sixteen pages, the
	// orfs_file workload's buffered read: sixteen window-1 page
	// requests into fresh page-cache frames, sixteen LRU evictions.
	// What is left per page is its CachedPage record and its decoded
	// reply. Before GM's posted receives and acks were FIFOs, the LRU
	// intrusive and the fill's frame list and the page request's vector
	// reused, it measured 224.03 allocs/op and 8 726 B/op over GM, 80.02
	// and 4 482 over MX.
	maxORFSMissGMAllocsPerOp = 36   // measured 32.03
	maxORFSMissGMBytesPerOp  = 3270 // measured 2838
	maxORFSMissMXAllocsPerOp = 36   // measured 32.01
	maxORFSMissMXBytesPerOp  = 3240 // measured 2817
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
// slice, so the read costs two requests where it once cost one; the
// ceilings sit the usual margins over what it measures.
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
// control objects but no buffer; missing every page, it is sixteen
// page-cache fills over GM's physical-address primitives and over MX,
// each a page request into a fresh frame.
func TestAllocGateORFSFile(t *testing.T) {
	got, err := figures.ORFSFileAllocs(256)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "ORFS buffered-hit 64 KB read", got.Hit, 0, 0)
	gate(t, "ORFS O_DIRECT 64 KB read", got.Direct, maxORFSDirectAllocsPerOp, maxORFSDirectBytesPerOp)
	gate(t, "ORFS buffered-miss 64 KB read over GM-physical", got.MissGM, maxORFSMissGMAllocsPerOp, maxORFSMissGMBytesPerOp)
	gate(t, "ORFS buffered-miss 64 KB read over MX", got.MissMX, maxORFSMissMXAllocsPerOp, maxORFSMissMXBytesPerOp)
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
	cfg := figures.Config{Iters: 6, Warmup: 1} // the ceilings were measured at this effort
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
