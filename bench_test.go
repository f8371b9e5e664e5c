// BenchmarkRequestPathAllocs reports the headline number of the
// zero-alloc request path, which alloc_gate_test.go pins:
//
//	go test -run=NONE -bench=RequestPathAllocs -benchmem .
//
// The paper's figures, the ablations and the cluster suites have no
// benchmark: `go run ./cmd/figures` runs them, and
// tools/experiments' tier-1 test checks EXPERIMENTS.md against their
// exact text. The repository's perf record is `go run ./bench`.
package knapi

import (
	"testing"

	"repro/internal/figures"
)

// BenchmarkRequestPathAllocs — heap allocations per client-observed
// cluster operation on the MX request path (alloc_gate_test.go pins its
// ceiling).
func BenchmarkRequestPathAllocs(b *testing.B) {
	var perOp figures.HostCost
	var err error
	for i := 0; i < b.N; i++ {
		perOp, err = figures.RequestPathAllocs(256)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Not the builtin "allocs/op" (only shown under -benchmem): this is
	// the per-cluster-operation count measured inside the simulation.
	b.ReportMetric(perOp.Allocs, "req-allocs/op")
	b.ReportMetric(perOp.Bytes, "req-bytes/op")
}
