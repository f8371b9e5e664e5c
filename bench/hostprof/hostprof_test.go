package hostprof

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassifyAttributesToTheInnermostRepoFrame(t *testing.T) {
	s := &Shares{ByPackage: map[string]float64{}}
	// Leaf first, as the profile lists them.
	s.classify([]string{"runtime.memmove", "repro/internal/mem.(*Memory).ReadAt", "repro/internal/hw.(*NIC).txPump"}, 4)
	s.classify([]string{"runtime.futex", "runtime.notesleep", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, 2)
	s.classify([]string{"runtime.mallocgc", "runtime.makeslice", "repro/internal/hw.(*NIC).Send"}, 1)
	s.classify([]string{"runtime.chanrecv", "runtime.chanrecv1", "repro/internal/sim.(*Chan[go.shape.*uint8]).Recv", "repro/internal/rfsrv.(*Server).mxWorker"}, 2)
	s.classify([]string{"repro/bench/workload.vecBytes", "repro/bench/workload.(*netpipePlan).window"}, 1)
	s.normalize()
	want := map[string]float64{"mem": 0.4, "hw": 0.1, "sim": 0.2, "other": 0.3}
	for pkg, share := range want {
		if math.Abs(s.ByPackage[pkg]-share) > 1e-12 {
			t.Errorf("%s share %v, want %v", pkg, s.ByPackage[pkg], share)
		}
	}
	if math.Abs(s.Handoff-0.4) > 1e-12 || math.Abs(s.GC-0.1) > 1e-12 {
		t.Errorf("handoff %v gc %v, want 0.4 and 0.1", s.Handoff, s.GC)
	}
}

var sink uint64

func TestCPUProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	s, err := CPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if s.Total > 0 {
		var sum float64
		for _, v := range s.ByPackage {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("package shares sum to %v, want 1", sum)
		}
	}
	if _, err := CPU(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("half a profile decoded without an error")
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	if err := fields([]byte{0x0a, 0x05, 0x01}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("a length-delimited field longer than its message was accepted")
	}
	if _, n := varint([]byte{0x80, 0x80}); n != 0 {
		t.Error("an unterminated varint was accepted")
	}
}

var chunk []byte

//go:noinline
func allocChunks(n, size int) {
	for i := 0; i < n; i++ {
		chunk = make([]byte, size) // above the sampling rate: always sampled
	}
}

// TestAllocCountsOnlyWhatTheBaselineLacks profiles two stretches back to
// back in one process, as `go run ./bench` does with its workloads: the
// second fold must hold its own allocations and none of the first's.
// Both stretches allocate from one call site, in two size classes — the
// runtime keeps a record per stack and size, the baseline is per stack.
func TestAllocCountsOnlyWhatTheBaselineLacks(t *testing.T) {
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 64 << 10
	publish := func() { runtime.GC(); runtime.GC() }
	const mb = 1 << 20
	stretches := []struct {
		chunks [][2]int // count, size
		total  float64
	}{
		{[][2]int{{32, mb}, {16, 2 * mb}}, 64 * mb},
		{[][2]int{{8, mb}}, 8 * mb},
	}
	for i, st := range stretches {
		publish()
		base := AllocSnapshot()
		for _, c := range st.chunks {
			allocChunks(c[0], c[1])
		}
		publish()
		if got := Alloc(base).Total; got < st.total || got > st.total+8*mb {
			t.Errorf("stretch %d folded %.0f bytes, want the %.0f it allocated and nothing of an earlier stretch", i, got, st.total)
		}
	}
	if whole := Alloc(nil).Total; whole < 72*mb {
		t.Errorf("without a baseline the profile holds %.0f bytes, want at least both stretches", whole)
	}
}
