package main

// The runner: repetitions of one workload, the two clocks, and the
// host-side measurements of the traced run.
//
// Virtual values come from the simulation engine. The engine is
// deterministic, so every repetition at one seed must produce
// bit-identical virtual results — the runner compares each repetition
// with the first and fails the run when they differ.
//
// Host values are taken with the runner itself pinned to one P: exactly
// one simulated process is runnable at any instant, so extra Ps only
// add cross-thread futex wake-ups and noise (measured on the 2-vCPU
// reference box: the same repetition ranged 2.8-7.2 s at GOMAXPROCS=2
// and 2.34-2.61 s pinned). A GC runs between repetitions, the first
// repetition is discarded, and every host metric is the median of at
// least seven repetitions.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/bench/hostprof"
	"repro/bench/metrics"
	"repro/bench/trace"
	"repro/bench/workload"
)

// profileSeconds is how much measured-window time the traced run's
// CPU profile covers at full scale (at 100 Hz, ~250 samples).
const profileSeconds = 2.5

// hostSeries collects one host measurement per repetition.
type hostSeries struct {
	usPerOp, allocsPerOp, bytesPerOp, setupS []float64
}

func (h *hostSeries) add(o *workload.Outcome) {
	ops := float64(o.Ops)
	h.usPerOp = append(h.usPerOp, float64(o.WindowHost.Nanoseconds())/1e3/ops)
	h.allocsPerOp = append(h.allocsPerOp, float64(o.Mallocs)/ops)
	h.bytesPerOp = append(h.bytesPerOp, float64(o.AllocBytes)/ops)
	h.setupS = append(h.setupS, o.SetupHost.Seconds())
}

// sameVirtual reports the first virtual difference between two
// repetitions, or "".
func sameVirtual(a, b *workload.Outcome) string {
	switch {
	case a.Ops != b.Ops || a.Failed != b.Failed:
		return fmt.Sprintf("ops/failed %d/%d vs %d/%d", a.Ops, a.Failed, b.Ops, b.Failed)
	case a.Payload != b.Payload:
		return fmt.Sprintf("payload %d vs %d bytes", a.Payload, b.Payload)
	case a.Window != b.Window:
		return fmt.Sprintf("virtual window %v vs %v", a.Window, b.Window)
	case !reflect.DeepEqual(a.E2E, b.E2E):
		return fmt.Sprintf("end-to-end virtual metrics %v vs %v", a.E2E, b.E2E)
	case !reflect.DeepEqual(a.Layer, b.Layer):
		for k, v := range a.Layer {
			if b.Layer[k] != v {
				return fmt.Sprintf("per-layer metric %s %v vs %v", k, v, b.Layer[k])
			}
		}
		return "per-layer metric sets differ"
	case !reflect.DeepEqual(a.Samples, b.Samples):
		return "per-operation latency samples differ"
	}
	return ""
}

// cpuTimes returns the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime), tv(ru.Stime)
}

// runWorkload runs one workload untraced or traced and returns its
// result; for a traced run also the recorder holding the last traced
// repetition's spans and the ladder's.
func runWorkload(name string, opt options, traced bool) (*metrics.Result, *trace.Recorder, error) {
	started := time.Now()
	nproc := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	plan, err := workload.New(name, workload.Config{Seed: opt.seed, Scale: opt.scale})
	if err != nil {
		return nil, nil, err
	}
	res := &metrics.Result{
		Workload: name, Seed: opt.seed, Scale: opt.scale, Traced: traced,
		NProc: nproc, GoVersion: runtime.Version(), Metrics: map[string]metrics.Value{},
	}
	var ref *workload.Outcome
	var problems []string
	rep := func(tr *trace.Recorder) (*workload.Outcome, error) {
		runtime.GC()
		out, err := plan.Run(tr)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = out
		} else if diff := sameVirtual(ref, out); diff != "" {
			problems = append(problems, "repetitions of one seed differ: "+diff)
		}
		return out, nil
	}

	// Repetition 0 warms the heap and the caches and is discarded; it
	// also is the virtual reference every later repetition must equal.
	if _, err := rep(nil); err != nil {
		return nil, nil, err
	}
	var plain, withSpans hostSeries
	var peakHeap uint64
	var rec *trace.Recorder
	if traced {
		rec = trace.New()
	}
	user0, sys0 := cpuTimes()
	for {
		out, err := rep(nil)
		if err != nil {
			return nil, nil, err
		}
		plain.add(out)
		if out.HeapInuse > peakHeap {
			peakHeap = out.HeapInuse
		}
		if traced {
			rec.Reset() // keep only the last traced repetition's spans
			out, err := rep(rec)
			if err != nil {
				return nil, nil, err
			}
			withSpans.add(out)
		}
		n := len(plain.usPerOp)
		if opt.reps > 0 && n >= opt.reps {
			break
		}
		if opt.reps == 0 && n >= metrics.MinHostReps && time.Since(started).Seconds() >= opt.seconds {
			break
		}
	}
	user1, sys1 := cpuTimes()
	res.Reps = len(plain.usPerOp)

	// Virtual end-to-end metrics, from the reference repetition.
	virt := func(name string, v float64, n int) {
		d, _ := metrics.Find(name)
		res.Metrics[name] = metrics.Value{Value: v, Unit: d.Unit, Clock: metrics.Virtual, N: n}
	}
	lat := make([]float64, len(ref.Samples))
	byClass := map[workload.Class][]float64{}
	for i, s := range ref.Samples {
		lat[i] = float64(s.Lat) / 1e3
		byClass[s.Class] = append(byClass[s.Class], lat[i])
	}
	sum := metrics.Summarize(lat)
	secs := ref.Window.Seconds()
	virt("sim_mbps", float64(ref.Payload)/secs/1e6, 0)
	virt("sim_ops_per_s", float64(ref.Ops)/secs, 0)
	virt("sim_p50_us", sum.P50, sum.N)
	p99, stat := sum.P99OrMax()
	virt("sim_p99_us", p99, sum.N)
	if stat != "p99" {
		// Only a scaled-down smoke run may be this short.
		v := res.Metrics["sim_p99_us"]
		v.Stat = stat
		res.Metrics["sim_p99_us"] = v
		if opt.scale >= 1 {
			problems = append(problems, fmt.Sprintf("only %d latency samples: sim_p99_us would be a %s, need >= 1000", sum.N, stat))
		}
	}
	for k, v := range ref.E2E {
		virt(k, v, 0)
	}

	// Host end-to-end metrics: medians over the untraced repetitions.
	host := func(name string, series []float64) float64 {
		q, err := metrics.HostQuartiles(series)
		if err != nil {
			problems = append(problems, name+": "+err.Error())
			return 0
		}
		d, _ := metrics.Find(name)
		res.Metrics[name] = metrics.Value{Value: q.Median, Unit: d.Unit, Clock: metrics.Host, Reps: &q}
		return q.Median
	}
	usPerOp := host("host_us_per_op", plain.usPerOp)
	host("host_allocs_per_op", plain.allocsPerOp)
	host("host_bytes_per_op", plain.bytesPerOp)
	host("setup_s", plain.setupS)

	if traced {
		layer := func(name string, v float64) {
			d, ok := metrics.Find(name)
			if !ok {
				return // measured but not part of the published set
			}
			res.Metrics[name] = metrics.Value{Value: v, Unit: d.Unit, Clock: d.Clock}
		}
		for k, v := range ref.Layer {
			layer(k, v)
		}
		for c, samples := range byClass {
			s := metrics.Summarize(samples)
			tail, stat := s.P99OrMax()
			res.Metrics["op."+c.String()+"_p50_us"] = metrics.Value{Value: s.P50, Unit: "us", Clock: metrics.Virtual, N: s.N}
			v := metrics.Value{Value: tail, Unit: "us", Clock: metrics.Virtual, N: s.N}
			if stat != "p99" {
				v.Stat = stat
			}
			res.Metrics["op."+c.String()+"_p99_us"] = v
		}

		// Host attribution: the simulator's cost per virtual microsecond,
		// the kernel's share of it, and where the profile says it goes.
		// ns per op x ops / virtual microseconds of the window.
		vus := float64(ref.Window) / 1e3
		pinnedNs := host("sim.host_ns_per_vus", scale(plain.usPerOp, 1e3*float64(ref.Ops)/vus)) * vus
		if cpu := (user1 - user0) + (sys1 - sys0); cpu > 0 {
			layer("sim.host_sys_share", float64(sys1-sys0)/float64(cpu))
		}
		layer("sim.host_peak_heap_mb", float64(peakHeap)/1e6)
		if q, err := metrics.HostQuartiles(withSpans.usPerOp); err != nil {
			problems = append(problems, "trace.overhead_pct: "+err.Error())
		} else if usPerOp > 0 {
			layer("trace.overhead_pct", (q.Median/usPerOp-1)*100)
		}
		cpuShares, allocShares, err := profileReps(rep, profileSeconds*opt.scale)
		if err != nil {
			return nil, nil, err
		}
		layer("sim.host_cpu_share_handoff", cpuShares.Handoff)
		layer("sim.host_cpu_share_gc", cpuShares.GC)
		for _, p := range metrics.HostPackages {
			layer(p+".host_cpu_share", cpuShares.ByPackage[p])
		}
		for _, p := range metrics.AllocPackages {
			layer(p+".host_alloc_share", allocShares.ByPackage[p])
		}
		// One repetition on every P, against the pinned median.
		runtime.GOMAXPROCS(nproc)
		out, err := rep(nil)
		runtime.GOMAXPROCS(1)
		if err != nil {
			return nil, nil, err
		}
		if pinnedNs > 0 {
			layer("sim.host_wall_ratio_nproc", float64(out.WindowHost.Nanoseconds())/pinnedNs)
		}
		ladder, err := workload.Ladder(rec)
		if err != nil {
			problems = append(problems, err.Error())
		}
		for k, v := range ladder {
			layer(k, v)
		}
	}

	// Every failure counts: the reference repetition's failed operations
	// and rig-level checks, and the runner's own (repetitions that
	// differ, too few samples or repetitions, a broken ladder).
	res.Attempted = ref.Ops
	res.Failed = min(ref.Failed+len(problems), res.Attempted)
	res.Errors = append(append([]string(nil), ref.Errors...), problems...)
	res.Correct = res.Failed == 0
	virt("failed_ops_share", float64(res.Failed)/float64(res.Attempted), 0)
	res.HostSeconds = time.Since(started).Seconds()
	return res, rec, nil
}

// profileReps runs untraced repetitions under a CPU profile and with
// heap-profile sampling on until seconds of measured window are
// covered, and folds both profiles by package. Only the traced run
// calls it, so the untraced run pays nothing for profiling.
func profileReps(rep func(*trace.Recorder) (*workload.Outcome, error), seconds float64) (cpu, alloc *hostprof.Shares, err error) {
	// The heap profile accumulates from process start: take what earlier
	// workloads of this process left in it as the baseline. Two cycles
	// publish every allocation sampled so far.
	runtime.GC()
	runtime.GC()
	base := hostprof.AllocSnapshot()
	var buf bytes.Buffer
	runtime.MemProfileRate = 64 << 10
	defer func() { runtime.MemProfileRate = 0 }()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	var covered time.Duration
	for covered.Seconds() < seconds {
		out, err := rep(nil)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, nil, err
		}
		covered += out.WindowHost
	}
	pprof.StopCPUProfile()
	if cpu, err = hostprof.CPU(buf.Bytes()); err != nil {
		return nil, nil, err
	}
	// Two cycles publish every sampled allocation to the heap profile.
	runtime.GC()
	runtime.GC()
	return cpu, hostprof.Alloc(base), nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// writeTrace writes the recorder's spans as Chrome trace-event JSON.
func writeTrace(path string, rec *trace.Recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
