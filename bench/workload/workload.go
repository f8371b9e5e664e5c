// Package workload holds the benchmark's five workloads and the traced
// layer ladder. Each workload builds its own rigs from the layers'
// public constructors (hw, gm, mx, fabric, memfs, rfsrv, orfs, kernel),
// turns a seed into an operation stream, runs it closed-loop as
// simulated processes, verifies every byte it reads against a
// seed-derived model, and reads the layers' exported counters and
// resource busy times from outside. Nothing here reaches into a
// layer's unexported state, and nothing outside bench/ knows this
// package exists.
package workload

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/bench/trace"
	"repro/internal/sim"
)

// Fault asks a plan to sabotage itself so tests can prove the verifier
// notices. The zero value injects nothing.
type Fault struct {
	// CorruptOp, when positive, corrupts one byte under the first
	// uncached read (or echo) with this 1-based sequence number or a
	// later one: the byte is flipped in the store the program is about
	// to serve it from, so the program delivers wrong data.
	CorruptOp int
	// DropOp is the 1-based sequence number of an operation the
	// executor silently skips while the model still records it.
	DropOp int
}

// Config parameterizes a plan.
type Config struct {
	// Seed drives sizes, offsets, op order, names and the kill instant.
	Seed int64
	// Scale multiplies every operation and byte count; 1 is the full
	// benchmark, tests smoke at 1/50.
	Scale float64
	// Fault is test-only sabotage.
	Fault Fault
}

// scaled returns n scaled down, never below min.
func (c Config) scaled(n, min int) int {
	s := c.Scale
	if s <= 0 || s > 1 {
		s = 1
	}
	v := int(float64(n)*s + 0.5)
	if v < min {
		v = min
	}
	return v
}

// Sample is one client-observed operation: its class and its virtual
// latency.
type Sample struct {
	Class Class
	Lat   sim.Time
}

// Class is an operation class of the root spans.
type Class uint8

// The operation classes (metrics.OpClasses, same order). A ping-pong
// round trip counts as a write (it moves payload out and back).
const (
	Read Class = iota
	Write
	Create
	Lookup
	Readdir
	Rename
	Unlink
	numClasses
)

var classNames = [numClasses]string{"read", "write", "create", "lookup", "readdir", "rename", "unlink"}

// String returns the class name used in metric names and spans.
func (c Class) String() string { return classNames[c] }

// Outcome is what one repetition of a workload measured.
type Outcome struct {
	// Ops is the number of client-observed operations attempted in the
	// measured window(s). Failed counts every failure of the repetition:
	// operations that surfaced an unexpected error or failed
	// verification, and every failed rig-level check (end state, leak,
	// stranded process, busy window).
	Ops, Failed int
	// Payload is the number of payload bytes the operations moved.
	Payload int64
	// Samples holds one virtual latency per operation, in completion
	// order (deterministic: the simulation is).
	Samples []Sample
	// Window is the virtual length of the measured window(s), summed.
	Window sim.Time
	// SetupHost and WindowHost are the host durations of rig
	// construction + seeding and of the measured window(s).
	SetupHost, WindowHost time.Duration
	// Mallocs and AllocBytes are the MemStats deltas over the windows.
	Mallocs, AllocBytes uint64
	// HeapInuse is MemStats.HeapInuse at the end of the last window.
	HeapInuse uint64
	// E2E carries the workload-specific end-to-end metrics
	// (paper_err_pct, sim_recovery_ms, sim_degraded_ratio).
	E2E map[string]float64
	// Layer carries the virtual per-layer metrics.
	Layer map[string]float64
	// Errors lists the failures counted in Failed (the first few,
	// verbatim).
	Errors []string
}

// Plan is a workload with its inputs already generated from the seed;
// Run executes one repetition on fresh rigs. tr is nil in the untraced
// run.
type Plan interface {
	Run(tr *trace.Recorder) (*Outcome, error)
}

// planners maps workload names to their constructors.
var planners = map[string]func(Config) Plan{
	"netpipe":        newNetpipe,
	"orfs_file":      newOrfsFile,
	"cluster_stream": newStream,
	"meta_storm":     newMetaStorm,
	"failover":       newFailover,
}

// Names returns the workload names this package implements, sorted.
func Names() []string {
	out := make([]string, 0, len(planners))
	for n := range planners {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New generates the named workload's inputs from cfg.Seed.
func New(name string, cfg Config) (Plan, error) {
	mk, ok := planners[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	return mk(cfg), nil
}

// run is the per-repetition scratch every workload threads through its
// rigs: the outcome being built, the host meter, the tracer and the
// per-layer accumulators.
type run struct {
	out *Outcome
	tr  *trace.Recorder
	acc fracs
	cfg Config
	seq int // operations attempted so far (1-based sequence numbers)

	corrupted bool // the fault plan's corruption has been injected
}

func newRun(cfg Config, tr *trace.Recorder, sampleHint int) *run {
	return &run{
		out: &Outcome{Samples: make([]Sample, 0, sampleHint), E2E: map[string]float64{}},
		tr:  tr, acc: fracs{}, cfg: cfg,
	}
}

// finish folds the accumulators into the outcome.
func (r *run) finish() *Outcome {
	r.out.Layer = r.acc.values()
	return r.out
}

// maxErrors bounds the verbatim failure list.
const maxErrors = 8

// errorf records a failure message; the caller counts the failure.
func (r *run) errorf(format string, args ...any) {
	if len(r.out.Errors) < maxErrors {
		r.out.Errors = append(r.out.Errors, fmt.Sprintf(format, args...))
	}
}

// fail counts one failure — a failed operation, or a rig-level check
// not tied to one (a leak, a stranded process, an end-state mismatch)
// — and records its message.
func (r *run) fail(format string, args ...any) {
	r.out.Failed++
	r.errorf(format, args...)
}

// setup times rig construction and seeding on the host clock.
func (r *run) setup(f func() error) error {
	t0 := time.Now()
	err := f()
	r.out.SetupHost += time.Since(t0)
	return err
}

// measure runs one measured window: f drives the engine and returns
// the virtual instant its last client finished. Host time and the
// allocator deltas are taken around it. The window starts from a
// collected heap, so what set-up left behind does not decide when the
// window's first GC cycle falls; the collection and the two
// ReadMemStats calls sit outside the timed region.
func (r *run) measure(env *sim.Engine, f func() (sim.Time, error)) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v0 := env.Now()
	t0 := time.Now()
	end, err := f()
	r.out.WindowHost += time.Since(t0)
	runtime.ReadMemStats(&after)
	r.out.Mallocs += after.Mallocs - before.Mallocs
	r.out.AllocBytes += after.TotalAlloc - before.TotalAlloc
	r.out.HeapInuse = after.HeapInuse
	if end > v0 {
		r.out.Window += end - v0
	}
	return err
}

// op is one in-progress client-observed operation.
type op struct {
	seq   int
	span  int
	start sim.Time
}

// begin opens an operation: it takes the next sequence number and, in
// the traced run, a root span.
func (r *run) begin(p *sim.Proc, c Class, track int) op {
	r.seq++
	o := op{seq: r.seq, start: p.Now(), span: -1}
	if r.tr != nil {
		o.span = r.tr.Begin(-1, c.String(), c.String(), track, o.start)
	}
	return o
}

// end closes an operation: one latency sample, its payload, and
// whether it failed (err from the program, or a verification message).
func (r *run) end(p *sim.Proc, o op, c Class, payload int, err error) {
	now := p.Now()
	if r.tr != nil {
		r.tr.End(o.span, now)
	}
	r.out.Ops++
	r.out.Samples = append(r.out.Samples, Sample{Class: c, Lat: now - o.start})
	if err != nil {
		r.fail("op %d (%s): %v", o.seq, c, err)
		return
	}
	r.out.Payload += int64(payload)
}

// skipNext reports whether the next operation is the one the fault
// plan drops, and if so consumes its sequence number: the executor
// forgets the operation while the model keeps it.
func (r *run) skipNext() bool {
	if r.cfg.Fault.DropOp != r.seq+1 {
		return false
	}
	r.seq++
	return true
}

// corruptNext reports, once, whether the next operation — an uncached
// read, or it would not be asked — is the one whose data the fault
// plan corrupts.
func (r *run) corruptNext() bool {
	if c := r.cfg.Fault.CorruptOp; c == 0 || r.corrupted || r.seq+1 < c {
		return false
	}
	r.corrupted = true
	return true
}

// expectOps records a failure when the executor ran a different number
// of operations than the plan generated — a dropped operation that no
// byte check could see.
func (r *run) expectOps(planned int) {
	if r.out.Ops != planned {
		r.out.Failed += abs(planned - r.out.Ops)
		r.errorf("executed %d operations, plan has %d", r.out.Ops, planned)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// frac is a numerator/denominator pair accumulated across the rigs of
// one repetition; the metric is num/den (0 when den is 0).
type frac struct{ num, den float64 }

// fracs accumulates per-layer metrics by name.
type fracs map[string]*frac

func (f fracs) at(name string) *frac {
	v := f[name]
	if v == nil {
		v = &frac{}
		f[name] = v
	}
	return v
}

// ratio adds num and den to the named metric.
func (f fracs) ratio(name string, num, den float64) {
	v := f.at(name)
	v.num += num
	v.den += den
}

// count adds n to a plain counter metric.
func (f fracs) count(name string, n float64) {
	v := f.at(name)
	v.num += n
	v.den = 1
}

// max raises the named metric to at least x.
func (f fracs) max(name string, x float64) {
	v := f.at(name)
	if x > v.num || v.den == 0 {
		v.num = x
	}
	v.den = 1
}

func (f fracs) values() map[string]float64 {
	out := make(map[string]float64, len(f))
	for name, v := range f {
		if v.den != 0 {
			out[name] = v.num / v.den
		} else {
			out[name] = 0
		}
	}
	return out
}
