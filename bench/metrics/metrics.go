// Package metrics is the benchmark's vocabulary: the five workloads,
// every end-to-end and per-layer metric with its unit, direction and
// regression bound, and the statistics helpers (percentiles with a
// sample-count floor, medians, quartiles) the runner and the diff tool
// share. BENCHMARK.json at the repository root lists the driver's view
// of these tables (DriverEndToEnd, DriverPerLayer) and a test keeps the
// two equal.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Clock says which of the two clocks a metric is read from. Virtual
// values come from the simulation engine and repeat bit-for-bit at one
// seed; host values are wall/allocator measurements of this process.
type Clock string

// The two clocks. Exact event counts are Virtual too: they repeat
// exactly.
const (
	Virtual Clock = "virtual"
	Host    Clock = "host"
)

// Def describes one metric.
type Def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which the metric may get
	// worse before bench/diff calls it a regression (end-to-end only).
	// It applies between two runs of one seed, where virtual values
	// repeat exactly and only a change to the program moves them.
	Bound float64
	Clock Clock
	// Only lists the workloads that report the metric; nil means all.
	Only []string
	Doc  string
}

// Workload names one benchmark workload and why it exists.
type Workload struct {
	Name string
	Why  string
}

// Workloads is the fixed workload set, in run order.
var Workloads = []Workload{
	{"netpipe", "raw fabric ping-pong over GM then MX: sim/hw/gm/mx/fabric do all the work, rfsrv/kernel/orfs none; small sizes expose per-message cost, large ones copies, rendezvous and DMA"},
	{"orfs_file", "one client, window 1, syscalls on an ORFS mount, direct and buffered, GM then MX: the paper's headline path (vm/gmkrc/kernel/orfs/Session/memfs) with a working set 4x the page cache"},
	{"cluster_stream", "8 clients x window 8 over 4 servers: 4 stream-read striped files, 4 issue extending writes incl. one shared file; Cluster data path, windows, server workers and link contention"},
	{"meta_storm", "4 clients x 4 servers, seed-driven namespace ops with tiny payloads on a fan-out rig then a sharded+batched rig: proto, MetaBatch, dispatch, memfs namespace; the opposite of cluster_stream"},
	{"failover", "6 clients x 4 servers, R=2, deadlines armed, one server NIC killed mid-run, revived, reinstated by journal replay: the only workload where deadlines, failover and resync run"},
}

// WorkloadNames returns the workload names in run order.
func WorkloadNames() []string {
	out := make([]string, len(Workloads))
	for i, w := range Workloads {
		out[i] = w.Name
	}
	return out
}

// Virtual metrics may not drift at all between two runs of one seed on
// one commit; the bounds below apply between commits (and, for the
// driver, across seeds — see README "Bounds").
const (
	boundVirtual = 0.01
	boundHost    = 0.10
	boundAlloc   = 0.02
)

// EndToEnd is every end-to-end metric the runner records and bench/diff
// judges. The first nine are reported by every workload; the last three
// are workload-specific.
var EndToEnd = []Def{
	{Name: "sim_mbps", Unit: "MB/s", Better: "higher", Bound: boundVirtual, Clock: Virtual,
		Doc: "payload megabytes (1e6 B) moved per virtual second over the measured window"},
	{Name: "sim_ops_per_s", Unit: "1/s", Better: "higher", Bound: boundVirtual, Clock: Virtual,
		Doc: "client-observed operations completed per virtual second"},
	{Name: "sim_p50_us", Unit: "us", Better: "lower", Bound: boundVirtual, Clock: Virtual,
		Doc: "median virtual latency of one client-observed operation"},
	{Name: "sim_p99_us", Unit: "us", Better: "lower", Bound: boundVirtual, Clock: Virtual,
		Doc: "99th percentile virtual latency; every workload yields >= 1000 samples so >= 10 lie beyond it"},
	{Name: "host_us_per_op", Unit: "us", Better: "lower", Bound: boundHost, Clock: Host,
		Doc: "host wall microseconds per client-observed op (pinned to one P, median of >= 7 repetitions)"},
	{Name: "host_allocs_per_op", Unit: "count", Better: "lower", Bound: boundAlloc, Clock: Host,
		Doc: "MemStats.Mallocs delta over the measured window / ops"},
	{Name: "host_bytes_per_op", Unit: "B", Better: "lower", Bound: boundAlloc, Clock: Host,
		Doc: "MemStats.TotalAlloc delta over the measured window / ops"},
	{Name: "failed_ops_share", Unit: "ratio", Better: "lower", Bound: 0, Clock: Virtual,
		Doc: "failures (ops that surfaced an unexpected error or failed byte verification, failed rig-level checks) / ops attempted; any increase is a regression"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: boundHost, Clock: Host,
		Doc: "host seconds to build the rig(s) and seed files before the measured window (median over repetitions)"},
	{Name: "paper_err_pct", Unit: "%", Better: "lower", Bound: 1, Clock: Virtual, Only: []string{"netpipe", "orfs_file"},
		Doc: "mean absolute relative error against the numeric paper anchors measured in the same rig; bound is 1 percentage point"},
	{Name: "sim_recovery_ms", Unit: "ms", Better: "lower", Bound: boundVirtual, Clock: Virtual, Only: []string{"failover"},
		Doc: "kill instant to the completion of the last op that needed a deadline or failover"},
	{Name: "sim_degraded_ratio", Unit: "ratio", Better: "higher", Bound: boundVirtual, Clock: Virtual, Only: []string{"failover"},
		Doc: "post-settle / pre-kill sim_mbps"},
}

// OkOpsShare is the driver's name for 1 - failed_ops_share: the driver
// accepts no metric that is ever 0, so BENCHMARK.json lists this instead.
const OkOpsShare = "ok_ops_share"

// driverPrefix marks the workload-specific end-to-end metrics in the
// driver's per-layer list: the driver wants every end-to-end metric
// from every workload, so these travel there (0 where not reported).
const driverPrefix = "e2e."

// driverBounds are the bounds published in BENCHMARK.json, in list
// order. The driver compares medians over runs of different seeds, so
// they have to cover the seed-to-seed spread of the workload mix (and,
// for host metrics, the box's run-to-run noise) on top of Def.Bound:
// about three times the widest spread measured over ten seeds on any
// workload, capped at the contract's 0.25 (README "Bounds").
var driverBounds = []struct {
	name  string
	bound float64
}{
	{"sim_mbps", 0.08}, {"sim_ops_per_s", 0.1}, {"sim_p50_us", 0.25}, {"sim_p99_us", 0.25},
	{"host_us_per_op", 0.25}, {"host_allocs_per_op", 0.12}, {"host_bytes_per_op", 0.07},
	{OkOpsShare, 0.0001}, {"setup_s", 0.25},
}

// DriverEndToEnd is BENCHMARK.json's end_to_end list: the end-to-end
// metrics every workload reports, each with its cross-seed bound, and
// failed_ops_share turned into ok_ops_share.
func DriverEndToEnd() []Def {
	var out []Def
	for _, b := range driverBounds {
		d, _ := Find(b.name)
		if b.name == OkOpsShare {
			d = Def{Name: OkOpsShare, Unit: "ratio", Better: "higher", Clock: Virtual}
		}
		d.Bound = b.bound
		out = append(out, d)
	}
	return out
}

// DriverPerLayer is BENCHMARK.json's per_layer list: PerLayer, then the
// workload-specific end-to-end metrics under the "e2e." prefix.
func DriverPerLayer() []Def {
	out := append([]Def(nil), PerLayer...)
	for _, d := range EndToEnd {
		if d.Only != nil {
			d.Name = driverPrefix + d.Name
			out = append(out, d)
		}
	}
	return out
}

// DriverValue is the value the driver line carries under a
// DriverEndToEnd or DriverPerLayer name: the result's own metric, with
// the two renamings undone. A metric the workload does not report
// reads 0.
func (r *Result) DriverValue(name string) float64 {
	if name == OkOpsShare {
		return 1 - r.Metrics["failed_ops_share"].Value
	}
	return r.Metrics[strings.TrimPrefix(name, driverPrefix)].Value
}

// HostPackages are the packages host CPU time is attributed to.
var HostPackages = []string{"sim", "hw", "mem", "vm", "gm", "mx", "fabric", "kernel", "memfs", "rfsrv", "orfs"}

// AllocPackages are the packages host allocation volume is attributed to.
var AllocPackages = []string{"sim", "hw", "mem", "vm", "fabric", "rfsrv"}

// OpClasses are the operation classes of the benchmark's root spans.
var OpClasses = []string{"read", "write", "create", "lookup", "readdir", "rename", "unlink"}

// LadderRungs are the public entry points of the traced layer ladder,
// bottom to top.
var LadderRungs = []string{"fabric_mx", "fabric_gm", "memfs", "session_mx", "session_gm", "cluster", "orfs_direct", "orfs_buffered_miss", "orfs_buffered_hit"}

// LadderHostRungs are the rungs whose host cost per call is reported.
var LadderHostRungs = []string{"fabric_mx", "memfs", "session_mx", "cluster", "orfs_direct"}

// PerLayer is every per-layer metric, in report order.
var PerLayer = buildPerLayer()

func buildPerLayer() []Def {
	var out []Def
	add := func(name, unit, better string, clock Clock, doc string) {
		out = append(out, Def{Name: name, Unit: unit, Better: better, Clock: clock, Doc: doc})
	}
	add("sim.host_ns_per_vus", "ns/us", "lower", Host, "host ns spent per virtual microsecond simulated")
	add("sim.host_sys_share", "ratio", "lower", Host, "getrusage sys / (user+sys) over the measured repetitions")
	add("sim.host_wall_ratio_nproc", "ratio", "lower", Host, "one extra repetition at GOMAXPROCS=nproc / pinned median")
	add("sim.host_cpu_share_handoff", "ratio", "lower", Host, "CPU-profile samples under runtime chan/park/futex/schedule frames")
	add("sim.host_cpu_share_gc", "ratio", "lower", Host, "CPU-profile samples in GC and malloc")
	add("sim.host_peak_heap_mb", "MB", "lower", Host, "highest HeapInuse seen at the end of a measured window")
	for _, p := range HostPackages {
		add(p+".host_cpu_share", "ratio", "lower", Host, "CPU-profile samples whose innermost repro frame is in internal/"+p)
	}
	for _, p := range AllocPackages {
		add(p+".host_alloc_share", "ratio", "lower", Host, "MemProfile bytes whose innermost repro frame is in internal/"+p)
	}
	for _, role := range []string{"client", "server"} {
		for _, r := range []string{"cpu", "fw", "txdma", "rxdma", "link"} {
			add("hw."+role+"_"+r+"_util", "ratio", "lower", Virtual, "BusyTime delta / (capacity x window), max over "+role+" nodes")
		}
	}
	add("hw.server_link_util_skew", "ratio", "lower", Virtual, "max / mean link utilisation over servers")
	add("hw.client_copy_bytes_per_byte", "ratio", "lower", Virtual, "client CPU.CopyStats bytes / payload bytes")
	add("hw.server_copy_bytes_per_byte", "ratio", "lower", Virtual, "server CPU.CopyStats bytes / payload bytes")
	add("hw.frames_per_op", "count", "lower", Virtual, "NIC TxMsgs over all nodes / ops")
	add("hw.dropped_frames", "count", "lower", Virtual, "frames discarded by fault injection")
	add("gm.sends_per_op", "count", "lower", Virtual, "GM port sends / ops")
	add("mx.sends_per_op", "count", "lower", Virtual, "MX endpoint sends / ops")
	add("gm.directed_drops", "count", "lower", Virtual, "GM directed sends that hit unregistered memory")
	add("gm.lat_1b_us", "us", "lower", Virtual, "netpipe anchor: GM kernel 1-byte one-way latency")
	add("mx.lat_1b_us", "us", "lower", Virtual, "netpipe anchor: MX kernel 1-byte one-way latency")
	add("gm.mbps_1m", "MB/s", "higher", Virtual, "netpipe anchor: GM 1 MB ping-pong bandwidth")
	add("mx.mbps_1m", "MB/s", "higher", Virtual, "netpipe anchor: MX kernel-physical 1 MB ping-pong bandwidth")
	add("gmkrc.hit_ratio", "ratio", "higher", Virtual, "registration cache hits / (hits+misses)")
	add("gmkrc.evictions", "count", "lower", Virtual, "registration cache evictions")
	add("fabric.pool_hit_ratio", "ratio", "higher", Virtual, "pool Gets served by recycling")
	add("fabric.pool_gets_per_op", "count", "lower", Virtual, "pool Gets / ops")
	add("fabric.pool_leaks", "count", "lower", Virtual, "nodes whose Pool.CheckLeaks failed (must be 0)")
	add("kernel.pagecache_hit_ratio", "ratio", "higher", Virtual, "page cache hits / (hits+misses)")
	add("kernel.pagecache_writebacks", "count", "lower", Virtual, "dirty pages written back")
	add("kernel.dcache_hit_ratio", "ratio", "higher", Virtual, "dentry cache hits / (hits+misses)")
	add("orfs.wire_ops_per_syscall", "count", "lower", Virtual, "(MetaOps+ReadOps+WriteOps) / syscalls issued")
	add("orfs.readahead_hit_ratio", "ratio", "higher", Virtual, "pages served from a completed prefetch / prefetches issued")
	add("rfsrv.session_issued_per_op", "count", "lower", Virtual, "windowed wire requests / client ops")
	add("rfsrv.session_batched_ratio", "ratio", "higher", Virtual, "requests that shared a fabric send / requests issued")
	add("rfsrv.session_max_inflight", "count", "higher", Virtual, "deepest window any session kept open")
	add("rfsrv.server_requests_per_op", "count", "lower", Virtual, "server-side requests served / client ops")
	add("rfsrv.server_requests_skew", "ratio", "lower", Virtual, "max / mean requests served over servers")
	add("rfsrv.stripe_reads_per_read", "count", "lower", Virtual, "striped read requests / client reads")
	add("rfsrv.stripe_writes_per_write", "count", "lower", Virtual, "striped write requests / client writes")
	add("rfsrv.setsize_per_write", "count", "lower", Virtual, "OpSetSize reconciliations / client writes")
	add("rfsrv.meta_fanout_per_op", "count", "lower", Virtual, "replicated metadata requests beyond the first server / ops")
	add("rfsrv.meta_ops_per_s_fanout", "1/s", "higher", Virtual, "meta_storm ops per virtual second on the replicated fan-out rig")
	add("rfsrv.meta_ops_per_s_sharded", "1/s", "higher", Virtual, "meta_storm ops per virtual second on the sharded + batched-publish rig")
	for _, n := range []string{"failovers", "excluded", "reinstates", "reinstate_refusals", "resync_ops"} {
		add("rfsrv."+n, "count", "lower", Virtual, "Cluster."+n+" summed over clients")
	}
	add("rfsrv.resync_bytes", "B", "lower", Virtual, "bytes re-copied to the returning server")
	add("rfsrv.resync_fallbacks", "count", "lower", Virtual, "journal replays that left the batched fast path")
	add("rfsrv.rename_indoubts", "count", "lower", Virtual, "renames that surfaced ErrRenameInDoubt")
	for _, c := range OpClasses {
		add("op."+c+"_p50_us", "us", "lower", Virtual, "median virtual latency of "+c+" root spans")
		add("op."+c+"_p99_us", "us", "lower", Virtual, "p99 of "+c+" root spans (max when the class has < 1000 samples)")
	}
	add("hw.copy_us_64k", "us", "lower", Virtual, "ladder rung 0: hw.CPU.Copy of 64 KB")
	add("gm.register_us_64k", "us", "lower", Virtual, "ladder rung 0: gm.Port.RegisterMemory of 64 KB")
	add("gm.deregister_us_64k", "us", "lower", Virtual, "ladder rung 0: gm.Port.DeregisterMemory of 64 KB")
	for _, r := range LadderRungs {
		for _, s := range []string{"4k", "64k"} {
			add("ladder."+r+"_us_"+s, "us", "lower", Virtual, "virtual latency of one "+s+" read through the "+r+" entry point on an idle rig")
		}
	}
	for _, r := range LadderHostRungs {
		add("ladder."+r+"_host_ns_64k", "ns", "lower", Host, "median host ns of one 64k read through the "+r+" entry point")
	}
	add("trace.overhead_pct", "%", "lower", Host, "traced / untraced host_us_per_op - 1")
	return out
}

// Find returns the definition of a metric by name.
func Find(name string) (Def, bool) {
	for _, d := range EndToEnd {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range PerLayer {
		if d.Name == name {
			return d, true
		}
	}
	return Def{}, false
}

// ValidName reports whether s is a legal metric or workload name:
// starts with a letter or digit, at most 64 of letters, digits, '_',
// '.', '-'.
func ValidName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || (c != '_' && c != '.' && c != '-')) {
			return false
		}
	}
	return true
}

// Quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least q of the samples at or below it.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the index of the nearest-rank q-quantile among n sorted
// samples (n > 0).
func rank(n int, q float64) int {
	idx := int(q*float64(n)+0.999999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Beyond returns how many of n samples lie strictly beyond the
// nearest-rank q-quantile.
func Beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// tailLadder is the percentile ladder TopPercentile climbs.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// MinBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const MinBeyond = 10

// TopPercentile returns the highest percentile of the ladder
// 50/90/99/99.9/99.99 that still has at least MinBeyond of the n
// samples beyond it, or 0 when not even the median has.
func TopPercentile(n int) float64 {
	top := 0.0
	for _, q := range tailLadder {
		if Beyond(n, q) >= MinBeyond {
			top = q
		}
	}
	return top
}

// Summary is a latency distribution summary that always carries its
// sample count.
type Summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	// Tail is the value at the TailQ quantile; when the sample is too
	// small for P99 (TailQ < 0.99) callers report Max instead.
	Tail  float64 `json:"tail"`
	TailQ float64 `json:"tail_q"`
	Max   float64 `json:"max"`
}

// Summarize sorts a copy of samples and returns its summary: median,
// the 99th percentile when at least MinBeyond samples lie beyond it
// (else the highest supported percentile), and the maximum.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := TopPercentile(len(s))
	if q > 0.99 {
		q = 0.99
	}
	sum := Summary{N: len(s), P50: Quantile(s, 0.5), TailQ: q, Max: s[len(s)-1]}
	if q > 0 {
		sum.Tail = Quantile(s, q)
	} else {
		sum.Tail = sum.Max
	}
	return sum
}

// P99OrMax returns the p99 when the sample supports it and the maximum
// otherwise, with a label saying which.
func (s Summary) P99OrMax() (float64, string) {
	if s.TailQ >= 0.99 {
		return s.Tail, "p99"
	}
	return s.Max, "max"
}

// Quartiles holds the median and the first and third quartile of a
// repeated host measurement.
type Quartiles struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// MinHostReps is the fewest repetitions a host metric may be reported
// from.
const MinHostReps = 7

// HostQuartiles returns the quartiles of values (inclusive method,
// linear interpolation), refusing fewer than MinHostReps repetitions.
func HostQuartiles(values []float64) (Quartiles, error) {
	if len(values) < MinHostReps {
		return Quartiles{}, fmt.Errorf("host metric from %d repetitions, need >= %d", len(values), MinHostReps)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return Quartiles{N: len(s), Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}, nil
}
