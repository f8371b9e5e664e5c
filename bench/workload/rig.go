package workload

// Rig plumbing shared by the workloads: driving simulated processes to
// completion, snapshotting the hardware's busy times and counters from
// outside, and the end-of-rig hygiene checks.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/vm"
)

// newCluster returns a fresh engine and an empty PCI-XD cluster (the
// card generation of every file and ping-pong figure of the paper).
func newCluster() (*sim.Engine, *hw.Cluster) {
	env := sim.NewEngine()
	return env, hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
}

// runProc runs body as one simulated process and drives the engine
// until its event queue drains. A body that never returns (a protocol
// deadlock) is reported instead of hanging the benchmark.
func runProc(env *sim.Engine, name string, body func(p *sim.Proc) error) error {
	var err error
	done := false
	env.Spawn(name, func(p *sim.Proc) {
		err = body(p)
		done = true
	})
	env.Run(0)
	if !done && err == nil {
		return fmt.Errorf("%s: simulated process never finished (deadlock)", name)
	}
	return err
}

// runProcs runs n bodies as concurrent simulated processes (the
// workload's closed-loop clients) and returns the virtual instant the
// last one finished plus the first error.
func runProcs(env *sim.Engine, name string, n int, body func(p *sim.Proc, i int) error) (sim.Time, error) {
	var first error
	var end sim.Time
	done := 0
	for i := 0; i < n; i++ {
		i := i
		env.Spawn(fmt.Sprintf("%s%d", name, i), func(p *sim.Proc) {
			if err := body(p, i); err != nil && first == nil {
				first = fmt.Errorf("%s%d: %w", name, i, err)
			}
			if p.Now() > end {
				end = p.Now()
			}
			done++
		})
	}
	env.Run(0)
	if done != n && first == nil {
		first = fmt.Errorf("%s: %d of %d simulated clients never finished (deadlock)", name, n-done, n)
	}
	return end, first
}

// nodeSnap is one node's cumulative busy times and counters.
type nodeSnap struct {
	cpu, fw, tx, rx, link sim.Time
	copyBytes             int64
	txMsgs, dropped       int64
}

func snapNode(n *hw.Node) nodeSnap {
	return nodeSnap{
		cpu:       n.CPU.Resource().BusyTime(),
		fw:        n.NIC.Firmware.BusyTime(),
		tx:        n.NIC.TxDMA.BusyTime(),
		rx:        n.NIC.RxDMA.BusyTime(),
		link:      n.NIC.Link.BusyTime(),
		copyBytes: n.CPU.CopyStats.Bytes,
		txMsgs:    n.NIC.TxMsgs.N,
		dropped:   n.NIC.Dropped.N,
	}
}

// hwProbe measures hardware occupancy over one window: snapshots at
// construction, deltas at finish.
type hwProbe struct {
	roles  [2][]*hw.Node // client, server
	before [2][]nodeSnap
	cores  int
}

var roleNames = [2]string{"client", "server"}

func newHWProbe(hwc *hw.Cluster, clients, servers []*hw.Node) *hwProbe {
	h := &hwProbe{roles: [2][]*hw.Node{clients, servers}, cores: hwc.Params.CPUCores}
	for r, nodes := range h.roles {
		for _, n := range nodes {
			h.before[r] = append(h.before[r], snapNode(n))
		}
	}
	return h
}

// finish folds the window's occupancy and counter deltas into acc.
// Utilisation is busy time over capacity x window, the maximum over the
// role's nodes; every ratio is accumulated as numerator and window so
// two-rig workloads report the window-weighted value.
func (h *hwProbe) finish(acc fracs, window sim.Time, payload int64, ops int) {
	w := float64(window)
	var frames, dropped float64
	for r, nodes := range h.roles {
		var cpu, fw, tx, rx, link, copied float64
		var linkSum float64
		for i, n := range nodes {
			a, b := h.before[r][i], snapNode(n)
			cpu = maxf(cpu, float64(b.cpu-a.cpu)/float64(h.cores))
			fw = maxf(fw, float64(b.fw-a.fw))
			tx = maxf(tx, float64(b.tx-a.tx))
			rx = maxf(rx, float64(b.rx-a.rx))
			link = maxf(link, float64(b.link-a.link))
			linkSum += float64(b.link - a.link)
			copied += float64(b.copyBytes - a.copyBytes)
			frames += float64(b.txMsgs - a.txMsgs)
			dropped += float64(b.dropped - a.dropped)
		}
		role := roleNames[r]
		acc.ratio("hw."+role+"_cpu_util", cpu, w)
		acc.ratio("hw."+role+"_fw_util", fw, w)
		acc.ratio("hw."+role+"_txdma_util", tx, w)
		acc.ratio("hw."+role+"_rxdma_util", rx, w)
		acc.ratio("hw."+role+"_link_util", link, w)
		acc.ratio("hw."+role+"_copy_bytes_per_byte", copied, float64(payload))
		if r == 1 && len(nodes) > 0 {
			acc.ratio("hw.server_link_util_skew", link, linkSum/float64(len(nodes)))
		}
	}
	acc.ratio("hw.frames_per_op", frames, float64(ops))
	acc.count("hw.dropped_frames", dropped)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// poolProbe measures the fabric buffer pools of a set of nodes over a
// window.
type poolProbe struct {
	pools      []*fabric.Pool
	gets, hits int64
}

func newPoolProbe(nodes []*hw.Node) *poolProbe {
	pp := &poolProbe{}
	for _, n := range nodes {
		pool := fabric.PoolOf(n)
		pp.pools = append(pp.pools, pool)
		pp.gets += pool.Gets.N
		pp.hits += pool.Hits.N
	}
	return pp
}

func (pp *poolProbe) finish(acc fracs, ops int) {
	var gets, hits int64
	for _, pool := range pp.pools {
		gets += pool.Gets.N
		hits += pool.Hits.N
	}
	acc.ratio("fabric.pool_hit_ratio", float64(hits-pp.hits), float64(gets-pp.gets))
	acc.ratio("fabric.pool_gets_per_op", float64(gets-pp.gets), float64(ops))
}

// probedWindow runs one measured window with the hardware and pool
// probes around it and returns how many operations it ran and how long
// it lasted on the virtual clock.
func (r *run) probedWindow(env *sim.Engine, hwc *hw.Cluster, clients, servers []*hw.Node, f func() (sim.Time, error)) (ops int, window sim.Time, err error) {
	hp := newHWProbe(hwc, clients, servers)
	pp := newPoolProbe(hwc.Nodes())
	ops0, pay0, win0 := r.out.Ops, r.out.Payload, r.out.Window
	if err := r.measure(env, f); err != nil {
		return 0, 0, err
	}
	ops, window = r.out.Ops-ops0, r.out.Window-win0
	hp.finish(r.acc, window, r.out.Payload-pay0, ops)
	pp.finish(r.acc, ops)
	return ops, window, nil
}

// hygiene runs the end-of-rig checks every workload shares: no pool
// leaks on any node and no simulated process left behind. idle is the
// engine's parked-process count right after set-up, when only the
// rig's daemons (NIC pumps, server workers) were parked: the same
// count must be parked once the workload's clients are gone.
func (r *run) hygiene(env *sim.Engine, hwc *hw.Cluster, idle int) {
	leaks := 0
	for _, n := range hwc.Nodes() {
		if err := fabric.PoolOf(n).CheckLeaks(); err != nil {
			leaks++
			r.fail("%s: %v", n.Name, err)
		}
	}
	r.acc.count("fabric.pool_leaks", float64(leaks))
	if got := env.Stranded(); got != idle {
		r.fail("engine has %d parked processes after the run, %d when idle: %d stranded", got, idle, got-idle)
	}
	if !env.Idle() {
		r.fail("engine still has events queued after the run")
	}
}

// vecBytes gathers the first n bytes a vector addresses on node into
// dst (host-level: no simulated time).
func vecBytes(node *hw.Node, v core.Vector, n int, dst []byte) ([]byte, error) {
	xs, err := v.Slice(0, n).Extents()
	if err != nil {
		return nil, err
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	pos := 0
	for _, x := range xs {
		node.Mem.ReadAt(x.Addr, dst[pos:pos+x.Len])
		pos += x.Len
	}
	return dst, nil
}

// setVecBytes scatters data into the memory a vector addresses on node
// (host-level: no simulated time).
func setVecBytes(node *hw.Node, v core.Vector, data []byte) error {
	xs, err := v.Slice(0, len(data)).Extents()
	if err != nil {
		return err
	}
	node.Mem.Scatter(xs, data)
	return nil
}

// release frees a finished rig's simulated memory. The engine's daemon
// processes (NIC pumps, server workers) stay parked forever once their
// rig is done, and as goroutines they keep everything they reference
// alive — so without this every repetition would leave its files, page
// cache, buffers and request records (tens to hundreds of MB, much of
// it pointer-rich and so a tax on every later GC cycle) on the Go heap
// for the rest of the process. Files are truncated on every backing
// store, the given user address spaces and every node's kernel space
// are destroyed, and each MX endpoint's queue of completed receives —
// which the endpoint keeps for WaitAny and nothing ever drains when
// callers Wait their own requests — is drained by a process that then
// parks for good like the rig's other daemons. The rig must not be
// used afterwards.
func release(env *sim.Engine, hwc *hw.Cluster, stores []*memfs.FS, inos []kernel.InodeID, eps []*mx.Endpoint, users ...*vm.AddressSpace) {
	for _, ep := range eps {
		ep := ep
		env.Spawn("drain-completions", func(p *sim.Proc) {
			for {
				ep.WaitAny(p)
			}
		})
	}
	env.Run(0)
	for _, fs := range stores {
		for _, ino := range inos {
			_ = fs.Resize(ino, 0) // an inode this store never saw is not an error here
		}
	}
	for _, as := range users {
		as.Destroy()
	}
	for _, n := range hwc.Nodes() {
		n.Kernel.Destroy()
	}
}
