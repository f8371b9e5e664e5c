package figures

// This file holds the host-allocation probe behind the PR 6 zero-alloc
// data-path pass: a steady-state measurement of how many Go heap
// allocations one pipelined request costs on the host, after the
// per-object scratch (encode buffers, part freelists, slot-staged
// requests) has warmed up. bench_test.go reports it as a metric and
// alloc_gate_test.go pins a ceiling on it, so a regression that
// reintroduces per-request garbage fails CI rather than silently
// eroding simulation throughput.

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

// rpaWarmup is how many operations run before counting: enough to
// populate every freelist and grow every scratch buffer to its
// steady-state capacity.
const rpaWarmup = 32

// steadyAllocs runs op rpaWarmup times, then ops more times between
// two runtime.MemStats readings, and returns the mallocs per counted
// operation. The simulation is single-threaded on the host, so the
// delta is exact.
func steadyAllocs(ops int, op func(i int) error) (float64, error) {
	for i := 0; i < rpaWarmup; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if err := op(rpaWarmup + i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops), nil
}

// probe builds a rig of the given width and stripe with one client
// node (window 8) and hands its cluster to measure on a simulated
// process.
func probe(servers, stripe int, measure func(p *sim.Proc, cl *rfsrv.Cluster) error) error {
	r, err := rig.New(rig.Desc{Servers: servers, Replicas: 1, Stripe: stripe, Window: 8})
	if err != nil {
		return err
	}
	_, err = r.Run("probe", 0, func(p *sim.Proc) error {
		cl, err := r.Cluster(p, r.HW.AddNode("client"), 10)
		if err != nil {
			return err
		}
		return measure(p, cl)
	}, nil)
	return err
}

// probeFile creates the file the probes write and read.
func probeFile(p *sim.Proc, cl *rfsrv.Cluster) (kernel.InodeID, error) {
	attr, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "probe"})
	return attr.Attr.Ino, err
}

// SizePublishAllocs measures the steady-state host allocations per
// extending one-page write through a 3-server striped cluster with the
// batched size-publish queue on (DESIGN.md §11): the write itself plus
// the amortized share of the combined flush that drains every
// DefaultSizePublishBatch writes. The PR 7 gate pins this so the
// coalescing path cannot quietly regrow per-write garbage.
func SizePublishAllocs(ops int) (float64, error) {
	if ops <= 0 {
		return 0, fmt.Errorf("figures: SizePublishAllocs needs ops > 0")
	}
	var allocs float64
	err := probe(3, mem.PageSize, func(p *sim.Proc, cl *rfsrv.Cluster) error {
		if err := cl.SetSizePublishBatch(rfsrv.DefaultSizePublishBatch); err != nil {
			return err
		}
		ino, err := probeFile(p, cl)
		if err != nil {
			return err
		}
		node := cl.Node()
		va, err := node.Kernel.Mmap(mem.PageSize, "probe-buf")
		if err != nil {
			return err
		}
		vec := core.Of(core.KernelSeg(node.Kernel, va, mem.PageSize))
		allocs, err = steadyAllocs(ops, func(i int) error {
			_, err := cl.Write(p, ino, int64(i)*mem.PageSize, vec)
			return err
		})
		return err
	})
	return allocs, err
}

// RequestPathAllocs measures the steady-state host allocations per
// synchronous 64 KB operation (alternating write and read) through one
// Session to one MX server — the whole request path: encode, slot
// staging, transfer, server dispatch/worker, decode.
func RequestPathAllocs(ops int) (float64, error) {
	if ops <= 0 {
		return 0, fmt.Errorf("figures: RequestPathAllocs needs ops > 0")
	}
	var allocs float64
	err := probe(1, msStripe, func(p *sim.Proc, cl *rfsrv.Cluster) error {
		const chunk = 64 * 1024
		ino, err := probeFile(p, cl)
		if err != nil {
			return err
		}
		node, sess := cl.Node(), cl.Sessions()[0]
		va, err := node.Kernel.Mmap(chunk, "probe-buf")
		if err != nil {
			return err
		}
		vec := core.Of(core.KernelSeg(node.Kernel, va, chunk))
		allocs, err = steadyAllocs(ops, func(i int) error {
			off := int64(i%8) * chunk
			if i%2 == 0 {
				_, err := sess.Write(p, ino, off, vec)
				return err
			}
			_, err := sess.Read(p, ino, off, vec)
			return err
		})
		return err
	})
	return allocs, err
}
