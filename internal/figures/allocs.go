package figures

// This file holds the host-allocation probes behind the PR 6 zero-alloc
// data-path pass and the PR 19 copy-only data plane: steady-state
// measurements of how many Go heap allocations — and how many heap
// bytes — one request costs on the host, after the per-object scratch
// (encode buffers, part freelists, slot-staged requests) and the
// process-wide pools (page frames, NIC payload buffers) have warmed up.
// bench_test.go reports them as metrics and alloc_gate_test.go pins
// ceilings on them, so a regression that reintroduces per-request
// garbage fails CI rather than silently eroding simulation throughput.
// The count alone cannot see a 64 KB staging buffer (one allocation);
// the bytes can.

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/netpipe"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/vm"
)

// rpaWarmup is how many operations run before counting: enough to
// populate every freelist and grow every scratch buffer to its
// steady-state capacity.
const rpaWarmup = 32

// HostCost is what one operation costs the host's allocator in steady
// state.
type HostCost struct {
	Allocs float64 // heap objects per operation
	Bytes  float64 // heap bytes per operation
}

// steadyAllocs runs op rpaWarmup times, then ops more times between
// two runtime.MemStats readings, and returns the mallocs and heap bytes
// per counted operation. The simulation is single-threaded on the host,
// so the delta is exact.
func steadyAllocs(ops int, op func(i int) error) (HostCost, error) {
	for i := 0; i < rpaWarmup; i++ {
		if err := op(i); err != nil {
			return HostCost{}, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if err := op(rpaWarmup + i); err != nil {
			return HostCost{}, err
		}
	}
	runtime.ReadMemStats(&after)
	return HostCost{
		Allocs: float64(after.Mallocs-before.Mallocs) / float64(ops),
		Bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
	}, nil
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

// SizePublishAllocs measures the steady-state host cost of one
// extending one-page write through a 3-server striped cluster with the
// batched size-publish queue on (DESIGN.md §11): the write itself plus
// the amortized share of the combined flush that drains every
// DefaultSizePublishBatch writes. The PR 7 gate pins this so the
// coalescing path cannot quietly regrow per-write garbage.
func SizePublishAllocs(ops int) (HostCost, error) {
	if ops <= 0 {
		return HostCost{}, fmt.Errorf("figures: SizePublishAllocs needs ops > 0")
	}
	var allocs HostCost
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

// RequestPathAllocs measures the steady-state host cost of one
// synchronous 64 KB operation (alternating write and read) through one
// Session to one MX server — the whole request path: encode, slot
// staging, transfer, server dispatch/worker, decode.
func RequestPathAllocs(ops int) (HostCost, error) {
	if ops <= 0 {
		return HostCost{}, fmt.Errorf("figures: RequestPathAllocs needs ops > 0")
	}
	var allocs HostCost
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

// PipelinedReadBounces reports how many request bounce buffers (the
// MaxWriteChunk + HdrBufSize class, 68 contiguous frames each) one MX
// server's pool hands out per request while a client keeps a window of
// eight 16 KB reads in flight, in steady state — after the warm-up has
// shown the server concurrency, so every receiver is posted. A read is
// copied out of its bounce whole when it is received, so the receivers
// keep theirs and the answer is zero; the reply headers' staging
// buffers, which the same pool hands out one per reply, are told apart
// by size class.
func PipelinedReadBounces(ops int) (float64, error) {
	const chunk, window = 16 * 1024, 8
	const hdrClass, bounceClass = rfsrv.HdrBufSize, rfsrv.MaxWriteChunk + rfsrv.HdrBufSize
	r, err := rig.New(rig.Desc{Servers: 1, Replicas: 1, Stripe: msStripe, Window: window})
	if err != nil {
		return 0, err
	}
	var bounces float64
	_, err = r.Run("probe", 0, func(p *sim.Proc) error {
		node := r.HW.AddNode("client")
		cl, err := r.Cluster(p, node, 10)
		if err != nil {
			return err
		}
		ino, err := probeFile(p, cl)
		if err != nil {
			return err
		}
		va, err := node.Kernel.Mmap(window*chunk, "probe-buf")
		if err != nil {
			return err
		}
		slot := func(i int) core.Vector {
			return core.Of(core.KernelSeg(node.Kernel, va+vm.VirtAddr(i%window*chunk), chunk))
		}
		if _, err := cl.Write(p, ino, 0, core.Of(core.KernelSeg(node.Kernel, va, window*chunk))); err != nil {
			return err
		}
		sess, pool := cl.Sessions()[0], fabric.PoolOf(r.Nodes[0])
		pds := make([]rfsrv.PendingOp, window)
		var gets, bytes int64
		for i := 0; i < rpaWarmup+ops+window; i++ {
			if i >= window {
				if _, err := pds[i%window].Wait(p); err != nil {
					return err
				}
			}
			switch i {
			case rpaWarmup:
				gets, bytes = pool.Gets.N, pool.Gets.Bytes
			case rpaWarmup + ops:
				gets, bytes = pool.Gets.N-gets, pool.Gets.Bytes-bytes
			}
			if i < rpaWarmup+ops {
				if pds[i%window], err = sess.StartRead(p, ino, int64(i%window*chunk), slot(i)); err != nil {
					return err
				}
			}
		}
		// gets = headers + bounces and bytes = headers x hdrClass +
		// bounces x bounceClass: two size classes, two equations.
		bounces = float64(bytes-gets*hdrClass) / float64(bounceClass-hdrClass) / float64(ops)
		return nil
	}, nil)
	return bounces, err
}

// ORFSFileAllocs measures the steady-state host cost of one 64 KB read
// syscall on an ORFS mount over one Session to one MX server, both
// ways the paper's file path goes: buffered and served entirely from
// the page cache (sixteen frame → user-page copies, no wire operation,
// so nothing to allocate), and O_DIRECT (orfs → Session → wire → server
// worker → memfs and back into the user's pages).
func ORFSFileAllocs(ops int) (hit, direct HostCost, err error) {
	if ops <= 0 {
		return hit, direct, fmt.Errorf("figures: ORFSFileAllocs needs ops > 0")
	}
	err = probe(1, msStripe, func(p *sim.Proc, cl *rfsrv.Cluster) error {
		const chunk, chunks = 64 * 1024, 8
		node := cl.Node()
		osys := kernel.NewOS(node, 0)
		osys.Mount("/mnt", orfs.New("orfs", cl.Sessions()[0]))
		as := node.NewUserSpace("probe-app")
		va, err := as.Mmap(chunk, "probe-buf")
		if err != nil {
			return err
		}
		buffered, err := osys.Open(p, "/mnt/probe", kernel.OCreate)
		if err != nil {
			return err
		}
		for i := 0; i < chunks; i++ { // whole-page writes: every page stays cached
			if _, err := buffered.Write(p, as, va, chunk); err != nil {
				return err
			}
		}
		if err := buffered.Fsync(p); err != nil {
			return err
		}
		odirect, err := osys.Open(p, "/mnt/probe", kernel.ODirect)
		if err != nil {
			return err
		}
		read := func(f *kernel.File) func(i int) error {
			return func(i int) error {
				n, err := f.ReadAt(p, as, va, chunk, int64(i%chunks)*chunk)
				if err == nil && n != chunk {
					err = fmt.Errorf("figures: ORFS probe read %d of %d bytes", n, chunk)
				}
				return err
			}
		}
		if hit, err = steadyAllocs(ops, read(buffered)); err != nil {
			return err
		}
		direct, err = steadyAllocs(ops, read(odirect))
		return err
	})
	return hit, direct, err
}

// FabricRoundTripAllocs measures the steady-state host cost of one
// 4 KB ping-pong round trip over the raw fabric, nothing above it: on
// a GM kernel port pair with physically addressed buffers (the §3.3
// primitives) and on an MX kernel endpoint pair with kernel-virtual
// buffers. What is left per round trip is the drivers' and the fabric
// adapters' small per-message records — no buffer, no extent-list
// temporary, no boxed trace argument.
func FabricRoundTripAllocs(ops int) (gmPhysical, mxKernel HostCost, err error) {
	if ops <= 0 {
		return gmPhysical, mxKernel, fmt.Errorf("figures: FabricRoundTripAllocs needs ops > 0")
	}
	const size = 4096
	env := sim.NewEngine()
	cl := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	a, b := cl.AddNode("a"), cl.AddNode("b")
	finished := false
	env.Spawn("initiator", func(p *sim.Proc) {
		pingPong := func(near, far *netpipe.End) (HostCost, error) {
			env.Spawn("responder", func(rp *sim.Proc) {
				for i := 0; i < rpaWarmup+ops; i++ {
					if _, err := far.Pong(rp, size); err != nil || far.Ping(rp, size) != nil {
						return // the initiator's next Pong strands: reported as a deadlock
					}
				}
			})
			return steadyAllocs(ops, func(int) error {
				if err := near.Ping(p, size); err != nil {
					return err
				}
				_, err := near.Pong(p, size)
				return err
			})
		}
		var near, far *netpipe.End
		if near, err = netpipe.NewGMEnd(p, gm.Attach(a), 1, netpipe.PhysBuf, b.ID, 1, size); err != nil {
			return
		}
		if far, err = netpipe.NewGMEnd(p, gm.Attach(b), 1, netpipe.PhysBuf, a.ID, 1, size); err != nil {
			return
		}
		if gmPhysical, err = pingPong(near, far); err != nil {
			return
		}
		if near, err = netpipe.NewMXEnd(mx.Attach(a), 2, netpipe.KernelBuf, b.ID, 2, size, false); err != nil {
			return
		}
		if far, err = netpipe.NewMXEnd(mx.Attach(b), 2, netpipe.KernelBuf, a.ID, 2, size, false); err != nil {
			return
		}
		mxKernel, err = pingPong(near, far)
		finished = true
	})
	env.Run(0)
	if err == nil && !finished {
		err = fmt.Errorf("figures: fabric round-trip probe deadlocked")
	}
	return gmPhysical, mxKernel, err
}
