package figures

// This file holds the host-allocation probes behind the PR 6 zero-alloc
// data-path pass and the PR 19 copy-only data plane: steady-state
// measurements of how many Go heap allocations — and how many heap
// bytes — one request costs on the host, after the per-object scratch
// (encode buffers, part freelists, slot-staged requests) and the
// process-wide free lists (page frames, NIC payload buffers) have warmed up.
// alloc_gate_test.go pins ceilings on them (and BenchmarkRequestPathAllocs
// reports the request path's), so a regression that reintroduces per-request
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
	// Finish any collection the set-up started first: its background
	// workers and the scavenger allocate too, and an operation that
	// allocates nothing would be charged for them.
	runtime.GC()
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

// probe builds a rig of the given width, replication and stripe with
// one client node (window 8) and hands its cluster to measure on a
// simulated process.
func probe(servers, replicas, stripe int, measure func(p *sim.Proc, cl *rfsrv.Cluster) error) error {
	r, err := rig.New(rig.Desc{Servers: servers, Replicas: replicas, Stripe: stripe, Window: 8})
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

// ExtendingWriteAllocs measures the steady-state host cost of one
// extending one-page write through a 4-server striped cluster: the
// data leg to the page's stripe owner plus the grow-OpSetSize fan that
// publishes the new end to the other three servers beside it, before
// the write returns (Cluster.startPublish/finishPublish, DESIGN.md §9).
func ExtendingWriteAllocs(ops int) (HostCost, error) {
	if ops <= 0 {
		return HostCost{}, fmt.Errorf("figures: ExtendingWriteAllocs needs ops > 0")
	}
	var allocs HostCost
	err := probe(4, 1, mem.PageSize, func(p *sim.Proc, cl *rfsrv.Cluster) error {
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

// ReplicatedReadAllocs measures the steady-state host cost of one
// synchronous 64 KB read of one stripe, into kernel memory, through a
// 4-server cluster that keeps two replicas of every stripe: each
// replica serves its read slice, so the read is two requests.
func ReplicatedReadAllocs(ops int) (HostCost, error) {
	if ops <= 0 {
		return HostCost{}, fmt.Errorf("figures: ReplicatedReadAllocs needs ops > 0")
	}
	const n = rfsrv.DefaultStripeSize
	var allocs HostCost
	err := probe(4, 2, n, func(p *sim.Proc, cl *rfsrv.Cluster) error {
		ino, err := probeFile(p, cl)
		if err != nil {
			return err
		}
		node := cl.Node()
		va, err := node.Kernel.Mmap(n, "probe-buf")
		if err != nil {
			return err
		}
		vec := core.Of(core.KernelSeg(node.Kernel, va, n))
		if _, err := cl.Write(p, ino, 0, vec); err != nil {
			return err
		}
		allocs, err = steadyAllocs(ops, func(int) error {
			resp, err := cl.Read(p, ino, 0, vec)
			if err == nil && int(resp.N) != n {
				err = fmt.Errorf("figures: replicated read returned %d of %d bytes", resp.N, n)
			}
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
	return sessionAllocs("RequestPathAllocs", ops, func(i int) bool { return i%2 == 0 })
}

// WriteAllocs measures the steady-state host cost of one synchronous
// 64 KB write through one Session to one MX server, over the file's
// existing blocks. Its payload travels as its own message into fresh
// server frames that the block store installs by page flip; the frame
// list and the receive vector live in the server's work record, so the
// write costs the request path's small control objects and no buffer.
func WriteAllocs(ops int) (HostCost, error) {
	return sessionAllocs("WriteAllocs", ops, func(int) bool { return true })
}

// sessionAllocs measures synchronous 64 KB operations through one
// Session to one MX server, operation i a write when write(i) says so
// and a read otherwise, cycling over the first 512 KB of one file.
func sessionAllocs(name string, ops int, write func(i int) bool) (HostCost, error) {
	if ops <= 0 {
		return HostCost{}, fmt.Errorf("figures: %s needs ops > 0", name)
	}
	var allocs HostCost
	err := probe(1, 1, msStripe, func(p *sim.Proc, cl *rfsrv.Cluster) error {
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
			if write(i) {
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

// KernelDataAllocs measures the steady-state host cost of one 64 KB
// read into kernel memory — or, with write, one write from it — through
// one Session to one MX server, with window of them in flight (1: the
// synchronous Read or Write). One eager message cannot carry the data,
// so it travels in eager pieces (rfsrv's piece rule): a read's into
// receives the client posted before it asked, a write's into receives
// the server posts as it admits the header. Both once took MX's
// rendezvous.
func KernelDataAllocs(ops, window int, write bool) (HostCost, error) {
	return kernelDataAllocs("KernelDataAllocs", ops, window, write, window == 1)
}

// KeptReadAllocs measures the steady-state host cost of one 64 KB read
// into kernel memory through one Session to one MX server, issued with
// StartRead and waited at once: KernelDataAllocs' window-1 read with a
// kept Pending, which holds its reply, instead of the slot's.
func KeptReadAllocs(ops int) (HostCost, error) {
	return kernelDataAllocs("KeptReadAllocs", ops, 1, false, false)
}

// kernelDataAllocs is KernelDataAllocs through the synchronous verbs
// (sync, window 1 only) or through Start* and Wait.
func kernelDataAllocs(name string, ops, window int, write, sync bool) (HostCost, error) {
	if ops <= 0 || window < 1 {
		return HostCost{}, fmt.Errorf("figures: %s needs ops > 0 and window >= 1", name)
	}
	var allocs HostCost
	err := probe(1, 1, msStripe, func(p *sim.Proc, cl *rfsrv.Cluster) error {
		const chunk, chunks = 64 * 1024, 8
		ino, err := probeFile(p, cl)
		if err != nil {
			return err
		}
		node, sess := cl.Node(), cl.Sessions()[0]
		va, err := node.Kernel.Mmap(window*chunk, "probe-buf")
		if err != nil {
			return err
		}
		slot := func(i int) core.Vector {
			return core.Of(core.KernelSeg(node.Kernel, va+vm.VirtAddr(i%window*chunk), chunk))
		}
		for i := 0; i < chunks; i++ {
			if _, err := cl.Write(p, ino, int64(i)*chunk, slot(0)); err != nil {
				return err
			}
		}
		call, start := sess.Read, sess.StartRead
		if write {
			call, start = sess.Write, sess.StartWrite
		}
		pds := make([]rfsrv.PendingOp, window)
		allocs, err = steadyAllocs(ops, func(i int) error {
			off := int64(i%chunks) * chunk
			if sync {
				_, err := call(p, ino, off, slot(i))
				return err
			}
			if pd := pds[i%window]; pd != nil {
				if _, err := pd.Wait(p); err != nil {
					return err
				}
			}
			var err error
			pds[i%window], err = start(p, ino, off, slot(i))
			return err
		})
		for _, pd := range pds {
			if pd != nil {
				if _, werr := pd.Wait(p); err == nil {
					err = werr
				}
			}
		}
		return err
	})
	return allocs, err
}

// PipelinedReadBounces reports how many request bounce buffers (the
// page under a receiver's header segment) one MX server's pool hands out
// per request while a client keeps a window of eight 16 KB reads in
// flight, in steady state — after the warm-up has shown the server
// concurrency, so every receiver is posted. A read is copied out of its
// receiver's inbox whole when it is received, so the receivers keep
// their bounces and the answer is zero; the reply headers' staging
// buffers, which the same pool hands out one per reply, are told apart
// by size class.
func PipelinedReadBounces(ops int) (float64, error) {
	const chunk, window = 16 * 1024, 8
	r, err := rig.New(rig.Desc{Servers: 1, Replicas: 1, Stripe: msStripe, Window: window})
	if err != nil {
		return 0, err
	}
	hdrClass, bounceClass := int64(rfsrv.HdrBufSize), int64(mem.PageSize)
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
		bounces = float64(gets*hdrClass-bytes) / float64(hdrClass-bounceClass) / float64(ops)
		return nil
	}, nil)
	return bounces, err
}

// ClusterLookupAllocs measures the steady-state host cost of one
// Cluster.Meta lookup on a 4-server striped cluster: one control-path
// round trip to the name's home, its reply decoded into the cluster's
// own record and its request answered in the serving work record's.
func ClusterLookupAllocs(ops int) (HostCost, error) {
	if ops <= 0 {
		return HostCost{}, fmt.Errorf("figures: ClusterLookupAllocs needs ops > 0")
	}
	var allocs HostCost
	err := probe(4, 1, msStripe, func(p *sim.Proc, cl *rfsrv.Cluster) error {
		ino, err := probeFile(p, cl)
		if err != nil {
			return err
		}
		req := rfsrv.Req{Op: rfsrv.OpLookup, Name: "probe"}
		allocs, err = steadyAllocs(ops, func(int) error {
			resp, err := cl.Meta(p, &req)
			if err == nil && resp.Attr.Ino != ino {
				err = fmt.Errorf("figures: lookup resolved inode %d, want %d", resp.Attr.Ino, ino)
			}
			return err
		})
		return err
	})
	return allocs, err
}

// ORFSFileCost is what one 64 KB read syscall on an ORFS mount costs the
// host, each way the paper's file path goes.
type ORFSFileCost struct {
	// Hit is a buffered read served entirely from the page cache:
	// sixteen frame → user-page copies, no wire operation, so nothing
	// to allocate.
	Hit HostCost
	// Direct is an O_DIRECT read over MX: orfs → Session → wire →
	// server worker → memfs and back into the user's pages.
	Direct HostCost
	// MissGM and MissMX are a buffered read that misses every page: the
	// page-cache fill, one window-1 request per page straight into a
	// fresh frame (GM's physical-address primitives, and MX), and the
	// eviction of the least recently used page per fill.
	MissGM, MissMX HostCost
}

// ORFSFileAllocs measures the steady-state host cost of one 64 KB read
// syscall on an ORFS mount over one Session to one server: buffered
// hits and O_DIRECT over MX, buffered misses over GM and over MX.
func ORFSFileAllocs(ops int) (cost ORFSFileCost, err error) {
	if ops <= 0 {
		return cost, fmt.Errorf("figures: ORFSFileAllocs needs ops > 0")
	}
	if cost.MissGM, err = orfsMissAllocs(ops, fsGM); err != nil {
		return cost, err
	}
	if cost.MissMX, err = orfsMissAllocs(ops, fsMX); err != nil {
		return cost, err
	}
	err = probe(1, 1, msStripe, func(p *sim.Proc, cl *rfsrv.Cluster) error {
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
		if cost.Hit, err = steadyAllocs(ops, read(buffered)); err != nil {
			return err
		}
		cost.Direct, err = steadyAllocs(ops, read(odirect))
		return err
	})
	return cost, err
}

// orfsMissAllocs measures a buffered 64 KB read that misses the page
// cache on every page, the way the orfs_file workload's buffered reads
// do: a kernel client on a window-1 Session to one server, over GM's
// physical-address primitives or over MX, with a page cache a quarter
// of the file it cycles through.
func orfsMissAllocs(ops int, tr fsTransport) (HostCost, error) {
	const chunk, chunks = 64 * 1024, 8
	r, client, serverFS, err := fileRig(tr)
	if err != nil {
		return HostCost{}, err
	}
	var cost HostCost
	_, err = r.Run("probe", 0, func(p *sim.Proc) error {
		attr, err := serverFS.Create(p, serverFS.Root(), "probe")
		if err != nil {
			return err
		}
		if err := serverFS.WriteAt(attr.Ino, 0, make([]byte, chunk*chunks)); err != nil {
			return err
		}
		sess, err := fileSession(p, faOpts{tr: tr}, r, client)
		if err != nil {
			return err
		}
		osys := kernel.NewOS(client, chunk*chunks/mem.PageSize/4)
		osys.Mount("/mnt", orfs.New("orfs", sess))
		as := client.NewUserSpace("probe-app")
		va, err := as.Mmap(chunk, "probe-buf")
		if err != nil {
			return err
		}
		f, err := osys.Open(p, "/mnt/probe", 0)
		if err != nil {
			return err
		}
		cost, err = steadyAllocs(ops, func(i int) error {
			n, err := f.ReadAt(p, as, va, chunk, int64(i%chunks)*chunk)
			if err == nil && n != chunk {
				err = fmt.Errorf("figures: ORFS miss probe read %d of %d bytes", n, chunk)
			}
			return err
		})
		return err
	}, nil)
	return cost, err
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
	env, a, b := Config{}.twoNodes(hw.PCIXD)
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
