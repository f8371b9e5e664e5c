package workload

// The layer ladder — the paper's Fig 1(b)/4(a) method applied to the
// whole stack. On an idle two-node rig the same 4 KB and 64 KB read is
// issued through successively higher public entry points:
//
//	orfs_direct   kernel.OS O_DIRECT read on an ORFS mount
//	 cluster      rfsrv.Cluster.Read on a one-server cluster
//	  session_mx  rfsrv.Session.Read over MX
//	   fabric_mx  one fabric message of that size, one way
//
// Each rung is a span whose parent is the rung above, so a rung's self
// time — its span minus its children — is what that layer adds. The
// rungs are separate calls, not nested intervals, so the self times
// telescope to the top rung's latency by construction; what the ladder
// checks is that none is negative (a lower entry point costing more
// than the one above it would make the attribution meaningless) and
// that the cluster's is zero: a one-server cluster is bit-identical to
// its session.
//
// Beside the chain: memfs.FS.ReadDirect of the same bytes on the server
// (not a child of the session rung: the server answers a read zero-copy
// out of the block store's frames, so the copy ReadDirect charges is no
// part of a session read — as a child it drove session_mx's 64 KB self
// time negative); the same session read over GM, with the GM fabric
// message under it; a buffered read that misses the page cache and one
// that hits; and rung zero — a 64 KB hw.CPU.Copy against a 64 KB
// gm.Port.RegisterMemory / DeregisterMemory (Fig 1b itself).

import (
	"fmt"
	"sort"
	"time"

	"repro/bench/trace"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

const (
	ladderReps  = 9 // calls per rung; virtual time from the first, host time the median
	ladderTrack = 100
	ladderFile  = 4 << 20
)

var ladderSizes = []struct {
	name string
	n    int
}{{"4k", 4 << 10}, {"64k", 64 << 10}}

// Ladder runs the layer ladder, records its spans in tr and returns
// the ladder.* and rung-zero metrics. Any broken invariant (a negative
// self time in the chain, a non-zero cluster self time, a repeat of an
// idle call taking a different virtual time) is returned as an error.
func Ladder(tr *trace.Recorder) (map[string]float64, error) {
	env, hwc := newCluster()
	client, server := hwc.AddNode("client"), hwc.AddNode("server")
	serverFS := memfs.New("backing", server, 0)
	srv := rfsrv.NewServer(server, serverFS)
	mxClient, mxServer := mx.Attach(client), mx.Attach(server)
	gmClient, gmServer := gm.Attach(client), gm.Attach(server)
	if _, err := srv.ServeMX(mxServer, 1, 1); err != nil {
		return nil, err
	}
	if _, err := srv.ServeGM(gmServer, 1); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var problems []string

	// rung measures one entry point: a warm-up call, then ladderReps
	// calls of which the first is the recorded span. call performs the
	// read and returns the virtual interval it occupied (fabric spans
	// start on one node and end on the other).
	rung := func(p *sim.Proc, name, size string, parent int, call func(rep int) (sim.Time, sim.Time, error)) (int, error) {
		if _, _, err := call(-1); err != nil {
			return -1, fmt.Errorf("%s_%s warm-up: %w", name, size, err)
		}
		id := -1
		var first sim.Time
		host := make([]float64, 0, ladderReps)
		for rep := 0; rep < ladderReps; rep++ {
			h0 := time.Now()
			v0, v1, err := call(rep)
			host = append(host, float64(time.Since(h0).Nanoseconds()))
			if err != nil {
				return -1, fmt.Errorf("%s_%s: %w", name, size, err)
			}
			if rep == 0 {
				first = v1 - v0
				id = tr.Begin(parent, name+"_"+size, "ladder", ladderTrack, v0)
				tr.End(id, v1)
			} else if v1-v0 != first {
				problems = append(problems, fmt.Sprintf("%s_%s took %v then %v on an idle rig", name, size, first, v1-v0))
			}
		}
		out["ladder."+name+"_us_"+size] = us(first)
		if size == "64k" {
			sort.Float64s(host)
			out["ladder."+name+"_host_ns_64k"] = host[len(host)/2]
		}
		return id, nil
	}

	err := runProc(env, "ladder", func(p *sim.Proc) error {
		attr, err := serverFS.Create(p, serverFS.Root(), "data")
		if err != nil {
			return err
		}
		if err := serverFS.WriteAt(attr.Ino, 0, make([]byte, ladderFile)); err != nil {
			return err
		}
		ino := attr.Ino
		as := client.NewUserSpace("app")
		va, err := as.Mmap(64<<10, "buf")
		if err != nil {
			return err
		}
		user := core.Of(core.UserSeg(as, va, 64<<10))

		// Rung zero: Fig 1(b).
		port, err := gmClient.OpenPort(9, false)
		if err != nil {
			return err
		}
		t0 := p.Now()
		client.CPU.Copy(p, 64<<10)
		out["hw.copy_us_64k"] = us(p.Now() - t0)
		t0 = p.Now()
		region, err := port.RegisterMemory(p, as, va, 64<<10)
		if err != nil {
			return err
		}
		out["gm.register_us_64k"] = us(p.Now() - t0)
		t0 = p.Now()
		if err := port.DeregisterMemory(p, region); err != nil {
			return err
		}
		out["gm.deregister_us_64k"] = us(p.Now() - t0)

		// Clients: a plain session per transport, and a one-server
		// cluster (own session) under the ORFS mount.
		session := func(ep uint8, useGM bool) (*rfsrv.Session, error) {
			var fc *rfsrv.FabricClient
			var err error
			if useGM {
				fc, err = rfsrv.NewGMClient(p, gmClient, ep, true, client.Kernel, server.ID, 1, 8192)
			} else {
				fc, err = rfsrv.NewMXClient(mxClient, ep, true, client.Kernel, server.ID, 1)
			}
			if err != nil {
				return nil, err
			}
			return rfsrv.NewSession(p, fc, 1)
		}
		sessMX, err := session(10, false)
		if err != nil {
			return err
		}
		sessGM, err := session(10, true)
		if err != nil {
			return err
		}
		under, err := session(11, false)
		if err != nil {
			return err
		}
		cluster, err := rfsrv.NewCluster(p, []*rfsrv.Session{under}, 0)
		if err != nil {
			return err
		}
		osys := kernel.NewOS(client, 0)
		osys.Mount("/mnt", orfs.New("orfs", cluster))
		fd, err := osys.Open(p, "/mnt/data", kernel.ODirect)
		if err != nil {
			return err
		}
		fb, err := osys.Open(p, "/mnt/data", 0)
		if err != nil {
			return err
		}

		// Raw fabric pairs for the one-way rungs (kernel, physical
		// frames, as the page cache would hand them over).
		pair := func(a, b fabric.Transport, err error) (npPair, error) {
			var pr npPair
			if err != nil {
				return pr, err
			}
			if pr.a, err = newNPEnd(p, a, physBuf, false, server.ID, 20, 64<<10); err != nil {
				return pr, err
			}
			pr.b, err = newNPEnd(p, b, physBuf, false, client.ID, 20, 64<<10)
			return pr, err
		}
		mxA, err := fabric.NewMX(mxClient, 20, true)
		if err != nil {
			return err
		}
		mxB, err := fabric.NewMX(mxServer, 20, true)
		pairMX, err := pair(mxA, mxB, err)
		if err != nil {
			return err
		}
		gmA, err := fabric.NewGM(gmClient, 20, true, fabric.WithPolling())
		if err != nil {
			return err
		}
		gmB, err := fabric.NewGM(gmServer, 20, true, fabric.WithPolling())
		pairGM, err := pair(gmA, gmB, err)
		if err != nil {
			return err
		}
		oneWay := func(pr npPair, n int) (sim.Time, sim.Time, error) {
			var start, end sim.Time
			var rerr error
			done := sim.NewSignal(env)
			env.Spawn("ladder-recv", func(q *sim.Proc) {
				rerr = pr.b.recv(q, n)
				end = q.Now()
				done.Fire()
			})
			p.Sleep(10 * 1000) // receive posted first
			start = p.Now()
			if err := pr.a.send(p, n); err != nil {
				return 0, 0, err
			}
			done.Wait(p)
			return start, end, rerr
		}
		serverBuf, err := server.Kernel.Mmap(64<<10, "ladder")
		if err != nil {
			return err
		}
		serverVec := core.Of(core.KernelSeg(server.Kernel, serverBuf, 64<<10))

		cold := int64(1 << 20) // buffered-miss offsets: fresh pages every call
		for _, sz := range ladderSizes {
			n := sz.n
			timed := func(f func() (int, error)) func(int) (sim.Time, sim.Time, error) {
				return func(int) (sim.Time, sim.Time, error) {
					v0 := p.Now()
					got, err := f()
					if err == nil && got != n {
						err = fmt.Errorf("read %d of %d bytes", got, n)
					}
					return v0, p.Now(), err
				}
			}
			read := func(cl rfsrv.Client) func() (int, error) {
				return func() (int, error) {
					resp, err := cl.Read(p, ino, 0, user.Slice(0, n))
					if err != nil {
						return 0, err
					}
					return int(resp.N), nil
				}
			}
			top, err := rung(p, "orfs_direct", sz.name, -1, timed(func() (int, error) { return fd.ReadAt(p, as, va, n, 0) }))
			if err != nil {
				return err
			}
			cl, err := rung(p, "cluster", sz.name, top, timed(read(cluster)))
			if err != nil {
				return err
			}
			sm, err := rung(p, "session_mx", sz.name, cl, timed(read(sessMX)))
			if err != nil {
				return err
			}
			if _, err := rung(p, "fabric_mx", sz.name, sm, func(int) (sim.Time, sim.Time, error) { return oneWay(pairMX, n) }); err != nil {
				return err
			}
			if _, err := rung(p, "memfs", sz.name, -1, timed(func() (int, error) {
				return serverFS.ReadDirect(p, ino, 0, serverVec.Slice(0, n))
			})); err != nil {
				return err
			}
			sg, err := rung(p, "session_gm", sz.name, -1, timed(read(sessGM)))
			if err != nil {
				return err
			}
			if _, err := rung(p, "fabric_gm", sz.name, sg, func(int) (sim.Time, sim.Time, error) { return oneWay(pairGM, n) }); err != nil {
				return err
			}
			if _, err := rung(p, "orfs_buffered_miss", sz.name, -1, timed(func() (int, error) {
				cold += int64(n)
				return fb.ReadAt(p, as, va, n, cold)
			})); err != nil {
				return err
			}
			if _, err := rung(p, "orfs_buffered_hit", sz.name, -1, timed(func() (int, error) { return fb.ReadAt(p, as, va, n, cold) })); err != nil {
				return err
			}
			// No rung of the chain may cost less than the rungs under
			// it, and the one-server cluster must add nothing.
			self := tr.SelfTimes()
			for id := top; id < len(self); id++ {
				if chained(tr, id, top) && self[id] < 0 {
					problems = append(problems, fmt.Sprintf("ladder: %s has self time %v: the rungs under it cost more than it does", tr.Spans[id].Name, self[id]))
				}
			}
			if self[cl] != 0 {
				problems = append(problems, fmt.Sprintf("ladder %s: one-server cluster self time is %v, want 0", sz.name, self[cl]))
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if len(problems) > 0 {
		return out, fmt.Errorf("ladder: %s", problems[0])
	}
	return out, nil
}

// chained reports whether span id descends from span top.
func chained(tr *trace.Recorder, id, top int) bool {
	for id >= 0 {
		if id == top {
			return true
		}
		id = tr.Spans[id].Parent
	}
	return false
}
