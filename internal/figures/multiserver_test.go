package figures

// Tests for the striped multi-server suite: the PR's scaling
// acceptance bar and the one-server/plain-session harness equality.

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

// TestMultiServerScaling is the acceptance bar: aggregate ORFS-direct
// throughput at 4 servers must be at least 2.5x the 1-server
// configuration, at the PR 2 best window, with the fixed client count.
func TestMultiServerScaling(t *testing.T) {
	c := DefaultConfig()
	base, err := c.msRun("orfs-direct", 1, msClients, msWindow)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := c.msRun("orfs-direct", 4, msClients, msWindow)
	if err != nil {
		t.Fatal(err)
	}
	if wide.mbps < base.mbps*2.5 {
		t.Errorf("4 servers = %.1f MB/s, want >= 2.5x 1 server (%.1f MB/s)", wide.mbps, base.mbps)
	}
	t.Logf("orfs-direct: 1 server = %.1f MB/s, 4 servers = %.1f MB/s (%.2fx)",
		base.mbps, wide.mbps, wide.mbps/base.mbps)
}

// TestMultiServerOneServerMatchesScalability ties the cluster harness
// to the PR 2 plain-session one: a 1-server point drives the whole
// cluster code path, and must reproduce the same workload issued
// through a bare Session on the same platform bit-identically (same
// window, same client count).
func TestMultiServerOneServerMatchesScalability(t *testing.T) {
	c := DefaultConfig()
	viaCluster, err := c.msRun("orfs-direct", 1, 1, msWindow)
	if err != nil {
		t.Fatal(err)
	}
	r, err := rig.New(rig.Desc{Servers: 1, Replicas: 1, Stripe: msStripe, Window: msWindow})
	if err != nil {
		t.Fatal(err)
	}
	var inos []kernel.InodeID
	var samples []sim.Time
	span, err := r.Run("cl", 1, func(p *sim.Proc) (err error) {
		inos, err = msSeedStriped(p, r, 1, 1, scalFilePerCli)
		return err
	}, func(p *sim.Proc, _ int) error {
		node := r.HW.AddNode("client0")
		fc, err := rfsrv.NewMXClient(r.MX(node), 10, true, node.Kernel, r.Nodes[0].ID, rig.ServerEP)
		if err != nil {
			return err
		}
		sess, err := rfsrv.NewSession(p, fc, msWindow)
		if err != nil {
			return err
		}
		samples, err = scalDirectReads(p, sess, inos[0], scalChunk)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	viaSession := summarize(samples, scalFilePerCli, span)
	if viaCluster.mbps != viaSession.mbps {
		t.Errorf("1-server cluster harness %.6f MB/s != session harness %.6f MB/s", viaCluster.mbps, viaSession.mbps)
	}
	if viaCluster.p50 != viaSession.p50 || viaCluster.p99 != viaSession.p99 {
		t.Errorf("latency percentiles differ: cluster p50/p99 %v/%v, session %v/%v",
			viaCluster.p50, viaCluster.p99, viaSession.p50, viaSession.p99)
	}
}

// TestMultiServerNBDAndBufferedScale: the other two scenarios must
// also gain from added servers (block striping and readahead across
// the aggregate window).
func TestMultiServerNBDAndBufferedScale(t *testing.T) {
	for _, scen := range []string{"nbd", "orfs-buffered"} {
		c := DefaultConfig()
		base, err := c.msRun(scen, 1, 4, msWindow)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := c.msRun(scen, 4, 4, msWindow)
		if err != nil {
			t.Fatal(err)
		}
		if wide.mbps <= base.mbps {
			t.Errorf("%s: 4 servers = %.1f MB/s not above 1 server = %.1f MB/s", scen, wide.mbps, base.mbps)
		}
		t.Logf("%s: 1 server = %.1f MB/s, 4 servers = %.1f MB/s", scen, base.mbps, wide.mbps)
	}
}

// TestDirectReadsDrainOnFault: the figures' shared read stream must
// not abandon what it issued when the run fails. The server dies a few
// chunks into a windowed read with the reply deadline armed; the loop
// returns the fault with every window slot retired, so a figure that
// fails reports its error instead of wedging the rig behind leaked
// slots.
func TestDirectReadsDrainOnFault(t *testing.T) {
	const timeout = 2 * time.Millisecond
	r, err := rig.New(rig.Desc{Servers: 1, Replicas: 1, Stripe: msStripe, Window: msWindow, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	var inos []kernel.InodeID
	var sess *rfsrv.Session
	_, err = r.Run("cl", 1, func(p *sim.Proc) (err error) {
		inos, err = msSeedStriped(p, r, 1, 1, scalFilePerCli)
		return err
	}, func(p *sim.Proc, _ int) error {
		node := r.HW.AddNode("client0")
		fc, err := rfsrv.NewMXClient(r.MX(node), 10, true, node.Kernel, r.Nodes[0].ID, rig.ServerEP)
		if err != nil {
			return err
		}
		fc.SetRequestTimeout(timeout)
		if sess, err = rfsrv.NewSession(p, fc, msWindow); err != nil {
			return err
		}
		r.Nodes[0].NIC.KillAfter(time.Millisecond)
		_, err = scalDirectReads(p, sess, inos[0], scalChunk)
		return err
	})
	if !fabric.IsFault(err) {
		t.Fatalf("read stream across a server kill = %v, want a transport fault", err)
	}
	if sess.InFlight() != 0 || sess.Issued.N != sess.Completed.N {
		t.Errorf("%d window slots still held (issued %d, retired %d): the loop abandoned in-flight reads",
			sess.InFlight(), sess.Issued.N, sess.Completed.N)
	}
}
