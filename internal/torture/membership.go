package torture

// Membership events (Config.Elastic): the operator cluster is the rig's
// first, so the MemberView every client attaches is its own, and this
// proc bounces random
// servers (Cluster.Bounce: a retire and a rejoin inside one full fence,
// the same membership change Join and Retire run) while the op storm
// runs. Bounces and fault injections are mutually exclusive — a bounce
// only starts in a quiet window (no dark NICs, no client-side
// exclusions, residual timeouts drained) and the schedule skips
// injection rounds while one runs — so the model's expectation is
// absolute: a bounce must preserve every byte, every entry, and every
// in-flight client's view, with nothing owed to fault tolerance.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// membership is the operator proc: build the operator cluster, which
// publishes the rig's view (clients wait for it before traffic), then
// bounce until the storm drains.
func (st *runState) membership(p *sim.Proc) {
	var err error
	if st.operator, err = st.rig.Cluster(p, st.opNode, 10); err != nil {
		st.failf(-1, -1, "", "membership: operator setup: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(st.cfg.ScheduleSeed ^ 0x626F756E636573))
	for !st.stormOn && !st.failed() {
		p.Sleep(tick)
	}
	for st.stormLive > 0 && !st.failed() {
		p.Sleep(time.Duration(1500+rng.Intn(3500)) * time.Microsecond)
		if st.stormLive == 0 || st.failed() {
			break
		}
		// Claim first: the schedule stops injecting, so the quiet window
		// is guaranteed to open — any in-flight dwell finishes, residual
		// timeouts drain, and the clients reinstate what they excluded
		// (no new fault can interrupt them while the claim is held).
		st.memberBusy = true
		for !st.quietForMembership() {
			p.Sleep(tick)
			if st.stormLive == 0 || st.failed() {
				st.memberBusy = false
				return
			}
		}
		v := rng.Intn(st.cfg.Servers)
		st.record(OpRecord{Client: -1, Kind: OpFault, Note: fmt.Sprintf("bounce %d", v)})
		st.logf("t=%v membership: bounce %d", st.now(), v)
		if err := st.operator.Bounce(p, v); err != nil {
			st.memberBusy = false
			st.failf(-1, -1, "", "membership: bounce of server %d: %v", v, err)
			return
		}
		st.bounces++
		st.memberBusy = false
	}
}

// quietForMembership reports whether a bounce may start: the last
// injection window closed long enough ago that residual timeouts
// drained, no NIC is dark, and no client view holds an exclusion — so
// no resync journal is pending anywhere, and a bounce's re-image never
// interleaves with a readmission.
func (st *runState) quietForMembership() bool {
	if st.now()-st.lastFaultClear < 2*st.cfg.Timeout {
		return false
	}
	for _, down := range st.nicDown {
		if down {
			return false
		}
	}
	for _, c := range st.clients {
		if c.cl == nil || len(c.cl.DownServers()) > 0 {
			return false
		}
	}
	return true
}
