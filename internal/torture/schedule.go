package torture

// The fault schedule: a proc driven by its own seed stream that
// kills, stalls and revives server NICs while the op storm runs. In
// ModeData every injection is vetted against the replication
// envelope: a victim is only struck if afterwards every owner group
// still has a reachable member in EVERY client's exclusion view — so
// every generated operation must succeed and the model stays exact.
// ModeNS drops that vet and adds whole-group strikes, deliberately
// driving operations into fault and in-doubt outcomes.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

func (st *runState) schedule(p *sim.Proc) {
	rng := rand.New(rand.NewSource(st.cfg.ScheduleSeed))
	for st.stormLive > 0 && !st.failed() {
		p.Sleep(time.Duration(300+rng.Intn(1700)) * time.Microsecond)
		if st.stormLive == 0 || st.failed() {
			break
		}
		if st.memberBusy {
			continue // a membership bounce owns the cluster right now
		}
		if st.cfg.Mode == ModeNS && rng.Intn(100) < 40 {
			st.injectStrike(p, rng)
			continue
		}
		victim := st.pickVictim(rng)
		if victim < 0 {
			st.skippedFaults++
			continue
		}
		if rng.Intn(100) < 60 {
			st.injectKill(p, rng, victim)
		} else {
			st.injectStall(p, rng, victim)
		}
		// Quarantine: let timeouts fire and exclusions stabilize before
		// the next injection, so the one-fault-at-a-time envelope audit
		// in pickVictim sees settled state.
		p.Sleep(st.cfg.Timeout + 300*time.Microsecond)
	}
	// Leave nothing dark behind (the master revives again, but a
	// schedule that exits mid-dwell should clean up after itself).
	for i, n := range st.rig.Nodes {
		if st.nicDown[i] {
			n.NIC.Revive()
			st.nicDown[i] = false
		}
	}
}

// pickVictim chooses a NIC to strike. In ModeData it must keep every
// owner group reachable in every client's view even after the strike;
// ModeNS only avoids double-striking a NIC that is already dark.
func (st *runState) pickVictim(rng *rand.Rand) int {
	for _, v := range rng.Perm(st.cfg.Servers) {
		if st.nicDown[v] {
			continue
		}
		if st.cfg.Mode == ModeData && !st.victimSafe(v) {
			continue
		}
		return v
	}
	return -1
}

// victimSafe reports whether striking v keeps the replication
// envelope: no owner group fully covered by any client's exclusions
// plus the dark NICs plus v.
func (st *runState) victimSafe(v int) bool {
	var dark uint64 = 1 << uint(v)
	for s, down := range st.nicDown {
		if down {
			dark |= 1 << uint(s)
		}
	}
	for _, c := range st.clients {
		excl := dark | c.downBits()
		for res := 0; res < st.cfg.Servers; res++ {
			mask := c.groupMask(res)
			if excl&mask == mask {
				return false
			}
		}
	}
	return true
}

// noteFault registers a fault event for recovery-latency sampling and
// logs it into the trace.
func (st *runState) noteFault(kind string, victims []int, note string) {
	st.faults = append(st.faults, &faultEvent{
		at:      st.now(),
		victims: victims,
		kind:    kind,
		sampled: make([]bool, len(st.clients)),
	})
	st.record(OpRecord{Client: -1, Kind: OpFault, Note: note})
	st.logf("t=%v schedule: %s", st.now(), note)
}

func (st *runState) injectKill(p *sim.Proc, rng *rand.Rand, v int) {
	dwell := time.Duration(500+rng.Intn(1500)) * time.Microsecond
	st.nicDown[v] = true
	st.rig.Nodes[v].NIC.Kill()
	st.kills++
	st.noteFault("kill", []int{v}, fmt.Sprintf("kill %d for %v", v, dwell))
	p.Sleep(dwell)
	st.rig.Nodes[v].NIC.Revive()
	st.nicDown[v] = false
	st.lastFaultClear = st.now()
}

func (st *runState) injectStall(p *sim.Proc, rng *rand.Rand, v int) {
	// Longer than the reply deadline: the stall must be observable as
	// a timeout, and the late frames it releases afterwards exercise
	// the retired-slot paths.
	d := st.cfg.Timeout + time.Duration(500+rng.Intn(1500))*time.Microsecond
	st.nicDown[v] = true
	st.rig.Nodes[v].NIC.StallFor(d)
	st.stalls++
	st.noteFault("stall", []int{v}, fmt.Sprintf("stall %d for %v", v, d))
	p.Sleep(d)
	st.nicDown[v] = false
	st.lastFaultClear = st.now()
}

// injectStrike downs a whole owner group at once (ModeNS): operations
// on its directories must fail — instantly when the group was already
// excluded client-side, as a Maybe outcome otherwise.
func (st *runState) injectStrike(p *sim.Proc, rng *rand.Rand) {
	res := rng.Intn(st.cfg.Servers)
	members := st.groupOf(res)
	victims := members[:0:0]
	for _, m := range members {
		if !st.nicDown[m] {
			victims = append(victims, m)
		}
	}
	if len(victims) == 0 {
		st.skippedFaults++
		return
	}
	dwell := time.Duration(700+rng.Intn(1800)) * time.Microsecond
	for _, m := range victims {
		st.nicDown[m] = true
		st.rig.Nodes[m].NIC.Kill()
	}
	st.strikes++
	st.noteFault("strike", victims, fmt.Sprintf("strike group %d (servers %v) for %v", res, victims, dwell))
	p.Sleep(dwell)
	for _, m := range victims {
		st.rig.Nodes[m].NIC.Revive()
		st.nicDown[m] = false
	}
	st.lastFaultClear = st.now()
	p.Sleep(st.cfg.Timeout + 300*time.Microsecond)
}
