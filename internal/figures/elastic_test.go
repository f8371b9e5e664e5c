package figures

// Tests for the elastic-membership suite: the PR's acceptance bar —
// kill -> heal -> journaled-replay re-admission -> live Join N->N+1
// under load, with post-expansion throughput >= 0.9x pre-kill.

import "testing"

// TestElasticLifecycle runs the full lifecycle and requires: every
// exclusion re-admitted by journal replay, taking virtual time, dirty
// bytes actually replayed to the healed victim, the Join's
// stripe migration moved data but copied each dirty byte once, the
// view cut over to N+1 members at a fresh epoch, and the expanded
// cluster serving at >= 0.9x the pre-kill rate.
func TestElasticLifecycle(t *testing.T) {
	c := DefaultConfig()
	base, err := c.elRun(0)
	if err != nil {
		t.Fatal(err)
	}
	timeout := base.maxLat * 5 / 2
	res, err := c.elRun(timeout)
	if err != nil {
		t.Fatalf("elastic run with deadline %v: %v", timeout, err)
	}
	if res.failovers == 0 {
		t.Error("no failovers recorded across the victim's dark window")
	}
	if res.reinstates == 0 {
		t.Error("no reinstates recorded; the healed victim was never re-admitted")
	}
	if res.meanReadmission() <= 0 {
		t.Errorf("readmissions took %v in all; a replay crosses the wire", res.reinstateTime)
	}
	if res.resyncBytes == 0 {
		t.Error("no resync bytes replayed; the overwrites missed during exclusion should be journaled dirty data")
	}
	if res.migratedBytes == 0 {
		t.Error("join migrated no bytes; the joiner owns stripes under the new placement")
	}
	// The Join copies the delta once and then each dirty byte once: at
	// most one more copy of every file's bytes on top of the delta, so
	// never twice the bytes the clients' files hold. A live pass that
	// re-copies the same hot stripes over and over breaks this.
	if files := int64(elClients * elStripes * msStripe); res.migratedBytes > 2*files {
		t.Errorf("join migrated %d KB, over twice the %d KB the files hold: dirty stripes were copied more than once",
			res.migratedBytes/1024, files/1024)
	}
	if res.epoch == 0 {
		t.Error("membership epoch did not advance across the join")
	}
	if len(res.members) != elActive+1 {
		t.Errorf("members = %v after join, want %d slots", res.members, elActive+1)
	}
	pre, degraded, post, _, _ := elPhases(res, timeout)
	if degraded <= 0 {
		t.Error("degraded phase moved no data; the surviving members should keep serving")
	}
	if post < pre*0.9 {
		t.Errorf("post-expansion throughput %.1f MB/s < 0.9x pre-kill %.1f MB/s", post, pre)
	}
	t.Logf("pre %.1f MB/s, degraded %.1f (%.2fx), post-expansion %.1f (%.2fx); %d reinstates, %d B replayed, %d KB migrated, epoch %d members %v",
		pre, degraded, degraded/pre, post, post/pre,
		res.reinstates, res.resyncBytes, res.migratedBytes/1024, res.epoch, res.members)
}
