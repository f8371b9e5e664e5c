package figures

// Tests for the small-file suite: the layout-class acceptance bar
// (whole-on-home must beat striping once there is more than one
// server) and the zero-reconciliation audit built into sfcRun.

import "testing"

// TestSmallFileWholeBeatsStriped is the acceptance bar: at 4 and 8
// servers, whole-on-home creates must deliver more small-file ops/s
// than unhinted (striped) ones on the identical
// storm — and (audited inside sfcRun) with zero OpSetSize
// reconciliations. Short mode checks the 4-server point only.
func TestSmallFileWholeBeatsStriped(t *testing.T) {
	c := DefaultConfig()
	axis := []int{4, 8}
	if testing.Short() {
		axis = []int{4}
	}
	for _, servers := range axis {
		striped, err := c.sfcRun(false, servers)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := c.sfcRun(true, servers)
		if err != nil {
			t.Fatal(err)
		}
		if whole.opsPerSec <= striped.opsPerSec {
			t.Errorf("s=%d: whole-on-home %.0f ops/s, want > striped %.0f ops/s",
				servers, whole.opsPerSec, striped.opsPerSec)
		}
		if whole.setSizePerWrite != 0 {
			t.Errorf("s=%d: whole-on-home paid %.2f reconciliations/write, want 0",
				servers, whole.setSizePerWrite)
		}
		if striped.setSizePerWrite == 0 {
			t.Errorf("s=%d: striped storm paid no reconciliations — workload no longer exercises the fan", servers)
		}
		t.Logf("s=%d: striped %.0f ops/s (%.2f setsize/write), whole-on-home %.0f ops/s (%.2f setsize/write)",
			servers, striped.opsPerSec, striped.setSizePerWrite, whole.opsPerSec, whole.setSizePerWrite)
	}
}

// TestSmallFileOneServerPoliciesAgree: on a one-server cluster both
// classes place every byte on the one server, so both runs must
// produce identical throughput — the suite-level half of the
// bit-identity guarantee.
func TestSmallFileOneServerPoliciesAgree(t *testing.T) {
	c := DefaultConfig()
	striped, err := c.sfcRun(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := c.sfcRun(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if striped.opsPerSec != whole.opsPerSec {
		t.Errorf("1-server runs diverge: striped %.6f ops/s, whole-on-home %.6f ops/s",
			striped.opsPerSec, whole.opsPerSec)
	}
}
