package figures

import "testing"

// TestScalabilityWindowSpeedup is the PR's acceptance bar: aggregate
// ORFS-direct throughput at window 8 must exceed the synchronous
// (window 1) baseline by at least 25%.
func TestScalabilityWindowSpeedup(t *testing.T) {
	c := DefaultConfig()
	base, err := c.msRun("orfs-direct", 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := c.msRun("orfs-direct", 1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wide.mbps < base.mbps*1.25 {
		t.Errorf("window 8 = %.1f MB/s, want >= 1.25x window 1 (%.1f MB/s)", wide.mbps, base.mbps)
	}
	t.Logf("orfs-direct: window 1 = %.1f MB/s, window 8 = %.1f MB/s (%.0f%%)",
		base.mbps, wide.mbps, 100*(wide.mbps/base.mbps-1))
}

// TestScalabilityBufferedAndNBDWindows: the other two scenarios must
// also gain from the window (readahead and queued block requests).
func TestScalabilityBufferedAndNBDWindows(t *testing.T) {
	c := DefaultConfig()
	for _, scen := range []string{"orfs-buffered", "nbd"} {
		base, err := c.msRun(scen, 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := c.msRun(scen, 1, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		if wide.mbps <= base.mbps {
			t.Errorf("%s: window 8 = %.1f MB/s not above window 1 = %.1f MB/s", scen, wide.mbps, base.mbps)
		}
	}
}

// TestWindowOneMatchesSynchronousClient: a window-1 session IS the
// synchronous protocol and adds zero simulated cost. The pin is what
// the same workload — one client reading its file in 64 KB requests —
// delivered through the bare synchronous client the session replaced,
// recorded on the last commit that had one (this is the property that
// keeps Fig 7(a)/7(b) bit-identical).
func TestWindowOneMatchesSynchronousClient(t *testing.T) {
	viaSession, err := DefaultConfig().msRun("orfs-direct", 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const syncMBps = 177.15353071722635
	if viaSession.mbps != syncMBps {
		t.Errorf("window-1 session %.9f MB/s != synchronous client %.9f MB/s", viaSession.mbps, syncMBps)
	}
}
