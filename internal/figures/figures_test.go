package figures

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netpipe"
)

// TestMain pins the package's tests to one P, as cmd/figures pins
// itself: each test is one simulation with one runnable process.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// quick is a low-iteration config: the simulation is deterministic, so
// few round trips per point are exact enough for shape assertions.
func quick() Config { return Config{Iters: 4, Warmup: 1} }

func at(t *testing.T, s netpipe.Series, size int) netpipe.Point {
	t.Helper()
	for _, pt := range s.Points {
		if pt.Size == size {
			return pt
		}
	}
	t.Fatalf("series %q has no point at size %d", s.Label, size)
	return netpipe.Point{}
}

func us(pt netpipe.Point) float64 { return float64(pt.OneWay.Nanoseconds()) / 1000 }

func TestFig1bShape(t *testing.T) {
	t.Parallel()
	f, err := quick().Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	// 64KB = 16 pages: registration ≈ 49µs (3µs/page), dereg ≥ 200µs.
	reg := us(at(t, f.Series[2], 65536))
	if reg < 45 || reg > 55 {
		t.Errorf("registration of 64KB = %.1fµs, want ≈49", reg)
	}
	dereg := us(at(t, f.Series[3], 65536))
	if dereg < 200 {
		t.Errorf("deregistration = %.1fµs, want ≥200", dereg)
	}
	// Copying a 64KB buffer on the P4 beats register+deregister.
	copyP4 := us(at(t, f.Series[1], 65536))
	both := us(at(t, f.Series[4], 65536))
	if copyP4 >= both {
		t.Errorf("64KB copy (%.1fµs) should beat register+dereg (%.1fµs)", copyP4, both)
	}
	// At 256KB registration alone beats the P3 copy (reuse pays off).
	reg256 := us(at(t, f.Series[2], 262144))
	copyP3 := us(at(t, f.Series[0], 262144))
	if reg256 >= copyP3 {
		t.Errorf("256KB: registration (%.1fµs) should beat P3 copy (%.1fµs)", reg256, copyP3)
	}
}

func TestFig3bShape(t *testing.T) {
	t.Parallel()
	f, err := quick().Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	const n = 65536
	raw := at(t, f.Series[0], n).MBps
	orfa := at(t, f.Series[1], n).MBps
	orfs := at(t, f.Series[2], n).MBps
	nocache := at(t, f.Series[3], n).MBps
	if !(raw > orfa && orfa >= orfs*0.98) {
		t.Errorf("ordering violated: raw %.1f, ORFA %.1f, ORFS %.1f", raw, orfa, orfs)
	}
	drop := (orfs - nocache) / orfs
	if drop < 0.08 || drop > 0.35 {
		t.Errorf("no-cache drop = %.0f%% (cached %.1f, uncached %.1f), paper ≈20%%",
			drop*100, orfs, nocache)
	}
}

func TestFig4aShape(t *testing.T) {
	t.Parallel()
	f, err := quick().Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Series[0].Points {
		virt := f.Series[0].Points[i]
		phys := f.Series[1].Points[i]
		gain := virt.OneWay - phys.OneWay
		if gain < 500*time.Nanosecond || gain > 2*time.Microsecond {
			t.Errorf("size %d: physical gain %v, want ≈1µs", virt.Size, gain)
		}
	}
}

func TestFig4bShape(t *testing.T) {
	t.Parallel()
	f, err := quick().Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	direct, buffered := f.Series[0], f.Series[1]
	// Small requests: buffered wins (§3.3: "4 kB accesses are faster
	// through the page-cache").
	for _, n := range []int{512, 1024, 2048} {
		d, b := at(t, direct, n).MBps, at(t, buffered, n).MBps
		if b <= d {
			t.Errorf("size %d: buffered (%.1f) should beat direct (%.1f)", n, b, d)
		}
	}
	// Large requests: direct wins decisively.
	d, b := at(t, direct, 1<<20).MBps, at(t, buffered, 1<<20).MBps
	if d < 2*b {
		t.Errorf("1MB: direct (%.1f) should dominate buffered (%.1f)", d, b)
	}
}

func TestFig5aShape(t *testing.T) {
	t.Parallel()
	f, err := quick().Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	gmU := us(at(t, f.Series[0], 1))
	gmK := us(at(t, f.Series[1], 1))
	mxU := us(at(t, f.Series[2], 1))
	mxK := us(at(t, f.Series[3], 1))
	if gmU < 6.2 || gmU > 7.2 {
		t.Errorf("GM user = %.2fµs, want ≈6.7", gmU)
	}
	if d := gmK - gmU; d < 1.6 || d > 2.4 {
		t.Errorf("GM kernel penalty = %.2fµs, want ≈2", d)
	}
	if mxU < 3.8 || mxU > 4.7 {
		t.Errorf("MX user = %.2fµs, want ≈4.2", mxU)
	}
	if d := mxK - mxU; d < -0.3 || d > 0.3 {
		t.Errorf("MX kernel-user gap = %.2fµs, want ≈0", d)
	}
}

func TestFig5bShape(t *testing.T) {
	t.Parallel()
	f, err := quick().Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	gm := at(t, f.Series[0], 1<<20).MBps
	mxu := at(t, f.Series[1], 1<<20).MBps
	mxkp := at(t, f.Series[2], 1<<20).MBps
	for _, v := range []float64{gm, mxu, mxkp} {
		if v < 215 || v > 252 {
			t.Errorf("1MB bandwidth %.1f outside the ≈245 MB/s regime", v)
		}
	}
	if mxkp <= mxu {
		t.Errorf("kernel-physical (%.1f) should exceed user (%.1f) for large messages", mxkp, mxu)
	}
	// GM leads at page-size messages (registration-cache reuse).
	if gm4, mx4 := at(t, f.Series[0], 4096).MBps, at(t, f.Series[1], 4096).MBps; gm4 <= mx4 {
		t.Errorf("4KB: GM (%.1f) should lead MX user (%.1f)", gm4, mx4)
	}
}

func TestFig6Shape(t *testing.T) {
	t.Parallel()
	f, err := quick().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	std := at(t, f.Series[1], 32768).MBps
	noSend := at(t, f.Series[2], 32768).MBps
	noCopy := at(t, f.Series[3], 32768).MBps
	if g := (noSend - std) / std; g < 0.12 || g > 0.25 {
		t.Errorf("no-send-copy gain %.0f%%, want ≈17%%", g*100)
	}
	if g := (noCopy - noSend) / noSend; g < 0.10 || g > 0.30 {
		t.Errorf("no-copy extra gain %.0f%%, want ≈15%%", g*100)
	}
	// The rendezvous regime starts below the no-copy medium peak.
	large := at(t, f.Series[3], 65536).MBps
	if large >= noCopy {
		t.Errorf("64KB large-message point (%.1f) should dip below the 32KB no-copy peak (%.1f)",
			large, noCopy)
	}
}

func TestFig7aShape(t *testing.T) {
	t.Parallel()
	f, err := quick().Fig7a()
	if err != nil {
		t.Fatal(err)
	}
	gmD := at(t, f.Series[1], 1<<20).MBps
	mxD := at(t, f.Series[3], 1<<20).MBps
	// "Direct file accesses on MX are slightly better than over GM."
	if mxD < gmD*0.95 {
		t.Errorf("ORFS/MX direct (%.1f) should be at least ≈ ORFS/GM (%.1f)", mxD, gmD)
	}
	if mxD > gmD*1.35 {
		t.Errorf("ORFS/MX direct (%.1f) suspiciously far above ORFS/GM (%.1f)", mxD, gmD)
	}
}

func TestFig7bShape(t *testing.T) {
	t.Parallel()
	f, err := quick().Fig7b()
	if err != nil {
		t.Fatal(err)
	}
	gmB := at(t, f.Series[1], 1<<20).MBps
	mxB := at(t, f.Series[3], 1<<20).MBps
	gain := (mxB - gmB) / gmB
	if gain < 0.25 || gain > 0.55 {
		t.Errorf("buffered MX gain = %.0f%% (GM %.1f, MX %.1f), paper ≈40%%", gain*100, gmB, mxB)
	}
	// Buffered plateaus below raw bandwidth (page-sized requests).
	raw := at(t, f.Series[0], 1<<20).MBps
	if gmB > raw/2 {
		t.Errorf("ORFS/GM buffered (%.1f) should sit well below raw GM (%.1f)", gmB, raw)
	}
}

func TestFig8Shapes(t *testing.T) {
	t.Parallel()
	fa, err := quick().Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	gm1 := us(at(t, fa.Series[0], 1))
	mx1 := us(at(t, fa.Series[1], 1))
	if mx1 < 4.5 || mx1 > 5.8 {
		t.Errorf("Sockets-MX 1B = %.2fµs, want ≈5", mx1)
	}
	if gm1 < 13 || gm1 > 17 {
		t.Errorf("Sockets-GM 1B = %.2fµs, want ≈15", gm1)
	}
	fb, err := quick().Fig8b()
	if err != nil {
		t.Fatal(err)
	}
	gmBW := at(t, fb.Series[0], 1<<20).MBps
	mxBW := at(t, fb.Series[1], 1<<20).MBps
	if gmBW > 0.72*500 {
		t.Errorf("Sockets-GM 1MB = %.1f MB/s, should be <70%% of the link", gmBW)
	}
	if g := (mxBW - gmBW) / gmBW; g < 0.25 {
		t.Errorf("Sockets-MX 1MB gain = %.0f%%, want ≈50%%", g*100)
	}
	// Every size: MX ≥ GM.
	for i := range fb.Series[0].Points {
		if fb.Series[1].Points[i].MBps < fb.Series[0].Points[i].MBps {
			t.Errorf("size %d: Sockets-MX (%.1f) below Sockets-GM (%.1f)",
				fb.Series[0].Points[i].Size, fb.Series[1].Points[i].MBps, fb.Series[0].Points[i].MBps)
		}
	}
}

func TestTable1Builds(t *testing.T) {
	t.Parallel()
	tab, err := quick().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("table has %d rows, want 5", len(tab.Rows))
	}
	text := tab.Render()
	for _, want := range []string{"Kernel latency", "Buffered remote file access",
		"0-copy socket latency", "GM", "MX"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestFigureRender(t *testing.T) {
	t.Parallel()
	f := &Figure{
		ID: "figX", Title: "test", XLabel: "x", YLabel: "latency (µs)",
		Series: []netpipe.Series{{
			Label:  "s1",
			Points: []netpipe.Point{{Size: 1, OneWay: 1500, MBps: 0.5}},
		}},
		Expected: "something",
	}
	out := f.Render(f.Latency())
	for _, want := range []string{"figX", "s1", "1.50µs", "paper: something"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if !f.Latency() {
		t.Error("Latency() should detect µs axis")
	}
}

func TestRunPingPongNames(t *testing.T) {
	t.Parallel()
	if _, err := RunPingPong("bogus", netpipe.UserBuf, 0, []int{1}, quick()); err == nil {
		t.Error("unknown transport accepted")
	}
	pts, err := RunPingPong("mx", netpipe.UserBuf, 0, []int{1, 2}, quick())
	if err != nil || len(pts) != 2 {
		t.Errorf("RunPingPong: %v %v", pts, err)
	}
}
