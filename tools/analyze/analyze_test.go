package main

// Fixture tests: each analyzer runs over a small module rooted at
// testdata/src/<analyzer>/, whose packages carry `// want "substr"`
// expectations on the lines where findings must appear (and stand-in
// packages for the real sim/fabric/hw types, which the analyzers
// match by name exactly so these fixtures work).

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/tools/internal/fixture"
)

// runFixture loads the named packages of the analyzer's fixture
// module, applies just that analyzer, and checks the findings against
// the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, pkgs ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", a.Name))
	if err != nil {
		t.Fatal(err)
	}
	ld := newLoader("fixture", root)
	var got []fixture.Diag
	for _, pkg := range pkgs {
		pass, err := ld.load(filepath.Join(root, pkg))
		if err != nil {
			t.Fatalf("loading fixture package %s: %v", pkg, err)
		}
		pass.analyzer = a
		a.Run(pass)
		for _, f := range pass.findings {
			got = append(got, fixture.Diag{File: f.Pos.Filename, Line: f.Pos.Line, Msg: f.Msg})
		}
	}
	fixture.Check(t, root, got)
}

func TestSimDeterminism(t *testing.T) { runFixture(t, simDeterminism, "sim") }

func TestPoolPair(t *testing.T) { runFixture(t, poolPair, "a", "hw", "rfsrv", "serveskip") }

func TestOpExhaustive(t *testing.T) { runFixture(t, opExhaustive, "a", "rfsrv") }

func TestLockOrder(t *testing.T) { runFixture(t, lockOrder, "a", "b") }

func TestAllocFree(t *testing.T) { runFixture(t, allocFree, "a") }

func TestBoundedWait(t *testing.T) { runFixture(t, boundedWait, "rfsrv", "other") }

// TestAllowRequiresReason: a bare //analyze:allow with no reason is
// itself a finding, recorded when the package loads (no analyzer has
// to run).
func TestAllowRequiresReason(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "allowreason"))
	if err != nil {
		t.Fatal(err)
	}
	ld := newLoader("fixture", root)
	pass, err := ld.load(filepath.Join(root, "a"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pass.findings) != 1 {
		t.Fatalf("got %d findings at load time, want exactly 1", len(pass.findings))
	}
	if !strings.Contains(pass.findings[0].Msg, "without a reason") {
		t.Fatalf("finding %q does not explain the missing reason", pass.findings[0].Msg)
	}
}

// TestSelectAnalyzers covers the -run flag resolution.
func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) != len(analyzers) {
		t.Fatalf("empty selection: got %d analyzers, err %v", len(all), err)
	}
	two, err := selectAnalyzers("poolpair,lockorder")
	if err != nil || len(two) != 2 || two[0].Name != "poolpair" || two[1].Name != "lockorder" {
		t.Fatalf("named selection failed: %v, err %v", two, err)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("unknown analyzer name must be an error")
	}
}
