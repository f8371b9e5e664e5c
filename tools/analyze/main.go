// Command analyze is the repository's invariant analyzer suite: a
// vet-style static-analysis driver (DESIGN.md §14) with six
// repo-specific analyzers, each guarding an invariant that is
// otherwise only checked at runtime, after the bug has happened:
//
//   - simdeterminism: sim-driven packages must stay bit-deterministic
//     (no wall clock, no global math/rand, no map-iteration order
//     feeding schedules or wire traffic) so one-line torture seed
//     replay keeps working.
//   - poolpair: every pooled acquisition (fabric.Pool.Get, server
//     work records, NIC fragment records) reaches its release on all
//     paths — the static complement of fabric.Pool.CheckLeaks.
//   - opexhaustive: protocol op and status tables stay fully wired —
//     every Op* constant appears in each annotated dispatch surface,
//     every St* status maps to a typed error.
//   - lockorder: the declared lock acquisition order holds, locks are
//     not re-entered, and nothing sends on a channel while holding
//     one.
//   - allocfree: functions annotated //allocfree contain no
//     allocating constructs, turning the alloc gate's count
//     regression into a pinpointed diagnostic.
//   - boundedwait: a Wait on a fabric operation in the networked
//     packages (rfsrv, nbd, orfs, orfa) is timed, or carries the
//     reason it ends — a dead peer must not block a process forever.
//
// Like tools/doccheck it is implemented with the standard library
// only (go/parser + go/types, stdlib imports type-checked from
// GOROOT source), so the container needs no extra modules.
//
// Usage:
//
//	go run ./tools/analyze ./...
//	go run ./tools/analyze -run poolpair,opexhaustive ./internal/rfsrv
//
// A finding is suppressed by a baseline comment on the offending
// line or the line above it:
//
//	//analyze:allow <analyzer> <reason>
//
// The reason is mandatory; an allow comment without one is itself a
// finding. Exit status is 1 if any finding survives, 2 on load
// errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: analyze [-run names] <package dir or ./...>...")
		os.Exit(2)
	}
	selected, err := selectAnalyzers(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(2)
	}
	mod, root, err := findModule(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(2)
	}
	dirs, err := expandPatterns(root, wd, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(2)
	}
	ld := newLoader(mod, root)
	findings, broken := runAnalyzers(ld, dirs, selected)
	for _, f := range findings {
		fmt.Printf("%s: [%s] %s\n", f.Pos, f.Analyzer, f.Msg)
	}
	if broken {
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "analyze: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// runAnalyzers loads every target directory and applies the selected
// analyzers, returning the surviving findings sorted by position.
// broken reports load or parse failures (printed to stderr), which
// are distinct from findings.
func runAnalyzers(ld *loader, dirs []string, selected []*Analyzer) (findings []Finding, broken bool) {
	for _, dir := range dirs {
		pass, err := ld.load(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "analyze: %s: %v\n", dir, err)
			broken = true
			continue
		}
		for _, a := range selected {
			pass.analyzer = a
			a.Run(pass)
		}
		findings = append(findings, pass.findings...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, broken
}

// selectAnalyzers resolves the -run flag against the registry.
func selectAnalyzers(csv string) ([]*Analyzer, error) {
	if csv == "" {
		return analyzers, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(csv, ",") {
		found := false
		for _, a := range analyzers {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}

// findModule walks up from dir to the enclosing go.mod and returns
// the module path and root directory.
func findModule(dir string) (mod, root string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return strings.TrimSpace(rest), d, nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// expandPatterns turns command-line package patterns (./..., ./dir)
// into a sorted list of directories containing non-test Go files.
// testdata and hidden directories are skipped, exactly like the go
// tool's ./... expansion.
func expandPatterns(root, wd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(wd, base)
		}
		if !recursive {
			if !hasGoFiles(base) {
				return nil, fmt.Errorf("%s: no Go files", pat)
			}
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	_ = root
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test Go source file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
