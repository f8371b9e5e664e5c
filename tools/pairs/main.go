// Command pairs compares two commits on the repository benchmark over
// paired runs: it builds ./bench from a base tree and a head tree, runs
// both on the same seeds, alternating which goes first (odd seeds base
// first, even seeds head first), reads every run's report through
// bench/metrics, and prints one markdown table per workload that is
// ready for EXPERIMENTS.md.
//
// Usage:
//
//	go run ./tools/pairs -base <rev|dir> [-head <rev|dir>] [-workload W] [-seeds 1-10] -- [bench flags]
//	go run ./tools/pairs -same [-head <rev|dir>] [-workload W] [-seeds 1-3] -- [bench flags]
//
// For example, `go run ./tools/pairs -base HEAD~1 -workload meta_storm
// -- -trace 0 -reps 7`. A revision is checked out with `git worktree
// add` into a temporary directory, removed afterwards; a directory is
// taken as a checkout to build from as it is. The head defaults to the
// module the command runs in, found by walking up to its go.mod; git is
// needed only to check out a revision, so two directories compare
// outside any git checkout. The module has no dependencies, so the
// builds need no network.
//
// Per workload and metric of BENCHMARK.json, the table gives the base
// median with its first and third quartile over the seeds, the head
// median, the change of the median in percent, the seeds on which the
// head is strictly better (wins/n), and the exact two-sided sign-test p
// over the seeds that differ. A seed repeats its virtual values exactly,
// so it is a perfect pairing and the sign test needs no noise model
// (Kalibera & Jones, "Rigorous Benchmarking in Reasonable Time", ISMM
// 2013, for the repetition design). A row whose head median is worse
// than the base median in the metric's direction (BENCHMARK.json's
// better) is marked **worse**; host rows are reported, never gated.
//
// -same runs the head binary twice per seed instead and fails unless
// every virtual value repeats exactly: a determinism check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/bench/metrics"
)

func main() {
	base := flag.String("base", "", "base revision, or a directory holding a checkout")
	head := flag.String("head", "", "head revision, or a directory holding a checkout (default: the working tree)")
	workload := flag.String("workload", "", "workload to run (default: all five)")
	seeds := flag.String("seeds", "1-10", "seeds to pair: a range a-b or a comma list")
	same := flag.Bool("same", false, "run the head twice per seed and require identical virtual values")
	flag.Parse()
	if err := run(*base, *head, *workload, *seeds, *same, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func run(base, head, workload, seedList string, same bool, benchArgs []string, out io.Writer) error {
	if base == "" && !same {
		return fmt.Errorf("-base is required (or -same)")
	}
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return err
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	defs, err := loadDefs(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "pairs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if head == "" {
		head = root
	}
	headBin, err := build(root, tmp, "head", head)
	if err != nil {
		return err
	}
	baseBin, baseName := headBin, "head"
	if !same {
		if baseBin, err = build(root, tmp, "base", base); err != nil {
			return err
		}
		baseName = base
	}
	var pairs []pair
	for _, seed := range seeds {
		runs := [2]string{baseBin, headBin}
		order := []int{0, 1}
		if seed%2 == 0 {
			order = []int{1, 0}
		}
		var got [2]*metrics.Report
		for _, side := range order {
			fmt.Fprintf(os.Stderr, "pairs: seed %d, %s\n", seed, [2]string{"base", "head"}[side])
			if got[side], err = bench(runs[side], tmp, workload, seed, benchArgs); err != nil {
				return err
			}
		}
		pairs = append(pairs, pair{seed: seed, base: got[0], head: got[1]})
	}
	if same {
		return checkSame(pairs, out)
	}
	headName := head
	if head == root {
		headName = "working tree"
	}
	fmt.Fprintf(out, "Paired runs: base %s, head %s, seeds %s, bench flags %q.\n\n", baseName, headName, seedList, strings.Join(benchArgs, " "))
	for _, w := range tables(pairs, defs) {
		fmt.Fprint(out, w)
	}
	return nil
}

// moduleRoot returns the nearest directory at or above the working
// directory that holds a go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory")
		}
		dir = up
	}
}

// build compiles ./bench of the tree src — a directory, or a revision
// checked out with git worktree under tmp — into tmp/name.
func build(root, tmp, name, src string) (string, error) {
	dir := src
	if fi, err := os.Stat(src); err != nil || !fi.IsDir() {
		dir = filepath.Join(tmp, name+"-tree")
		if _, err := gitOut(root, "worktree", "add", "--detach", dir, src); err != nil {
			return "", err
		}
		defer gitOut(root, "worktree", "remove", "--force", dir)
	}
	bin := filepath.Join(tmp, name+"-bench")
	cmd := exec.Command("go", "build", "-o", bin, "./bench")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building %s's bench in %s: %w", name, dir, err)
	}
	return bin, nil
}

// bench runs one benchmark binary at seed and returns its report.
func bench(bin, tmp, workload string, seed int64, extra []string) (*metrics.Report, error) {
	file := filepath.Join(tmp, "report.json")
	args := []string{"-seed", strconv.FormatInt(seed, 10), "-json", file}
	if workload != "" {
		args = append(args, "-workload", workload)
	}
	cmd := exec.Command(bin, append(args, extra...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s: %w", bin, strings.Join(cmd.Args[1:], " "), err)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var r metrics.Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &r, nil
}

func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// parseSeeds reads "a-b" or "a,b,c".
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.ParseInt(lo, 10, 64)
		b, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || a > b {
			return nil, fmt.Errorf("bad seed range %q", s)
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
		return out, nil
	}
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// loadDefs reads BENCHMARK.json's metric lists, end to end first.
func loadDefs(path string) ([]metrics.Def, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metrics.Def `json:"end_to_end"`
		PerLayer []metrics.Def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(b.EndToEnd, b.PerLayer...), nil
}
