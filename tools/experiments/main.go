// Command experiments rewrites EXPERIMENTS.md's generated blocks. Every
// experiment of figures.Experiments runs at figures.DefaultConfig(), and
// its text — exactly what `go run ./cmd/figures -only <id>` prints —
// replaces the fenced block between its id's markers:
//
//	<!-- begin <id> -->
//	```
//	<the text>
//	```
//	<!-- end <id> -->
//
// Nothing outside the markers changes. Run it from the repository root
// after a change that moves a simulated number, and commit the diff it
// leaves: that diff is the change's record of every number it moved.
//
//	go run ./tools/experiments
//
// TestExperimentsMatchRegistry runs the same experiments and fails when
// a block differs from its experiment's text, is missing, is duplicated
// or names an id the registry does not have.
package main

import (
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/figures"
)

const doc = "EXPERIMENTS.md"

func main() {
	// One simulated process is runnable at any instant: extra Ps only
	// add futex wake-ups between threads, as in cmd/figures.
	runtime.GOMAXPROCS(1)
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	old, err := os.ReadFile(doc)
	if err != nil {
		return err
	}
	want, err := render()
	if err != nil {
		return err
	}
	out, changed, err := splice(string(old), want)
	if err != nil {
		return fmt.Errorf("%s: %w", doc, err)
	}
	fmt.Printf("experiments: %d block(s) rewritten %v\n", len(changed), changed)
	return os.WriteFile(doc, []byte(out), 0o644)
}

// render runs every registered experiment at the default settings and
// returns each one's text by id.
func render() (map[string]string, error) {
	want := make(map[string]string)
	for _, e := range figures.Experiments {
		text, err := e.Run(figures.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		want[e.ID] = text
	}
	return want, nil
}

// splice returns doc with every block's content replaced by its
// experiment's fenced text, and the ids, in document order, whose block
// that changed. It refuses markers that do not pair up, a block for an
// id want lacks, a second block for one id, and an id of want with no
// block; each error names the id.
func splice(doc string, want map[string]string) (string, []string, error) {
	var out strings.Builder
	var changed []string
	seen := make(map[string]bool)
	lines := strings.SplitAfter(doc, "\n")
	open, start := "", 0 // the block being read, and its first body line
	for i, line := range lines {
		if id, ok := marker(line, "begin"); ok {
			switch _, known := want[id]; {
			case open != "":
				return "", nil, fmt.Errorf("%s: block begins inside the block of %s", id, open)
			case !known:
				return "", nil, fmt.Errorf("%s: block for an id the registry does not have", id)
			case seen[id]:
				return "", nil, fmt.Errorf("%s: second block for one id", id)
			}
			seen[id], open, start = true, id, i+1
		} else if id, ok := marker(line, "end"); ok {
			if id != open {
				return "", nil, fmt.Errorf("%s: end marker outside its block", id)
			}
			text := "```\n" + want[id] + "```\n"
			if strings.Join(lines[start:i], "") != text {
				changed = append(changed, id)
			}
			out.WriteString(text)
			open = ""
		} else if open != "" {
			continue
		}
		out.WriteString(line)
	}
	if open != "" {
		return "", nil, fmt.Errorf("%s: block has no end marker", open)
	}
	for _, id := range slices.Sorted(maps.Keys(want)) {
		if !seen[id] {
			return "", nil, fmt.Errorf("%s: no block; add its two marker lines where it belongs", id)
		}
	}
	return out.String(), changed, nil
}

// marker reports whether line is the begin or end marker of a block,
// and of which id.
func marker(line, kind string) (string, bool) {
	rest, ok := strings.CutPrefix(strings.TrimRight(line, "\r\n"), "<!-- "+kind+" ")
	if !ok {
		return "", false
	}
	id, ok := strings.CutSuffix(rest, " -->")
	return id, ok && id != "" && !strings.Contains(id, " ")
}
