package main

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestExperimentsMatchRegistry: every block of EXPERIMENTS.md is its
// experiment's text at the default settings, byte for byte, and every
// registered experiment has exactly one block.
func TestExperimentsMatchRegistry(t *testing.T) {
	runtime.GOMAXPROCS(1)
	old, err := os.ReadFile("../../" + doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := render()
	if err != nil {
		t.Fatal(err)
	}
	_, changed, err := splice(string(old), want)
	if err != nil {
		t.Fatalf("%s: %v", doc, err)
	}
	for _, id := range changed {
		t.Errorf("%s: block %s differs from `go run ./cmd/figures -only %s`; run `go run ./tools/experiments`", doc, id, id)
	}
}

// block renders one generated block as a document holds it.
func block(id, text string) string {
	return "<!-- begin " + id + " -->\n```\n" + text + "```\n<!-- end " + id + " -->\n"
}

var fixture = map[string]string{
	"fig5a":   "== fig5a ==\n  1  4.35µs\n\n",
	"elastic": "| phase | MB/s |\n| pre-kill | 733.1 |\n\n",
}

// prose is text outside the blocks that looks like their parts without
// being a marker line.
const prose = "# Record\n\nA ```fence``` and <!-- begin fig5a --> mid-line.\n<!-- begin two words -->\n\n"

func TestSplice(t *testing.T) {
	current := prose + block("fig5a", fixture["fig5a"]) + "between\n" + block("elastic", fixture["elastic"]) + "tail\n"
	for _, tc := range []struct {
		name    string
		doc     string
		changed []string // ids the splice rewrites
		bad     string   // non-empty: how the error must begin, naming the id
	}{
		{name: "current", doc: current},
		{name: "one changed byte",
			doc:     strings.Replace(current, "733.1", "733.2", 1),
			changed: []string{"elastic"}},
		{name: "empty blocks",
			doc:     prose + "<!-- begin fig5a -->\n<!-- end fig5a -->\nbetween\n" + block("elastic", "stale\n") + "tail\n",
			changed: []string{"fig5a", "elastic"}},
		{name: "missing block", doc: prose + block("fig5a", fixture["fig5a"]), bad: "elastic: no block"},
		{name: "unknown id", doc: current + block("scalability", "== scal-window ==\n"), bad: "scalability: block for an id the registry"},
		{name: "duplicated block", doc: current + block("fig5a", fixture["fig5a"]), bad: "fig5a: second block"},
		{name: "no end marker", doc: prose + block("elastic", fixture["elastic"]) + "<!-- begin fig5a -->\n", bad: "fig5a: block has no end"},
		{name: "end outside its block", doc: current + "<!-- end elastic -->\n", bad: "elastic: end marker outside"},
		{name: "nested blocks", doc: "<!-- begin fig5a -->\n<!-- begin elastic -->\n", bad: "elastic: block begins inside the block of fig5a"},
	} {
		out, changed, err := splice(tc.doc, fixture)
		if tc.bad != "" {
			if err == nil || !strings.HasPrefix(err.Error(), tc.bad) {
				t.Errorf("%s: err = %v, want %q…", tc.name, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !slices.Equal(changed, tc.changed) {
			t.Errorf("%s: rewrote %v, want %v", tc.name, changed, tc.changed)
		}
		if out != current {
			t.Errorf("%s: spliced document\n%q\nwant\n%q", tc.name, out, current)
		}
		again, changed, err := splice(out, fixture)
		if err != nil || again != out || changed != nil {
			t.Errorf("%s: second splice rewrote %v (err %v); want the same document", tc.name, changed, err)
		}
	}
}
