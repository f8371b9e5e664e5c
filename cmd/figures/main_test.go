package main

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/figures"
)

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		only string
		want []string // nil: every experiment
		bad  string   // non-empty: the id the error must name
	}{
		{only: ""},
		{only: " , "},
		{only: "fig5a", want: []string{"fig5a"}},
		{only: "ELASTIC, Fig5A", want: []string{"fig5a", "elastic"}},
		{only: " smallfile ,metadata,", want: []string{"smallfile", "metadata"}},
		{only: "nosuch", bad: "nosuch"},
		{only: "fig5a,nosuch", bad: "nosuch"},
		{only: "nosuch,fig5a,table1", bad: "nosuch"},
		{only: "scalability", bad: "scalability"},
	} {
		sel, err := selectExperiments(tc.only)
		if tc.bad != "" {
			if err == nil || !strings.Contains(err.Error(), `"`+tc.bad+`"`) || !strings.Contains(err.Error(), "fig1b, fig3b") {
				t.Errorf("-only %q: err = %v, want one naming %q and listing the valid ids", tc.only, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q: %v", tc.only, err)
			continue
		}
		want := tc.want
		if want == nil {
			want = idsOf(figures.Experiments)
		}
		if got := idsOf(sel); !slices.Equal(got, want) {
			t.Errorf("-only %q selects %v, want %v in print order", tc.only, got, want)
		}
	}
}

// TestRegistry: the registry is the one list of experiments. Its ids
// are unique, -only "" runs exactly it in its order, and DESIGN.md §6's
// -only column names exactly its ids.
func TestRegistry(t *testing.T) {
	reg := idsOf(figures.Experiments)
	seen := make(map[string]bool)
	for _, id := range reg {
		if seen[id] {
			t.Errorf("id %q registered twice", id)
		}
		seen[id] = true
	}
	sel, err := selectExperiments("")
	if err != nil {
		t.Fatal(err)
	}
	if got := idsOf(sel); !slices.Equal(got, reg) {
		t.Errorf(`-only "" selects %v, want the registry %v`, got, reg)
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, _ := strings.Cut(string(design), "## §6 Experiment index")
	index, _, _ = strings.Cut(index, "\n## ")
	var documented []string
	for _, line := range strings.Split(index, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "| ") {
			continue
		}
		for _, id := range strings.Split(cells[1], ",") {
			if id = strings.TrimSpace(id); id != "—" && id != "`-only` id" {
				documented = append(documented, id)
			}
		}
	}
	if !slices.Equal(documented, reg) {
		t.Errorf("DESIGN.md §6 lists -only ids %v, want the registry %v", documented, reg)
	}
}
