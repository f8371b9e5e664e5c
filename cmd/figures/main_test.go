package main

import (
	"strings"
	"testing"
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
		{only: "Fig5A, ELASTIC", want: []string{"fig5a", "elastic"}},
		{only: " smallfile ,metadata,", want: []string{"smallfile", "metadata"}},
		{only: "nosuch", bad: "nosuch"},
		{only: "fig5a,nosuch", bad: "nosuch"},
		{only: "nosuch,fig5a,table1", bad: "nosuch"},
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
			want = experiments
		}
		if len(sel) != len(want) {
			t.Errorf("-only %q selects %d experiments, want %d", tc.only, len(sel), len(want))
		}
		for _, id := range want {
			if !sel[id] {
				t.Errorf("-only %q does not select %s", tc.only, id)
			}
		}
	}
}
