package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	r := New()
	top := r.Begin(-1, "top", "ladder", 1, 100)
	r.End(top, 1100)
	mid := r.Begin(top, "mid", "ladder", 1, 0)
	r.End(mid, 700)
	leafA := r.Begin(mid, "a", "ladder", 1, 0)
	r.End(leafA, 400)
	leafB := r.Begin(mid, "b", "ladder", 1, 0)
	r.End(leafB, 350)
	self := r.SelfTimes()
	if self[top] != 300 || self[mid] != -50 || self[leafA] != 400 || self[leafB] != 350 {
		t.Errorf("self times %v, want [300 -50 400 350]", self)
	}
	var sum int64
	for _, s := range self {
		sum += int64(s)
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, the top span lasts 1000", sum)
	}
}

func TestWriteChromeIsValidJSONOnBothClocks(t *testing.T) {
	r := New()
	r.End(r.Begin(-1, "read", "read", 3, 5000), 9000)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans++
		if e.Name != "read" || e.Tid != 3 {
			t.Errorf("event %+v", e)
		}
		if e.Pid == 1 && (e.Ts != 5 || e.Dur != 4) {
			t.Errorf("virtual clock event at %v for %v us, want 5 for 4", e.Ts, e.Dur)
		}
	}
	if spans != 2 {
		t.Errorf("%d complete events, want one per clock", spans)
	}
	r.Reset()
	if len(r.Spans) != 0 {
		t.Error("Reset kept spans")
	}
}
