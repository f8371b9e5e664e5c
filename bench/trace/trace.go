// Package trace is the benchmark's span recorder. The program under
// test has no tracing of its own yet, so every span is recorded from
// the benchmark's side of a public call: one root span per workload
// operation (id = op sequence, its class, start and end on both
// clocks) and, in the layer ladder, one span per rung with the rung
// above as parent. Spans stay in memory and are written once, at exit,
// as Chrome trace-event JSON.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
)

// Span is one recorded interval on both clocks.
type Span struct {
	ID     int
	Parent int // -1 for a root span
	Name   string
	Class  string
	Track  int // the simulated client (Chrome "tid")
	VStart sim.Time
	VEnd   sim.Time
	HStart time.Duration // host time since the recorder was created
	HEnd   time.Duration
}

// VDur is the span's virtual duration.
func (s *Span) VDur() sim.Time { return s.VEnd - s.VStart }

// HDur is the span's host duration.
func (s *Span) HDur() time.Duration { return s.HEnd - s.HStart }

// Recorder accumulates spans. Call sites hold a nil *Recorder in the
// untraced run and skip recording altogether, so tracing off costs one
// pointer test per operation.
type Recorder struct {
	t0    time.Time
	Spans []Span
}

// New returns an empty recorder whose host clock starts now.
func New() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span at virtual time v and returns its id.
func (r *Recorder) Begin(parent int, name, class string, track int, v sim.Time) int {
	id := len(r.Spans)
	r.Spans = append(r.Spans, Span{
		ID: id, Parent: parent, Name: name, Class: class, Track: track,
		VStart: v, HStart: time.Since(r.t0),
	})
	return id
}

// End closes span id at virtual time v.
func (r *Recorder) End(id int, v sim.Time) {
	s := &r.Spans[id]
	s.VEnd = v
	s.HEnd = time.Since(r.t0)
}

// Reset drops every recorded span (the runner keeps only the last
// traced repetition's spans for the trace file).
func (r *Recorder) Reset() { r.Spans = r.Spans[:0] }

// SelfTimes returns, per span id, the span's virtual duration minus
// the virtual durations of its direct children. In the layer ladder a
// child is the same request issued one public entry point lower, so
// the self time is what the upper layer adds on top of it.
func (r *Recorder) SelfTimes() []sim.Time {
	self := make([]sim.Time, len(r.Spans))
	for i := range r.Spans {
		self[i] += r.Spans[i].VDur()
		if p := r.Spans[i].Parent; p >= 0 {
			self[p] -= r.Spans[i].VDur()
		}
	}
	return self
}

// chromeEvent is one "complete" event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the spans as Chrome trace-event JSON: process 1
// lays them out on the virtual clock, process 2 on the host clock.
func (r *Recorder) WriteChrome(w io.Writer) error {
	events := make([]chromeEvent, 0, 2*len(r.Spans)+2)
	for i, name := range []string{"virtual clock", "host clock"} {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]any{"name": name}})
	}
	for i := range r.Spans {
		s := &r.Spans[i]
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		events = append(events,
			chromeEvent{Name: s.Name, Cat: s.Class, Ph: "X", Pid: 1, Tid: s.Track, Args: args,
				Ts: float64(s.VStart) / 1e3, Dur: float64(s.VDur()) / 1e3},
			chromeEvent{Name: s.Name, Cat: s.Class, Ph: "X", Pid: 2, Tid: s.Track, Args: args,
				Ts: float64(s.HStart) / 1e3, Dur: float64(s.HDur()) / 1e3})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return nil
}
