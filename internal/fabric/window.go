package fabric

// This file holds the two things every windowed consumer shares: the
// request window its slots come from, and the FIFO of requests one
// pipelined loop has issued and not yet retired.
import "repro/internal/sim"

// Window is a request window: a fixed set of slots (each one request's
// staging), handed out by a blocking Acquire — the protocol's
// backpressure — and given back by Release. It is used from simulated
// processes only, like everything over the fabric.
type Window[S any] struct {
	free                  *sim.Chan[S]
	size                  int
	inFlight, maxInFlight int
}

// NewWindow returns an empty window; Add gives it its slots.
func NewWindow[S any](e *sim.Engine) *Window[S] {
	return &Window[S]{free: sim.NewChan[S](e)}
}

// Add widens the window by one slot.
func (w *Window[S]) Add(slot S) {
	w.size++
	w.free.Send(slot)
}

// Acquire takes a slot, blocking while every slot is in flight.
func (w *Window[S]) Acquire(p *sim.Proc) S {
	slot := w.free.Recv(p)
	w.inFlight++
	w.maxInFlight = max(w.maxInFlight, w.inFlight)
	return slot
}

// Release gives a slot back, waking the oldest blocked Acquire.
func (w *Window[S]) Release(slot S) {
	w.inFlight--
	w.free.Send(slot)
}

// Size returns the number of slots.
func (w *Window[S]) Size() int { return w.size }

// InFlight returns the number of slots currently acquired.
func (w *Window[S]) InFlight() int { return w.inFlight }

// HasRoom reports whether an Acquire would return without blocking —
// the pacing predicate of loops that must not park on their own slots.
func (w *Window[S]) HasRoom() bool { return w.inFlight < w.size }

// MaxInFlight returns the high-water mark of InFlight.
func (w *Window[S]) MaxInFlight() int { return w.maxInFlight }

// Pipeline is the issued-but-not-retired FIFO of one pipelined loop.
// The loop makes Room before each issue, Pushes what it issued and
// Drains at the end — and only at the end, whatever went wrong: every
// request pushed is retired exactly once, oldest first, so window
// slots, shadow frames and bounce frames always come back.
type Pipeline[P any] struct {
	retire func(p *sim.Proc, req P, failed bool) error
	q      []P
	err    error
}

// NewPipeline returns an empty pipeline whose requests complete through
// retire. failed tells retire that the loop has already recorded an
// error: the request must still be waited and its resources returned,
// but its result must not reach the loop's accounting.
func NewPipeline[P any](retire func(p *sim.Proc, req P, failed bool) error) *Pipeline[P] {
	return &Pipeline[P]{retire: retire}
}

// Len returns the number of requests issued and not yet retired.
func (pl *Pipeline[P]) Len() int { return len(pl.q) }

// Push appends a request the loop just issued.
func (pl *Pipeline[P]) Push(req P) { pl.q = append(pl.q, req) }

// Fail records err as the loop's error unless one is recorded already
// (a failed issue; a failed retire records itself).
func (pl *Pipeline[P]) Fail(err error) {
	if pl.err == nil {
		pl.err = err
	}
}

// Room retires oldest-first until room() holds or nothing is left, so
// the issue that follows cannot block on a slot this loop holds. It
// stops at the first error and returns it: the loop breaks out and
// Drains.
func (pl *Pipeline[P]) Room(p *sim.Proc, room func() bool) error {
	for pl.err == nil && len(pl.q) > 0 && !room() {
		pl.pop(p)
	}
	return pl.err
}

// Drain retires everything still in flight and returns the loop's
// first error, leaving the pipeline empty and reusable.
func (pl *Pipeline[P]) Drain(p *sim.Proc) error {
	for len(pl.q) > 0 {
		pl.pop(p)
	}
	err := pl.err
	pl.q, pl.err = nil, nil
	return err
}

func (pl *Pipeline[P]) pop(p *sim.Proc) {
	req := pl.q[0]
	pl.q = pl.q[1:]
	if err := pl.retire(p, req, pl.err != nil); err != nil {
		pl.Fail(err)
	}
}
