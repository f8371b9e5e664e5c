// Package sim provides a deterministic, cooperative discrete-event
// simulation kernel.
//
// # Model
//
// A simulation is driven by an Engine holding a virtual clock and a
// time-ordered event queue. Application logic runs in Procs: goroutines
// that execute one at a time and block cooperatively (Sleep,
// Signal.Wait, Chan.Recv, Resource.Acquire). There is no scheduler
// goroutine; control is a baton. Whichever goroutine is about to block
// — Run's caller, a Proc parking, a Proc exiting — runs the event loop
// itself, firing callbacks inline, until a Proc is due. If that Proc is
// itself it just returns (no goroutine switch); otherwise it resumes
// the Proc and blocks (one switch). When the queue drains, Run's limit
// is reached or a panic is recorded, the baton returns to Run's caller.
// Exactly one goroutine is runnable at any instant and which one pops
// an event never changes the order, so simulations are fully
// deterministic: same inputs, same event interleaving, same results.
// Ties between events scheduled for the same virtual time are broken by
// creation order (a monotonically increasing sequence number).
//
// Virtual time is a time.Duration measured from the start of the run.
// Nothing in the package reads wall-clock time.
//
// # Callback waiters
//
// A Proc→Proc wake-up costs a goroutine switch on the host; an event
// callback costs none, because it runs on the stack of whichever
// goroutine holds the baton. A process that only forwards — take a
// value from a Chan, hold a Resource for a while, pass the value on —
// can therefore be written as a chain of callbacks instead: a Chan
// accepts a callback receiver (RecvFunc), a Resource a callback holder
// (AcquireFunc) and a Signal a callback waiter (WaitFunc), each queued
// in the one waiter list in arrival order with blocked Procs. One rule
// makes the rewrite exact: a callback waiter takes the event slot the
// Proc's wake-up took. Where the Proc would have gone on without
// blocking (a buffered value, a free unit, a fired signal) the callback
// runs inline; where the Proc would have parked, Send, Release or Fire
// schedules the callback at the current instant exactly where it would
// have scheduled the wake-up, and a Sleep becomes an AfterDetached of
// the same duration. Every event keeps its (time, sequence) position,
// so the event order and every simulated number are those of the
// process version — only who runs the events moves (a process spawned
// per message just to wait also gives up its start event, which did
// nothing but enrol it). The NIC's transmit and link stages (package
// hw) are such chains, and MX's send completions wait on the NIC's
// TxDone that way; the NIC's receive stage stays a Proc because the
// drivers' handlers block.
//
// The package is the substrate for the hardware and protocol models in
// this repository: CPUs, NIC firmware processors, DMA engines and links
// are all Resources; completion notification queues are Chans; request
// completions are Signals.
package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Time is virtual simulation time, measured from the beginning of the run.
type Time = time.Duration

// event is a scheduled callback. Events either run inline on the baton
// holder's stack (fn != nil) or make a Proc due (proc != nil): a parked
// one resumes, an unstarted one starts its body.
type event struct {
	at        Time
	seq       uint64
	fn        func()
	proc      *Proc
	cancelled bool
	pinned    bool // exposed to external holders: never recycled (Cancel stays a no-op after firing)
}

// before orders events by fire time, then by issue sequence for
// determinism: a total order, so the pop order is the same whatever
// shape the heap has.
//
// allocfree
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of pending events under before, its
// two operations written out over the concrete type rather than
// through heap.Interface: the engine pushes and pops an event per
// simulated step, and the interface calls cost a sixth of a cluster
// run's host time.
type eventHeap []*event

// push adds ev, moving it up from the bottom past every later parent.
//
// allocfree
func (h *eventHeap) push(ev *event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !ev.before(s[up]) {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = ev
	*h = s
}

// pop removes and returns the earliest event, moving the last one down
// from the root past every earlier child.
//
// allocfree
func (h *eventHeap) pop() *event {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = nil
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && s[r].before(s[c]) {
				c = r
			}
			if !s[c].before(last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}

// Engine is a discrete-event scheduler. The zero value is not usable;
// create one with NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	events   eventHeap
	free     []*event      // recycled events; the hot paths (Sleep, After, wake) reuse them
	main     chan struct{} // Run's caller waits here while Procs hold the baton
	limit    Time          // the current Run's limit; 0 means none
	running  bool
	parked   int    // number of live Procs currently parked
	procs    int    // number of live Procs (spawned, not yet finished)
	switches uint64 // baton hand-offs between goroutines; the tests pin the switch cost with it
	failure  any    // panic captured from a Proc body or a callback, re-raised by Run
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{main: make(chan struct{}, 1)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// schedule inserts an event at absolute time at. Panics if at is in the
// past (events may be scheduled for the current instant).
func (e *Engine) schedule(at Time, ev *event) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev.at = at
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
	return ev
}

// newEvent returns a zeroed event, recycling one from the free list if
// possible. Events go back on the free list only once the event loop
// has popped them from the heap, when no holder may cancel them any
// more (see recycle), so reuse can never resurrect a live reference.
func (e *Engine) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		*ev = event{}
		return ev
	}
	return &event{}
}

// recycle returns a popped event to the free list. Events handed to
// package-external callers (After) are pinned and never recycled, so
// the documented "Cancel after firing is a no-op" contract holds for
// them. Internal events are safe: wake/Sleep events are never exposed,
// a pending wake-up is cancelled only while still scheduled (next), and
// the sync primitives (Signal.WaitTimeout, Chan.RecvTimeout) cancel
// their timer only once resumed, before any new event is taken: the
// timer is then still scheduled, or on the free list, where newEvent
// clears the mark.
func (e *Engine) recycle(ev *event) {
	if !ev.pinned && len(e.free) < 1024 {
		// Drop the closure/proc references now, not at reuse: a parked
		// free-list slot must not pin a frame payload or process alive.
		ev.fn, ev.proc = nil, nil
		e.free = append(e.free, ev)
	}
}

// After schedules fn to run after delay d, inline on the stack of
// whichever goroutine holds the baton then: Run's caller, or a Proc
// that is parking or exiting. fn must not block; it may schedule
// further events, fire signals, send on channels and spawn Procs. A
// panic in fn is recorded and re-raised by Run, never by the Proc that
// happened to dispatch it. The returned event may be cancelled with
// Cancel.
func (e *Engine) After(d Time, fn func()) *event {
	ev := e.newEvent()
	ev.fn = fn
	ev.pinned = true
	return e.schedule(e.now+d, ev)
}

// AfterDetached is After for fire-and-forget callbacks: no handle is
// returned, the event cannot be cancelled, and its record is recycled
// through the free list after firing. The hot per-message paths (NIC
// frame delivery, driver acks) use this so bulk transfers allocate no
// event records in steady state.
func (e *Engine) AfterDetached(d Time, fn func()) {
	ev := e.newEvent()
	ev.fn = fn
	e.schedule(e.now+d, ev)
}

// Cancel marks a scheduled event so it will be skipped. Cancelling an
// already-fired or already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *event) {
	if ev != nil {
		ev.cancelled = true
	}
}

// Spawn creates a Proc running body, starting at the current virtual
// time (or, if the engine is not yet running, when Run is called).
// name is used in diagnostics only.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.SpawnAfter(0, name, body)
}

// SpawnAfter creates a Proc whose body starts after delay d. The start
// is a Proc event like any wake-up, so the body begins in the slot this
// call takes in the (time, sequence) order.
func (e *Engine) SpawnAfter(d Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name, resume: make(chan struct{}, 1), body: body}
	e.procs++
	e.wakeAt(e.now+d, p)
	return p
}

// next runs the event loop on the calling goroutine, which holds the
// baton: it fires callbacks inline until a Proc is due and returns that
// Proc, or nil when the run is over — the queue drained, the next event
// lies beyond Run's limit, or a failure was recorded. Each event is
// recycled as soon as it is popped, because the caller may hand the
// baton on and never run again. A callback's panic is recorded as the
// failure here, whoever dispatches it, so it surfaces from Run and does
// not unwind a Proc that only happened to be parking.
func (e *Engine) next() (due *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.failure, due = fmt.Sprintf("sim: callback panicked: %v\n%s", r, debug.Stack()), nil
		}
	}()
	for e.failure == nil && len(e.events) > 0 {
		ev := e.events[0]
		if e.limit > 0 && ev.at > e.limit {
			e.now = e.limit
			return nil
		}
		e.events.pop()
		at, fn, p, cancelled := ev.at, ev.fn, ev.proc, ev.cancelled
		e.recycle(ev)
		if cancelled {
			continue
		}
		e.now = at
		if fn != nil {
			fn()
			continue
		}
		if p.woken != nil && p.woken != ev {
			// Resumed by another event (a timeout's timer) in the instant
			// a primitive also woke it: that wake-up must not end the
			// Proc's next park early.
			p.woken.cancelled = true
		}
		p.woken = nil
		if p.done {
			continue // finished, or killed, since this event was scheduled
		}
		if p.body == nil {
			e.parked--
		}
		return p
	}
	return nil
}

// pass hands the baton to p — resuming it, or starting its goroutine if
// its body has not run yet — or to Run's caller if p is nil. The caller
// must not touch engine state again until it is resumed itself.
func (e *Engine) pass(p *Proc) {
	e.switches++
	switch {
	case p == nil:
		e.main <- struct{}{}
	case p.body != nil:
		body := p.body
		p.body = nil
		go p.run(body)
	default:
		p.resume <- struct{}{}
	}
}

// wake schedules a control transfer to p at the current time. Duplicate
// wake-ups for the same proc are coalesced: synchronization primitives
// always remove a proc from their waiter list before calling wake, so a
// parked proc has at most one pending wake-up (plus possibly a timer it
// scheduled itself, which it is responsible for cancelling). Whichever
// of the two resumes p first cancels the wake-up if it is still queued
// (next), so neither can end a later park.
func (e *Engine) wake(p *Proc) {
	if p.woken != nil {
		return
	}
	ev := e.newEvent()
	ev.proc = p
	p.woken = e.schedule(e.now, ev)
}

// wakeAt schedules a control transfer to p at absolute time at, returning
// the event so it can be cancelled (used for timeouts).
func (e *Engine) wakeAt(at Time, p *Proc) *event {
	ev := e.newEvent()
	ev.proc = p
	return e.schedule(at, ev)
}

// Run processes events until the queue drains or the virtual clock would
// exceed limit. A zero limit means no limit. Run returns the virtual time
// at which it stopped. Procs still parked when the queue drains are
// "stranded" (see Stranded); this usually indicates a protocol deadlock
// and is deliberately not an error here so tests can assert on it. A
// Proc that was dispatching when the limit stopped the run is parked
// like any other and resumes in a later Run. A panic in a Proc body or
// a callback stops the run and is re-raised here.
func (e *Engine) Run(limit Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running, e.limit = true, limit
	defer func() { e.running = false }()
	if p := e.next(); p != nil {
		e.pass(p)
		<-e.main
	}
	if f := e.failure; f != nil {
		e.failure = nil
		panic(f)
	}
	return e.now
}

// Idle reports whether no events remain.
func (e *Engine) Idle() bool { return len(e.events) == 0 }

// Stranded returns the number of live Procs that are parked, whether or
// not a wake-up is pending for them. After Run drains the queue none
// is, so this equals the number of deadlocked processes; after a limit
// stop it also counts the sleepers a later Run will resume.
func (e *Engine) Stranded() int { return e.parked }

// Live returns the number of Procs that have been spawned and have not
// yet finished.
func (e *Engine) Live() int { return e.procs }

// Events returns how many events have been scheduled since the engine
// was created, cancelled ones included: the simulator's own unit of
// work. Tests pin a path's event cost with it — two designs that
// schedule the same events in the same order simulate the same thing.
func (e *Engine) Events() uint64 { return e.seq }

// Switches returns how many times the baton has passed from one
// goroutine to another since the engine was created: the host cost a
// callback waiter (Chan.RecvFunc, Resource.AcquireFunc,
// Signal.WaitFunc) avoids and a Proc wake-up pays. Tests pin a path's
// switch cost with it.
func (e *Engine) Switches() uint64 { return e.switches }
