package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated process: a goroutine that runs only while it
// holds the Engine's baton. All blocking methods (Sleep, and the
// Wait/Recv/Acquire methods on the synchronization types) must only be
// called from within the Proc's own body.
type Proc struct {
	e           *Engine
	name        string
	resume      chan struct{} // buffered: the baton holder never waits for p to reach its receive
	body        func(p *Proc) // non-nil until the goroutine is started
	done        bool
	killed      bool
	wakePending bool
}

// procKilled is the panic value used to unwind a killed Proc.
type procKilled struct{}

// Engine returns the engine this Proc belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// run is the Proc's goroutine: the body, then the event loop until some
// other goroutine takes the baton.
func (p *Proc) run(body func(p *Proc)) {
	e := p.e
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				e.failure = fmt.Sprintf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}
		p.done = true
		e.procs--
		e.pass(e.next())
	}()
	body(p)
}

// park blocks the Proc until an event makes it due again. The caller
// must already have arranged for a future wake-up (an event, or
// membership in some waiter list). The Proc dispatches events itself
// meanwhile; when the next Proc due is p again — a Sleep with nothing
// else runnable in between — it returns without a goroutine switch.
func (p *Proc) park() {
	e := p.e
	e.parked++
	if due := e.next(); due != p {
		e.pass(due)
		<-p.resume
	}
	if p.killed {
		panic(procKilled{})
	}
}

// Sleep suspends the Proc for virtual duration d. A non-positive d
// yields to other same-time events and returns.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.e.wakeAt(p.e.now+d, p)
	p.park()
}

// Yield lets all other events scheduled for the current instant run
// before the Proc continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill marks the Proc so that it unwinds (via an internal panic that is
// recovered on its own goroutine) the next time it would resume; one
// that has not started yet never runs its body. Killing an
// already-finished Proc is a no-op. A victim queued on a Resource or
// blocked in a Chan receive is passed over by Release and Send, but one
// that already holds a Resource unit takes it along: nothing releases
// it. Kill must be called from a callback or from another Proc.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p.body != nil {
		p.body, p.done = nil, true
		p.e.procs--
		return
	}
	// If the proc is parked with no pending event, give it one so the
	// unwind actually runs. A spurious extra wake-up is harmless: the
	// killed flag is checked on every resume.
	p.e.wake(p)
}

// Done reports whether the Proc body has returned.
func (p *Proc) Done() bool { return p.done }
