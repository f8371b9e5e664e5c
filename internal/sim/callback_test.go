package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The tests in this file pin the callback waiters — Chan.RecvFunc and
// Resource.AcquireFunc — to the one rule that lets a forwarding process
// become a chain of callbacks without moving a simulated number: a
// callback waiter takes the event slot the Proc's wake-up took.

// forwarder moves n values from in to out, holding r for d per value: a
// pipeline stage. As a Proc it is the textbook loop; as callbacks it is
// the same loop cut at every point where the Proc would block.
func forwarder(e *Engine, asProc bool, in, out *Chan[int], r *Resource, d Time, log func(string)) {
	if asProc {
		e.Spawn("stage", func(p *Proc) {
			for {
				v := in.Recv(p)
				r.Acquire(p)
				log(fmt.Sprintf("stage holds for %d", v))
				p.Sleep(d)
				r.Release()
				out.Send(v)
			}
		})
		return
	}
	var v int
	var start func(int)
	var held, done, next func()
	next = func() { in.RecvFunc(start) }
	start = func(x int) { v = x; r.AcquireFunc(held) }
	held = func() {
		log(fmt.Sprintf("stage holds for %d", v))
		e.AfterDetached(d, done)
	}
	done = func() {
		r.Release()
		out.Send(v)
		next()
	}
	e.AfterDetached(0, next) // where the Proc's start event sits
}

// stageTrace runs the forwarder between a bursty producer and a
// consumer while two Procs compete for its resource and same-instant
// callbacks probe the order, and returns everything that happened.
func stageTrace(asProc bool) []string {
	e := NewEngine()
	var trace []string
	log := func(s string) { trace = append(trace, fmt.Sprintf("%v %s", e.Now(), s)) }
	in, out := NewChan[int](e), NewChan[int](e)
	r := NewResource(e, "unit", 1)
	forwarder(e, asProc, in, out, r, 3*us, log)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 6; i++ {
			e.After(0, func() { log("before send") })
			in.Send(i) // the first finds the stage waiting, a burst finds it busy
			e.After(0, func() { log("after send") })
			if i%3 == 2 {
				p.Sleep(20 * us)
			}
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 6; i++ {
			log(fmt.Sprintf("consumed %d", out.Recv(p)))
		}
	})
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("rival%d", i)
		e.SpawnAfter(Time(i)*us, name, func(p *Proc) {
			for j := 0; j < 4; j++ {
				r.Acquire(p)
				log(name + " holds")
				p.Sleep(2 * us)
				r.Release()
				p.Sleep(1 * us)
			}
		})
	}
	e.Run(0)
	trace = append(trace, fmt.Sprintf("busy %v, events %d", r.BusyTime(), e.seq))
	return trace
}

func TestCallbackStageKeepsTheProcStagesSchedule(t *testing.T) {
	asProc, asCallbacks := stageTrace(true), stageTrace(false)
	if len(asProc) < 30 {
		t.Fatalf("trace has only %d records: the scenario did not run", len(asProc))
	}
	if !reflect.DeepEqual(asProc, asCallbacks) {
		for i := range asProc {
			if i >= len(asCallbacks) || asProc[i] != asCallbacks[i] {
				t.Fatalf("traces diverge at record %d:\n as a Proc:    %v\n as callbacks: %v", i, asProc[i:min(i+4, len(asProc))], asCallbacks[min(i, len(asCallbacks)):min(i+4, len(asCallbacks))])
			}
		}
		t.Fatalf("callback trace has %d extra records", len(asCallbacks)-len(asProc))
	}
}

func TestResourceServesProcsAndCallbacksInArrivalOrder(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "unit", 1)
	var served []string
	serve := func(who string) {
		served = append(served, fmt.Sprintf("%s@%v", who, e.Now()))
	}
	callback := func(who string) func() {
		var held func()
		held = func() {
			serve(who)
			e.AfterDetached(10*us, r.Release)
		}
		return func() { r.AcquireFunc(held) }
	}
	proc := func(who string) func(p *Proc) {
		return func(p *Proc) {
			r.Acquire(p)
			serve(who)
			p.Sleep(10 * us)
			r.Release()
		}
	}
	e.Spawn("holder", proc("holder"))
	e.After(1*us, callback("cb1"))
	e.SpawnAfter(2*us, "proc2", proc("proc2"))
	e.After(3*us, callback("cb3"))
	victim := e.SpawnAfter(4*us, "victim", proc("victim"))
	e.After(5*us, callback("cb5"))
	e.After(6*us, func() {
		if r.QueueLen() != 5 {
			t.Errorf("queue holds %d waiters, want 5 (three callbacks and two Procs in one FIFO)", r.QueueLen())
		}
		victim.Kill()
	})
	e.Run(0)
	want := []string{"holder@0s", "cb1@10µs", "proc2@20µs", "cb3@30µs", "cb5@40µs"}
	if !reflect.DeepEqual(served, want) {
		t.Errorf("served %v, want %v: arrival order, the killed Proc between two callbacks passed over", served, want)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 || r.BusyTime() != 50*us || e.Stranded() != 0 {
		t.Errorf("inUse %d queue %d busy %v stranded %d, want 0, 0, 50µs, 0", r.InUse(), r.QueueLen(), r.BusyTime(), e.Stranded())
	}
}

func TestRecvFuncTakesTheWokenReceiversSlot(t *testing.T) {
	// The same script against a Proc receiver and a callback receiver:
	// a same-instant callback scheduled before the Send runs before the
	// receiver, one scheduled after it runs after.
	script := func(receiver func(e *Engine, c *Chan[int], got func(int))) []string {
		e := NewEngine()
		c := NewChan[int](e)
		var order []string
		receiver(e, c, func(v int) { order = append(order, fmt.Sprintf("received %d at %v", v, e.Now())) })
		e.After(5*us, func() {
			e.After(0, func() { order = append(order, "scheduled before the send") })
			c.Send(7)
			e.After(0, func() { order = append(order, "scheduled after the send") })
			order = append(order, "sender returns")
		})
		e.Run(0)
		return order
	}
	asProc := script(func(e *Engine, c *Chan[int], got func(int)) {
		e.Spawn("receiver", func(p *Proc) { got(c.Recv(p)) })
	})
	asCallback := script(func(e *Engine, c *Chan[int], got func(int)) {
		e.After(0, func() { c.RecvFunc(got) })
	})
	want := []string{"sender returns", "scheduled before the send", "received 7 at 5µs", "scheduled after the send"}
	if !reflect.DeepEqual(asCallback, want) || !reflect.DeepEqual(asProc, want) {
		t.Errorf("order with a callback receiver %v,\n with a Proc receiver %v,\n want both %v", asCallback, asProc, want)
	}

	// A buffered value is taken at once, as Recv returns at once.
	e := NewEngine()
	c := NewChan[int](e)
	c.Send(1)
	c.Send(2)
	var got []int
	c.RecvFunc(func(v int) { got = append(got, v) })
	if !reflect.DeepEqual(got, []int{1}) || c.Len() != 1 {
		t.Errorf("RecvFunc on a buffered channel delivered %v inline and left %d buffered, want [1] and 1", got, c.Len())
	}
}

func TestCallbackWaiterPanicSurfacesFromRun(t *testing.T) {
	cases := map[string]func(e *Engine){
		"RecvFunc": func(e *Engine) {
			c := NewChan[int](e)
			c.RecvFunc(func(int) { panic("boom") })
			e.After(5*us, func() { c.Send(1) })
		},
		"WaitFunc": func(e *Engine) {
			s := NewSignal(e)
			s.WaitFunc(func() { panic("boom") })
			e.After(5*us, s.Fire)
		},
		"AcquireFunc": func(e *Engine) {
			r := NewResource(e, "unit", 1)
			e.Spawn("holder", func(p *Proc) { r.Use(p, 5*us) }) // dispatches the hand-over as it exits
			e.After(1*us, func() { r.AcquireFunc(func() { panic("boom") }) })
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			setup(e)
			if msg := runPanic(t, e); !strings.Contains(msg, "callback panicked: boom") || strings.Contains(msg, "proc \"") {
				t.Errorf("Run panicked with %q; want the callback's panic, not blamed on a Proc", msg)
			}
		})
	}
}

func TestSignalWakesInArrivalOrderWithFirstWaiterInline(t *testing.T) {
	e := NewEngine()
	var s Signal
	s.Init(e)
	var woke []string
	wait := func(name string) func(p *Proc) {
		return func(p *Proc) {
			s.Wait(p)
			woke = append(woke, name)
		}
	}
	e.Spawn("impatient", func(p *Proc) { // the inline waiter, gone before the signal fires
		if s.WaitTimeout(p, 5*us) {
			t.Error("WaitTimeout reported a fire at its deadline")
		}
		woke = append(woke, "impatient timed out")
	})
	e.SpawnAfter(1*us, "b", wait("b"))
	e.SpawnAfter(2*us, "c", wait("c"))
	e.SpawnAfter(6*us, "d", wait("d")) // arrives after the inline slot was vacated and refilled
	e.After(10*us, s.Fire)
	e.Run(0)
	want := []string{"impatient timed out", "b", "c", "d"}
	if !reflect.DeepEqual(woke, want) {
		t.Errorf("woke %v, want %v", woke, want)
	}
	if s.waiting() || len(s.more) != 0 || e.Stranded() != 0 {
		t.Errorf("after Fire: waiting %v, more %d, stranded %d; want false, 0, 0", s.waiting(), len(s.more), e.Stranded())
	}
}

func TestWaitFuncTakesTheWokenWaitersSlot(t *testing.T) {
	// The same script against a Proc waiter and a callback waiter: a
	// same-instant callback scheduled before the Fire runs before the
	// waiter, one scheduled after it runs after.
	script := func(waiter func(e *Engine, s *Signal, woke func())) []string {
		e := NewEngine()
		s := NewSignal(e)
		var order []string
		waiter(e, s, func() { order = append(order, fmt.Sprintf("woke at %v", e.Now())) })
		e.After(5*us, func() {
			e.After(0, func() { order = append(order, "scheduled before the fire") })
			s.Fire()
			e.After(0, func() { order = append(order, "scheduled after the fire") })
			order = append(order, "firer returns")
		})
		e.Run(0)
		return order
	}
	asProc := script(func(e *Engine, s *Signal, woke func()) {
		e.Spawn("waiter", func(p *Proc) { s.Wait(p); woke() })
	})
	asCallback := script(func(e *Engine, s *Signal, woke func()) {
		e.After(0, func() { s.WaitFunc(woke) })
	})
	want := []string{"firer returns", "scheduled before the fire", "woke at 5µs", "scheduled after the fire"}
	if !reflect.DeepEqual(asCallback, want) || !reflect.DeepEqual(asProc, want) {
		t.Errorf("order with a callback waiter %v,\n with a Proc waiter %v,\n want both %v", asCallback, asProc, want)
	}

	// Procs and callbacks share one list, in arrival order, and a Proc
	// that timed out of the inline slot hands it to the callback behind.
	e := NewEngine()
	s := NewSignal(e)
	var woke []string
	note := func(name string) func() { return func() { woke = append(woke, name) } }
	e.Spawn("impatient", func(p *Proc) {
		if s.WaitTimeout(p, 3*us) {
			t.Error("WaitTimeout reported a fire at its deadline")
		}
	})
	e.After(1*us, func() { s.WaitFunc(note("cb1")) })
	e.SpawnAfter(2*us, "proc2", func(p *Proc) { s.Wait(p); note("proc2")() })
	e.After(4*us, func() { s.WaitFunc(note("cb3")) })
	e.After(10*us, s.Fire)
	e.Run(0)
	if want := []string{"cb1", "proc2", "cb3"}; !reflect.DeepEqual(woke, want) {
		t.Errorf("woke %v, want %v", woke, want)
	}
	if s.waiting() || e.Stranded() != 0 {
		t.Errorf("after Fire: waiting %v, stranded %d; want false, 0", s.waiting(), e.Stranded())
	}

	// A fired signal runs the callback at once, as Wait returns at once.
	ran := false
	s.WaitFunc(func() { ran = true })
	if !ran {
		t.Error("WaitFunc on a fired signal did not run its callback inline")
	}
}

func TestGuardedTraceIsFreeWhenTracingIsOff(t *testing.T) {
	e := NewEngine()
	node, port, n, tag := "client", uint8(3), 65536, uint64(0xbeef)
	statement := func() {
		if e.Tracing() {
			e.Tracef("gm[%s:%d] send %dB tag=%#x", node, port, n, tag)
		}
	}
	if got := testing.AllocsPerRun(100, statement); got != 0 {
		t.Errorf("a guarded Tracef with tracing off allocates %.0f objects, want 0", got)
	}
	records := 0
	e.SetTrace(func(at Time, format string, args ...any) {
		records++
		if len(args) != 4 || args[2] != n {
			t.Errorf("trace record carries %v", args)
		}
	})
	statement()
	if records != 1 {
		t.Errorf("%d records with tracing on, want 1", records)
	}
}

// handoffChurn sets up n hand-overs of one Resource between two
// callback holders: while one holds the unit the other is queued.
func handoffChurn(e *Engine, n int) {
	r := NewResource(e, "unit", 1)
	for w := 0; w < 2; w++ {
		left := n / 2
		var held, done func()
		held = func() { e.AfterDetached(1*us, done) }
		done = func() {
			r.Release()
			if left--; left > 0 {
				r.AcquireFunc(held)
			}
		}
		e.AfterDetached(0, func() { r.AcquireFunc(held) })
	}
}

// recvChurn sets up n values sent, one per microsecond, to a callback
// receiver that has nothing buffered and so waits again each time.
func recvChurn(e *Engine, n int) {
	c := NewChan[int](e)
	var recv func(int)
	recv = func(int) { c.RecvFunc(recv) }
	sent := 0
	var send func()
	send = func() {
		c.Send(sent)
		if sent++; sent < n {
			e.AfterDetached(1*us, send)
		}
	}
	c.RecvFunc(recv)
	e.AfterDetached(0, send)
}

// signalChurn sets up n one-shot signals, each waited on by a callback
// and fired a microsecond later (the record a signal completes is
// recycled, as the drivers' requests are: one Signal, re-armed).
func signalChurn(e *Engine, n int) {
	var s Signal
	left := n
	var arm, woke func()
	fire := func() { s.Fire() } // built once: a method value would allocate per use
	arm = func() {
		s = Signal{}
		s.Init(e)
		s.WaitFunc(woke)
		e.AfterDetached(1*us, fire)
	}
	woke = func() {
		if left--; left > 0 {
			arm()
		}
	}
	e.AfterDetached(0, arm)
}

// churn runs all three on an engine with no Proc at all.
func churn(n int) *Engine {
	e := NewEngine()
	handoffChurn(e, n)
	recvChurn(e, n)
	signalChurn(e, n)
	e.Run(0)
	return e
}

func TestCallbackWaitersCostNoSwitchAndNoAllocation(t *testing.T) {
	if e := churn(1000); e.Switches() != 0 {
		t.Errorf("1000 callback hand-overs, receives and signal waits cost %d goroutine switches, want 0", e.Switches())
	}
	// Set-up (engine, closures, the first queue and free-list growth) is
	// the same whatever n is: the difference is the steady state.
	small := testing.AllocsPerRun(5, func() { churn(100) })
	large := testing.AllocsPerRun(5, func() { churn(2100) })
	if large != small {
		t.Errorf("2000 more hand-overs, receives and signal waits allocated %.0f more objects, want 0", large-small)
	}
}

// benchChurn times a churn and fails if it ever left the dispatching
// goroutine: a callback waiter runs on the dispatcher's stack.
func benchChurn(b *testing.B, setup func(e *Engine, n int)) {
	e := NewEngine()
	setup(e, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
	if e.Switches() != 0 {
		b.Errorf("%d goroutine switches, want 0", e.Switches())
	}
}

func BenchmarkResourceCallbackHandoff(b *testing.B) { benchChurn(b, handoffChurn) }

func BenchmarkChanRecvFunc(b *testing.B) { benchChurn(b, recvChurn) }

func BenchmarkSignalWaitFunc(b *testing.B) { benchChurn(b, signalChurn) }
