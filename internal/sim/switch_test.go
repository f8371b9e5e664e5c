package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The tests in this file pin the process switch itself: who holds the
// baton, how many goroutine switches a wake-up costs, and that none of
// it moves the event order.

func TestSelfWakeCostsNoSwitch(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	var during uint64
	e.Spawn("lone", func(p *Proc) {
		start := e.switches
		for i := 0; i < 1000; i++ {
			p.Sleep(1 * us)
			r.Use(p, 1*us)
			p.Yield()
		}
		during = e.switches - start
	})
	e.Run(0)
	if during != 0 {
		t.Errorf("3000 self-wakes of a lone Proc cost %d goroutine switches, want 0", during)
	}
	if e.switches != 2 {
		t.Errorf("whole run cost %d switches, want 2 (Run starts the Proc, its exit returns the baton)", e.switches)
	}
}

// pingPong bounces a token between two Procs n times each way and
// returns the goroutine switches spent while both were up.
func pingPong(e *Engine, n int) (switches uint64) {
	ping, pong := NewChan[int](e), NewChan[int](e)
	var start uint64
	e.Spawn("ping", func(p *Proc) {
		pong.Recv(p) // the peer is up and parked
		start = e.switches
		for i := 0; i < n; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
		switches = e.switches - start
	})
	e.Spawn("pong", func(p *Proc) {
		pong.Send(-1)
		for i := 0; i < n; i++ {
			pong.Send(ping.Recv(p))
		}
	})
	e.Run(0)
	return switches
}

func TestProcToProcWakeCostsOneSwitch(t *testing.T) {
	const n = 500
	// Each round trip is two wake-ups: ping's Send wakes pong, pong's wakes ping.
	if got := pingPong(NewEngine(), n); got != 2*n {
		t.Errorf("%d wake-ups between two Procs cost %d goroutine switches, want exactly one each", 2*n, got)
	}
}

func TestLimitStopLeavesBatonHolderResumable(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e)
	steps := make([]int, 3)
	for i := range steps {
		i := i
		e.Spawn(fmt.Sprintf("ticker%d", i), func(p *Proc) {
			for k := 0; k < 20; k++ {
				p.Sleep(Time(i+1) * ms)
				steps[i]++
			}
			c.Send(i)
		})
	}
	got := 0
	e.Spawn("collector", func(p *Proc) {
		for range steps {
			c.Recv(p)
			got++
		}
	})
	// The limit is always discovered by a ticker parking in Sleep: Run's
	// own goroutine dispatches nothing after the first hand-off.
	for _, limit := range []Time{3 * ms, 3*ms + 500*us, 10 * ms, 25 * ms} {
		if end := e.Run(limit); end != limit {
			t.Fatalf("Run(%v) ended at %v", limit, end)
		}
		want := []int{int(limit / ms), int(limit / (2 * ms)), int(limit / (3 * ms))}
		if want[0] > 20 {
			want[0] = 20
		}
		if !reflect.DeepEqual(steps, want) {
			t.Fatalf("at %v: steps %v, want %v", limit, steps, want)
		}
		if live, parked := e.Live(), e.Stranded(); live != parked {
			t.Fatalf("at %v: %d live Procs but %d parked: a limit stop must park the baton holder too", limit, live, parked)
		}
	}
	if e.Live() != 3 { // ticker0 finished at 20 ms
		t.Errorf("live = %d at 25 ms, want 3", e.Live())
	}
	if end := e.Run(0); end != 60*ms {
		t.Errorf("drained at %v, want 60ms", end)
	}
	if got != 3 || e.Live() != 0 || e.Stranded() != 0 {
		t.Errorf("after drain: collected %d, live %d, stranded %d; want 3, 0, 0", got, e.Live(), e.Stranded())
	}
}

// runPanic runs e to completion and returns what Run panicked with.
func runPanic(t *testing.T, e *Engine) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run returned; want it to panic")
		}
		msg = fmt.Sprint(r)
	}()
	e.Run(0)
	return ""
}

func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	cases := map[string]func(e *Engine){
		"Run dispatching": func(e *Engine) {},
		"parked Proc dispatching": func(e *Engine) {
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(10 * us) })
		},
		"exiting Proc dispatching": func(e *Engine) {
			e.Spawn("brief", func(p *Proc) {})
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			setup(e)
			e.After(5*us, func() { panic("boom") })
			later := false
			e.After(6*us, func() { later = true })
			msg := runPanic(t, e)
			if !strings.Contains(msg, "callback panicked: boom") || strings.Contains(msg, "proc \"") {
				t.Errorf("Run panicked with %q; want the callback's panic, not blamed on a Proc", msg)
			}
			if later {
				t.Error("the run went on past the panic")
			}
			// The dispatcher was only parked: the next Run carries on.
			e.Run(0)
			if !later || e.Live() != 0 || e.Stranded() != 0 {
				t.Errorf("second Run: later=%v live=%d stranded=%d; want true, 0, 0", later, e.Live(), e.Stranded())
			}
		})
	}
}

func TestCountsExactAfterProcPanic(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	e.Spawn("stuck", func(p *Proc) { sig.Wait(p) })
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(1 * ms) })
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1 * us)
		panic("kaboom")
	})
	if msg := runPanic(t, e); !strings.Contains(msg, `proc "boom" panicked: kaboom`) {
		t.Errorf("Run panicked with %q; want the Proc's panic under its name", msg)
	}
	if e.Live() != 2 || e.Stranded() != 2 {
		t.Errorf("after the panic: live %d stranded %d, want 2 and 2", e.Live(), e.Stranded())
	}
	e.Run(0)
	if e.Live() != 1 || e.Stranded() != 1 {
		t.Errorf("after drain: live %d stranded %d, want 1 and 1 (the deadlocked waiter)", e.Live(), e.Stranded())
	}
}

func TestEventRecycledBeforeBatonLeaves(t *testing.T) {
	e := NewEngine()
	var inFree []int
	sample := func() { inFree = append(inFree, len(e.free)) }
	e.Spawn("a", func(p *Proc) {
		sample() // a's start event
		p.Sleep(1 * us)
		sample() // a's wake-up, dispatched by b while parking
	})
	e.Spawn("b", func(p *Proc) {
		sample() // b's start event, dispatched by a while parking
		p.Sleep(2 * us)
		sample() // b's wake-up, dispatched by a while exiting
	})
	e.Run(0)
	// Two events exist in all; whenever a Proc gets the baton the event
	// that made it due is already back on the free list, next to the
	// other one unless that is still scheduled.
	if want := []int{1, 1, 1, 2}; !reflect.DeepEqual(inFree, want) {
		t.Errorf("free-list lengths on resume %v, want %v", inFree, want)
	}
}

// mixedTrace runs Sleep, Yield, Signal, Chan, Resource, callbacks and
// spawns from both Procs and callbacks, with as many same-instant ties
// as it can arrange, and returns who ran when.
func mixedTrace() []string {
	e := NewEngine()
	var log []string
	mark := func(who, what string) { log = append(log, fmt.Sprintf("%v %s %s", e.Now(), who, what)) }
	sig, sig2 := NewSignal(e), NewSignal(e)
	ch := NewChan[int](e)
	res := NewResource(e, "r", 1)

	e.After(2*us, func() {
		mark("cb1", "fire")
		e.Spawn("fromcb", func(p *Proc) {
			mark("fromcb", "start")
			res.Use(p, 1*us)
			mark("fromcb", "used")
			if v, ok := ch.RecvTimeout(p, 1*us); ok {
				mark("fromcb", fmt.Sprint("recv ", v))
			} else {
				mark("fromcb", "recv timeout")
			}
		})
		ch.Send(10)
		mark("cb1", "after-spawn")
	})
	e.Spawn("a", func(p *Proc) {
		mark("a", "start")
		p.Sleep(2 * us)
		mark("a", "woke")
		e.Spawn("child", func(c *Proc) {
			mark("child", "start")
			ch.Send(1)
			c.Yield()
			mark("child", "yielded")
			sig.Wait(c)
			mark("child", "signalled")
			e.SpawnAfter(0, "grandchild", func(g *Proc) {
				mark("grandchild", "start")
				res.Use(g, 1*us)
				mark("grandchild", "used")
				g.Sleep(2 * us) // wakes in the instant b's second timeout expires
				sig2.Fire()
				mark("grandchild", "fired")
			})
			e.AfterDetached(0, func() { mark("cb3", "fire") })
			c.Yield()
			mark("child", "done")
		})
		e.AfterDetached(0, func() { mark("cb2", "fire"); ch.Send(2) })
		mark("a", "spawned")
		p.Yield()
		mark("a", "yielded")
		res.Use(p, 3*us)
		mark("a", "used")
		sig.Fire()
		mark("a", "fired")
	})
	e.Spawn("b", func(p *Proc) {
		mark("b", "start")
		for i := 0; i < 3; i++ {
			mark("b", fmt.Sprint("recv ", ch.Recv(p)))
		}
		res.Acquire(p)
		mark("b", "acquired")
		p.Sleep(1 * us)
		res.Release()
		mark("b", "released")
		mark("b", fmt.Sprint("wait fired=", sig2.WaitTimeout(p, 1*us)))
		mark("b", fmt.Sprint("wait fired=", sig2.WaitTimeout(p, 2*us)))
	})
	e.SpawnAfter(2*us, "late", func(p *Proc) {
		mark("late", "start")
		res.Use(p, 1*us)
		mark("late", "used")
		sig.Wait(p)
		mark("late", "signalled")
	})
	e.After(2*us, func() { mark("cb4", "fire") })
	end := e.Run(0)
	mark("run", fmt.Sprintf("end=%v live=%d stranded=%d", end, e.Live(), e.Stranded()))
	return log
}

// mixedTraceParent is mixedTrace's output recorded on the commit before
// the baton switch (scheduler goroutine, spawn as a callback event).
var mixedTraceParent = []string{
	"0s a start",
	"0s b start",
	"2µs cb1 fire",
	"2µs cb1 after-spawn",
	"2µs late start",
	"2µs cb4 fire",
	"2µs a woke",
	"2µs a spawned",
	"2µs fromcb start",
	"2µs b recv 10",
	"2µs child start",
	"2µs cb2 fire",
	"2µs a yielded",
	"2µs b recv 1",
	"2µs b recv 2",
	"2µs child yielded",
	"3µs late used",
	"4µs fromcb used",
	"5µs fromcb recv timeout",
	"7µs a used",
	"7µs a fired",
	"7µs b acquired",
	"7µs child signalled",
	"7µs late signalled",
	"7µs grandchild start",
	"7µs cb3 fire",
	"7µs child done",
	"8µs b released",
	"9µs b wait fired=false",
	"9µs grandchild used",
	"11µs b wait fired=false",
	"11µs grandchild fired",
	"11µs run end=11µs live=0 stranded=0",
}

func TestSpawnStartsInItsEventSlot(t *testing.T) {
	got := mixedTrace()
	if !reflect.DeepEqual(got, mixedTraceParent) {
		t.Errorf("event order moved.\n got: %q\nwant: %q", got, mixedTraceParent)
	}
}
