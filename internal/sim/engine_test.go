package sim

import (
	"testing"
	"time"
)

const (
	us = time.Microsecond
	ms = time.Millisecond
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * us)
		woke = p.Now()
	})
	end := e.Run(0)
	if woke != 5*us {
		t.Errorf("woke at %v, want 5µs", woke)
	}
	if end != 5*us {
		t.Errorf("run ended at %v, want 5µs", end)
	}
}

func TestNoWallClockDependence(t *testing.T) {
	e := NewEngine()
	e.Spawn("x", func(p *Proc) { p.Sleep(time.Hour) })
	start := time.Now()
	e.Run(0)
	if wall := time.Since(start); wall > time.Second {
		t.Errorf("simulating 1h of virtual time took %v of wall time", wall)
	}
	if e.Now() != time.Hour {
		t.Errorf("virtual clock = %v, want 1h", e.Now())
	}
}

func TestDeterministicOrderSameTime(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Sleep(3 * us) // all wake at the same instant
				order = append(order, i)
			})
		}
		e.Run(0)
		return order
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d: order %v != first run %v", trial, got, first)
			}
		}
	}
	// Spawn order should be preserved for identical wake times.
	for i, v := range first {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", first)
		}
	}
}

func TestAfterCallbackAndCancel(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.After(2*us, func() { fired++ })
	ev := e.After(3*us, func() { fired += 100 })
	e.After(1*us, func() { e.Cancel(ev) })
	e.Run(0)
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (cancelled callback must not run)", fired)
	}
}

func TestRunLimitStopsEarly(t *testing.T) {
	e := NewEngine()
	steps := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1 * ms)
			steps++
		}
	})
	end := e.Run(10 * ms)
	if end != 10*ms {
		t.Errorf("ended at %v, want 10ms", end)
	}
	if steps != 10 {
		t.Errorf("steps = %d, want 10", steps)
	}
	// Resume to completion.
	end = e.Run(0)
	if steps != 100 || end != 100*ms {
		t.Errorf("after resume: steps=%d end=%v, want 100, 100ms", steps, end)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childRan Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(4 * us)
		p.Engine().Spawn("child", func(c *Proc) {
			c.Sleep(1 * us)
			childRan = c.Now()
		})
		p.Sleep(10 * us)
	})
	e.Run(0)
	if childRan != 5*us {
		t.Errorf("child ran at %v, want 5µs", childRan)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1 * us)
		panic("kaboom")
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate out of Run")
		}
	}()
	e.Run(0)
}

func TestKillUnwinds(t *testing.T) {
	e := NewEngine()
	reached := false
	victim := e.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Hour)
		reached = true
	})
	e.Spawn("killer", func(p *Proc) {
		p.Sleep(1 * us)
		victim.Kill()
	})
	e.Run(0)
	if reached {
		t.Error("victim body continued past Kill point")
	}
	if !victim.Done() {
		t.Error("victim not marked done")
	}
	if e.Live() != 0 {
		t.Errorf("live procs = %d, want 0", e.Live())
	}
}

func TestKillBeforeStart(t *testing.T) {
	e := NewEngine()
	ran := false
	victim := e.SpawnAfter(10*us, "victim", func(p *Proc) { ran = true })
	e.After(1*us, func() { victim.Kill() })
	if end := e.Run(0); end != 10*us {
		t.Errorf("run ended at %v, want 10µs (the dead start event still pops)", end)
	}
	if ran || !victim.Done() {
		t.Errorf("victim ran=%v done=%v, want false and true", ran, victim.Done())
	}
	if e.Live() != 0 || e.Stranded() != 0 {
		t.Errorf("live %d stranded %d, want 0 and 0", e.Live(), e.Stranded())
	}
}

func TestStrandedDetection(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	e.Spawn("waiter", func(p *Proc) { sig.Wait(p) }) // never fired
	e.Run(0)
	if e.Stranded() != 1 {
		t.Errorf("stranded = %d, want 1", e.Stranded())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(5 * us)
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.schedule(1*us, &event{fn: func() {}})
	})
	e.Run(0)
}
