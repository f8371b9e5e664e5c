package sim

import "testing"

func TestSignalWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			sig.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(7 * us)
		sig.Fire()
	})
	e.Run(0)
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 7*us {
			t.Errorf("waiter woke at %v, want 7µs", w)
		}
	}
}

func TestSignalWaitAfterFire(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	sig.Fire()
	done := false
	e.Spawn("w", func(p *Proc) {
		sig.Wait(p) // must not block
		done = true
	})
	e.Run(0)
	if !done {
		t.Error("Wait on fired signal blocked")
	}
	if !sig.Fired() {
		t.Error("Fired() = false")
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	e := NewEngine()
	slow := NewSignal(e)
	fast := NewSignal(e)
	var slowOK, fastOK bool
	var slowAt, fastAt Time
	e.Spawn("slow", func(p *Proc) {
		slowOK = slow.WaitTimeout(p, 5*us)
		slowAt = p.Now()
	})
	e.Spawn("fast", func(p *Proc) {
		fastOK = fast.WaitTimeout(p, 5*us)
		fastAt = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(2 * us)
		fast.Fire()
		p.Sleep(100 * us)
		slow.Fire() // too late
	})
	e.Run(0)
	if !fastOK || fastAt != 2*us {
		t.Errorf("fast: ok=%v at %v, want true at 2µs", fastOK, fastAt)
	}
	if slowOK || slowAt != 5*us {
		t.Errorf("slow: ok=%v at %v, want false at 5µs", slowOK, slowAt)
	}
}

func TestChanFIFOAndBlocking(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e)
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, c.Recv(p))
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1 * us)
			c.Send(i)
		}
	})
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want FIFO 0..4", got)
		}
	}
}

func TestChanBufferedBeforeRecv(t *testing.T) {
	e := NewEngine()
	c := NewChan[string](e)
	c.Send("a")
	c.Send("b")
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	var got []string
	e.Spawn("r", func(p *Proc) {
		got = append(got, c.Recv(p), c.Recv(p))
	})
	e.Run(0)
	if got[0] != "a" || got[1] != "b" {
		t.Errorf("got %v, want [a b]", got)
	}
}

func TestChanMultipleReceiversFIFO(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("r", func(p *Proc) {
			v := c.Recv(p)
			order = append(order, i*100+v)
		})
	}
	e.Spawn("s", func(p *Proc) {
		p.Sleep(1 * us)
		c.Send(0)
		c.Send(1)
		c.Send(2)
	})
	e.Run(0)
	// Receivers were queued in spawn order; values delivered in order.
	want := []int{0, 101, 202}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestChanTryRecv(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e)
	if _, ok := c.TryRecv(); ok {
		t.Error("TryRecv on empty chan returned ok")
	}
	if _, ok := c.Peek(); ok {
		t.Error("Peek on empty chan returned ok")
	}
	c.Send(42)
	if v, ok := c.Peek(); !ok || v != 42 || c.Len() != 1 {
		t.Errorf("Peek = %d,%v with %d buffered, want 42,true with 1", v, ok, c.Len())
	}
	v, ok := c.TryRecv()
	if !ok || v != 42 {
		t.Errorf("TryRecv = %d,%v want 42,true", v, ok)
	}
}

func TestChanRecvTimeout(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e)
	var ok1, ok2 bool
	var v2 int
	e.Spawn("r", func(p *Proc) {
		_, ok1 = c.RecvTimeout(p, 3*us)
		v2, ok2 = c.RecvTimeout(p, 10*us)
	})
	e.Spawn("s", func(p *Proc) {
		p.Sleep(5 * us)
		c.Send(7)
	})
	e.Run(0)
	if ok1 {
		t.Error("first RecvTimeout should have timed out")
	}
	if !ok2 || v2 != 7 {
		t.Errorf("second RecvTimeout = %d,%v want 7,true", v2, ok2)
	}
	if e.Stranded() != 0 {
		t.Errorf("stranded = %d, want 0", e.Stranded())
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, 10*us)
			finish = append(finish, p.Now())
		})
	}
	e.Run(0)
	want := []Time{10 * us, 20 * us, 30 * us}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times %v, want %v (strict FIFO serialization)", finish, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dualcpu", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, 10*us)
			finish = append(finish, p.Now())
		})
	}
	e.Run(0)
	want := []Time{10 * us, 10 * us, 20 * us, 20 * us}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
}

func TestResourceBusyAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1)
	e.Spawn("a", func(p *Proc) { r.Use(p, 10*us) })
	e.Spawn("b", func(p *Proc) {
		p.Sleep(50 * us)
		r.Use(p, 5*us)
	})
	e.Run(0)
	if got := r.BusyTime(); got != 15*us {
		t.Errorf("busy = %v, want 15µs", got)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Errorf("resource not idle at end: inUse=%d queue=%d", r.InUse(), r.QueueLen())
	}
}

func TestResourceReleaseHandoffKeepsFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.SpawnAfter(Time(i), "u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(1 * us)
			order = append(order, i)
			r.Release()
		})
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v, want FIFO", order)
		}
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release on idle resource should panic")
		}
	}()
	r.Release()
}

func TestKillQueuedOnResource(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	e.Spawn("holder", func(p *Proc) { r.Use(p, 10*us) })
	victim := e.Spawn("victim", func(p *Proc) { r.Use(p, 10*us) })
	var thirdDone Time
	e.Spawn("third", func(p *Proc) {
		r.Use(p, 10*us)
		thirdDone = p.Now()
	})
	e.After(5*us, func() { victim.Kill() })
	e.Run(0)
	if thirdDone != 20*us {
		t.Errorf("third finished at %v, want 20µs: Release must pass over the killed waiter", thirdDone)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 || e.Stranded() != 0 {
		t.Errorf("inUse %d queue %d stranded %d, want all 0", r.InUse(), r.QueueLen(), e.Stranded())
	}
}

func TestKillBlockedInRecv(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e)
	victim := e.Spawn("victim", func(p *Proc) { c.Recv(p) })
	got := 0
	e.Spawn("second", func(p *Proc) { got = c.Recv(p) })
	e.After(1*us, func() {
		victim.Kill()
		c.Send(7) // the victim has not even unwound yet
	})
	e.Run(0)
	if got != 7 {
		t.Errorf("second receiver got %d, want 7: Send must pass over the killed waiter", got)
	}
	if e.Live() != 0 || e.Stranded() != 0 {
		t.Errorf("live %d stranded %d, want 0 and 0", e.Live(), e.Stranded())
	}
}

func BenchmarkEngineSleepLoop(b *testing.B) {
	e := NewEngine()
	e.Spawn("loop", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1 * us)
		}
	})
	b.ResetTimer()
	e.Run(0)
}

func BenchmarkResourceHandoff(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	for w := 0; w < 2; w++ {
		e.Spawn("u", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				r.Use(p, 1*us)
			}
		})
	}
	b.ResetTimer()
	e.Run(0)
}

func BenchmarkChanPingPong(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	pingPong(e, b.N/2)
}
