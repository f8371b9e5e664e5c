package fabric_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// runProc runs body as the only initial process of a fresh engine and
// fails the test if it never finishes (a parked Acquire nobody wakes).
func runProc(t *testing.T, body func(env *sim.Engine, p *sim.Proc)) {
	t.Helper()
	env := sim.NewEngine()
	done := false
	env.Spawn("test", func(p *sim.Proc) {
		body(env, p)
		done = true
	})
	env.Run(0)
	if !done {
		t.Fatal("deadlock")
	}
}

// TestWindowAcquireBlocksWhenFull: the third Acquire of a two-slot
// window parks until another process releases a slot, and gets exactly
// the slot that was released.
func TestWindowAcquireBlocksWhenFull(t *testing.T) {
	runProc(t, func(env *sim.Engine, p *sim.Proc) {
		w := fabric.NewWindow[string](env)
		w.Add("a")
		w.Add("b")
		if w.Size() != 2 || w.InFlight() != 0 {
			t.Fatalf("fresh window: size %d, in flight %d", w.Size(), w.InFlight())
		}
		first, second := w.Acquire(p), w.Acquire(p)
		if first != "a" || second != "b" || w.InFlight() != 2 || w.HasRoom() {
			t.Fatalf("acquired %q, %q with %d in flight (room: %v)", first, second, w.InFlight(), w.HasRoom())
		}
		const delay = 5 * time.Millisecond
		env.Spawn("releaser", func(q *sim.Proc) {
			q.Sleep(delay)
			w.Release(first)
		})
		t0 := p.Now()
		if got := w.Acquire(p); got != first {
			t.Errorf("blocked Acquire got slot %q, want the released %q", got, first)
		}
		if waited := p.Now() - t0; waited != delay {
			t.Errorf("Acquire at a full window waited %v, want until the Release at %v", waited, delay)
		}
		if w.InFlight() != 2 || w.MaxInFlight() != 2 {
			t.Errorf("in flight %d (max %d), want 2 (2): the window bound was crossed", w.InFlight(), w.MaxInFlight())
		}
	})
}

// TestWindowMaxInFlight: the high-water mark follows the peak, not the
// current occupancy.
func TestWindowMaxInFlight(t *testing.T) {
	runProc(t, func(env *sim.Engine, p *sim.Proc) {
		w := fabric.NewWindow[int](env)
		for i := range 4 {
			w.Add(i)
		}
		a, b, c := w.Acquire(p), w.Acquire(p), w.Acquire(p)
		w.Release(a)
		w.Release(b)
		w.Release(c)
		w.Release(w.Acquire(p))
		if w.InFlight() != 0 || w.MaxInFlight() != 3 || !w.HasRoom() {
			t.Errorf("in flight %d, max %d, room %v; want 0, 3 and room", w.InFlight(), w.MaxInFlight(), w.HasRoom())
		}
	})
}

// pipeReq is one fake request: it completes when sig fires and then
// reports err.
type pipeReq struct {
	id  int
	sig *sim.Signal
	err error
}

// recorder is a pipeline retire function that logs what it retired and
// what reached the loop's accounting.
type recorder struct {
	retired, counted []int
	retiredAt        []sim.Time
}

func (r *recorder) retire(p *sim.Proc, req pipeReq, failed bool) error {
	req.sig.Wait(p)
	r.retired = append(r.retired, req.id)
	r.retiredAt = append(r.retiredAt, p.Now())
	if req.err == nil && !failed {
		r.counted = append(r.counted, req.id)
	}
	return req.err
}

// push issues n requests that complete immediately; failing[i] makes
// request i fail.
func push(env *sim.Engine, pl *fabric.Pipeline[pipeReq], n int, failing map[int]error) {
	for i := range n {
		sig := sim.NewSignal(env)
		sig.Fire()
		pl.Push(pipeReq{id: i, sig: sig, err: failing[i]})
	}
}

// TestPipelineRoomRetiresOldestFirstUntilRoom: Room retires from the
// head and stops as soon as the predicate holds.
func TestPipelineRoomRetiresOldestFirstUntilRoom(t *testing.T) {
	runProc(t, func(env *sim.Engine, p *sim.Proc) {
		var rec recorder
		pl := fabric.NewPipeline(rec.retire)
		push(env, pl, 5, nil)
		if err := pl.Room(p, func() bool { return pl.Len() < 3 }); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rec.retired, []int{0, 1, 2}) || pl.Len() != 2 {
			t.Errorf("Room retired %v leaving %d, want the three oldest leaving 2", rec.retired, pl.Len())
		}
		// A predicate that never holds empties the pipeline and stops.
		if err := pl.Room(p, func() bool { return false }); err != nil || pl.Len() != 0 {
			t.Errorf("Room with no room: err %v, %d left", err, pl.Len())
		}
		if err := pl.Drain(p); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rec.counted, []int{0, 1, 2, 3, 4}) {
			t.Errorf("accounted %v, want every request once, in issue order", rec.counted)
		}
	})
}

// TestPipelineRoomStopsAtFirstError: the failing request is the last
// one Room retires, whatever the predicate says; Drain then retires
// every request left — none abandoned — returns the first error, and
// passes failed=true so no later result reaches the accounting.
func TestPipelineRoomStopsAtFirstError(t *testing.T) {
	runProc(t, func(env *sim.Engine, p *sim.Proc) {
		boom, later := errors.New("boom"), errors.New("later")
		var rec recorder
		pl := fabric.NewPipeline(rec.retire)
		push(env, pl, 6, map[int]error{1: boom, 4: later})
		if err := pl.Room(p, func() bool { return false }); err != boom {
			t.Fatalf("Room = %v, want the first failure", err)
		}
		if !slices.Equal(rec.retired, []int{0, 1}) {
			t.Fatalf("Room retired %v, want it to stop at the failing request 1", rec.retired)
		}
		// Room on a failed pipeline retires nothing more.
		if err := pl.Room(p, func() bool { return false }); err != boom || len(rec.retired) != 2 {
			t.Errorf("second Room: err %v, retired %v", err, rec.retired)
		}
		if err := pl.Drain(p); err != boom {
			t.Errorf("Drain = %v, want the loop's first error", err)
		}
		if !slices.Equal(rec.retired, []int{0, 1, 2, 3, 4, 5}) || pl.Len() != 0 {
			t.Errorf("retired %v with %d left: Drain abandoned in-flight requests", rec.retired, pl.Len())
		}
		if !slices.Equal(rec.counted, []int{0}) {
			t.Errorf("accounted %v, want only what completed before the error", rec.counted)
		}
		// Drained, the pipeline starts over clean.
		push(env, pl, 1, nil)
		if err := pl.Drain(p); err != nil {
			t.Errorf("reused pipeline still reports %v", err)
		}
	})
}

// TestPipelineFailedIssueStillDrains: an issue error recorded with Fail
// is what Drain returns (a later retire error does not displace it),
// and everything already in flight is still retired.
func TestPipelineFailedIssueStillDrains(t *testing.T) {
	runProc(t, func(env *sim.Engine, p *sim.Proc) {
		issue := errors.New("issue failed")
		var rec recorder
		pl := fabric.NewPipeline(rec.retire)
		push(env, pl, 3, map[int]error{2: errors.New("retire failed")})
		pl.Fail(issue)
		if err := pl.Drain(p); err != issue {
			t.Errorf("Drain = %v, want the issue error", err)
		}
		if !slices.Equal(rec.retired, []int{0, 1, 2}) || len(rec.counted) != 0 {
			t.Errorf("retired %v, accounted %v; want all three retired and none accounted", rec.retired, rec.counted)
		}
	})
}

// TestPipelineOutOfOrderCompletion: requests that complete youngest
// first are still retired oldest first — each at the instant the
// oldest outstanding one is done.
func TestPipelineOutOfOrderCompletion(t *testing.T) {
	runProc(t, func(env *sim.Engine, p *sim.Proc) {
		var rec recorder
		pl := fabric.NewPipeline(rec.retire)
		const n = 4
		for i := range n {
			sig := sim.NewSignal(env)
			env.SpawnAfter(sim.Time(n-i)*time.Millisecond, "complete", func(*sim.Proc) { sig.Fire() })
			pl.Push(pipeReq{id: i, sig: sig})
		}
		if err := pl.Drain(p); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rec.retired, []int{0, 1, 2, 3}) {
			t.Errorf("retired %v, want issue order", rec.retired)
		}
		// Request 0 completes last (at n ms); the rest are already done.
		for i, at := range rec.retiredAt {
			if at != n*time.Millisecond {
				t.Errorf("request %d retired at %v, want %v (behind the oldest)", i, at, n*time.Millisecond)
			}
		}
	})
}
