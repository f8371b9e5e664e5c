// Package sim is a fixture: its name places it in the deterministic
// package set, and it declares the Proc/Chan marker types locally.
package sim

import (
	"math/rand"
	"sort"
	"time"

	"fixture/mem"
)

// Proc marks simulated work when passed to a call.
type Proc struct{}

// Chan stands in for the cooperative channel.
type Chan struct{}

// Send stands in for the cooperative send.
func (c *Chan) Send(v int) {}

// Signal, Resource and Engine stand in for the types that take callback
// waiters and schedule events.
type Signal struct{}

// WaitFunc stands in for the callback wait.
func (s *Signal) WaitFunc(fn func()) {}

// Fire stands in for the wake-up.
func (s *Signal) Fire() {}

// Fired is a query: nothing is scheduled.
func (s *Signal) Fired() bool { return false }

// RecvFunc stands in for the callback receive.
func (c *Chan) RecvFunc(fn func(int)) {}

type Resource struct{}

// AcquireFunc stands in for the callback acquire.
func (r *Resource) AcquireFunc(fn func()) {}

type Engine struct{}

// AfterDetached stands in for the fire-and-forget callback.
func (e *Engine) AfterDetached(d int, fn func()) {}

func work(p *Proc, k int) {}

func clocks() {
	_ = time.Now()          // want "time.Now reads the host clock"
	time.Sleep(time.Second) // want "time.Sleep reads the host clock"
}

func randoms() int {
	r := rand.New(rand.NewSource(7)) // seeded stream: fine
	return r.Intn(4) + rand.Intn(4)  // want "global rand.Intn draws from shared non-seeded state"
}

func mapWork(p *Proc, m map[int]int) {
	for k := range m {
		work(p, k) // want "simulated work inside map iteration"
	}
}

func mapSend(ch *Chan, m map[int]int) {
	for k := range m {
		ch.Send(k) // want "sim.Chan.Send inside map iteration"
	}
}

func mapCallbackWaiters(e *Engine, ch *Chan, r *Resource, done map[int]*Signal, fn func()) {
	for _, s := range done {
		s.WaitFunc(fn)            // want "sim.Signal.WaitFunc inside map iteration"
		s.Fire()                  // want "sim.Signal.Fire inside map iteration"
		ch.RecvFunc(func(int) {}) // want "sim.Chan.RecvFunc inside map iteration"
		r.AcquireFunc(fn)         // want "sim.Resource.AcquireFunc inside map iteration"
		e.AfterDetached(0, fn)    // want "sim.Engine.AfterDetached inside map iteration"
		_ = s.Fired()             // a query: fine
	}
}

func mapAppendUnsorted(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want "append to keys under map iteration without sorting"
	}
	return keys
}

func mapAppendSorted(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func mapDeleteOnly(m map[int]int) {
	for k := range m {
		delete(m, k)
	}
}

func mapFreeFrames(m *mem.Memory, pt map[uint64]*mem.Frame) {
	for vpn, f := range pt {
		m.Put(f) // want "mem.Memory.Put inside map iteration"
		delete(pt, vpn)
	}
}

func mapForkFrames(m *mem.Memory, pt map[uint64]*mem.Frame) {
	for vpn := range pt {
		pt[vpn], _ = m.AllocFrame() // want "mem.Memory.AllocFrame inside map iteration"
		m.AllocContig(2)            // want "mem.Memory.AllocContig inside map iteration"
		_ = m.Frame(vpn)            // a lookup: fine
	}
}

func sortedFreeFrames(m *mem.Memory, pt map[uint64]*mem.Frame) {
	var vpns []uint64
	for vpn := range pt {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		m.Put(pt[vpn])
		delete(pt, vpn)
	}
}

func baselined() {
	//analyze:allow simdeterminism fixture demonstrates the baseline syntax
	_ = time.Now()
}
