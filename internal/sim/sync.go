package sim

// This file provides the synchronization primitives used by the hardware
// and protocol models: one-shot Signals (request completions), FIFO Chans
// (message and event queues) and capacity-limited Resources (CPUs, NIC
// firmware processors, DMA engines, links).
//
// All primitives follow the same discipline: a waker always removes a
// proc from the waiter list before scheduling its wake-up, so a parked
// proc is referenced by at most one waiter list at a time.
//
// Each primitive also takes callback waiters (Signal.WaitFunc,
// Chan.RecvFunc, Resource.AcquireFunc), in the same list as Procs and
// under the rule the package comment states: a callback waiter takes
// the event slot the Proc's wake-up took.

// Signal is a one-shot completion event. Once fired it stays fired; any
// number of procs may wait on it before or after firing. The zero value
// is unusable; create with NewSignal, or Init one held by value.
type Signal struct {
	e     *Engine
	fired bool
	// Waiters in arrival order: the oldest inline, because nearly every
	// signal is waited on by exactly one proc, and the rest in more.
	// first is zero only when nobody waits.
	first sigWaiter
	more  []sigWaiter
}

// sigWaiter is one entry of a Signal's waiter list: a blocked Proc (p),
// or a callback registered with WaitFunc (fn).
type sigWaiter struct {
	p  *Proc
	fn func()
}

// NewSignal returns an unfired signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{e: e} }

// Init binds a zero Signal to e, for one embedded by value in the
// record it completes. It must run before any other method, and the
// enclosing record must not be copied afterwards.
func (s *Signal) Init(e *Engine) { s.e = e }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// waiting reports whether anybody waits on the signal.
func (s *Signal) waiting() bool { return s.first.p != nil || s.first.fn != nil }

// Fire fires the signal and wakes all waiters in arrival order: a Proc
// is woken, a callback scheduled at the current instant in the slot
// that wake-up would take. Firing twice is a no-op. Fire may be called
// from a Proc or from a callback.
//
// allocfree
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if !s.waiting() {
		return
	}
	first, more := s.first, s.more
	s.first, s.more = sigWaiter{}, nil
	s.rouse(first)
	for _, w := range more {
		s.rouse(w)
	}
}

// rouse schedules a waiter of the fired signal at the current instant.
//
// allocfree
func (s *Signal) rouse(w sigWaiter) {
	if w.fn != nil {
		s.e.AfterDetached(0, w.fn)
		return
	}
	s.e.wake(w.p)
}

// enroll appends w to the waiters.
//
// allocfree
func (s *Signal) enroll(w sigWaiter) {
	if !s.waiting() {
		s.first = w
		return
	}
	s.more = append(s.more, w)
}

// Wait blocks p until the signal fires. Returns immediately if it
// already has.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.enroll(sigWaiter{p: p})
	p.park()
}

// WaitFunc is Wait for a waiter that is not a process: fn runs once the
// signal has fired — inline if it already has, as Wait would return at
// once, and otherwise from an event Fire schedules in the slot the
// Proc's wake-up would take. The waiter queues in arrival order with
// blocked Procs. fn runs on whichever goroutine holds the baton and
// must not block.
//
// allocfree
func (s *Signal) WaitFunc(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.enroll(sigWaiter{fn: fn})
}

// WaitTimeout blocks p until the signal fires or d elapses. It reports
// whether the signal fired (true) or the timeout expired (false).
func (s *Signal) WaitTimeout(p *Proc, d Time) bool {
	if s.fired {
		return true
	}
	s.enroll(sigWaiter{p: p})
	timer := s.e.wakeAt(s.e.now+d, p)
	p.park()
	if s.fired {
		// Fire removed us from the waiter list before waking; the timer
		// may still be pending.
		s.e.Cancel(timer)
		return true
	}
	// Timer fired; withdraw from the waiter list.
	s.remove(p)
	return false
}

// remove withdraws p from the waiters, keeping the others in arrival
// order: when the inline waiter leaves, the next oldest moves up.
func (s *Signal) remove(p *Proc) {
	if s.first.p == p {
		s.first = sigWaiter{}
		if len(s.more) > 0 {
			s.first = s.more[0]
			s.more = append(s.more[:0], s.more[1:]...)
		}
		return
	}
	for i, w := range s.more {
		if w.p == p {
			s.more = append(s.more[:i], s.more[i+1:]...)
			return
		}
	}
}

// Chan is an unbounded FIFO queue of values with blocking receive.
// Senders never block (protocol-level flow control, where the paper's
// systems need it, is modelled explicitly with Resources or credits).
type Chan[T any] struct {
	e       *Engine
	buf     queue[T]
	waiters queue[*chanWaiter[T]]
	// free recycles waiter records: every blocking Recv on a hot
	// channel (NIC pumps, server queues) would otherwise allocate one,
	// and channels are the inner loop of every transfer.
	free []*chanWaiter[T]
}

// chanWaiter is one entry of a Chan's waiter list: a blocked Proc
// (p), or a callback receiver (fn) registered with RecvFunc.
type chanWaiter[T any] struct {
	p     *Proc
	fn    func(T)
	val   T
	valid bool
	// run hands val to fn. Built once per record, the first time it
	// carries a callback, and reused across recycles, so RecvFunc
	// allocates nothing in steady state.
	run func()
}

// getWaiter takes a waiter from the freelist (or allocates one) and
// arms it for p (nil for a callback receiver).
//
// allocfree
func (c *Chan[T]) getWaiter(p *Proc) *chanWaiter[T] {
	var w *chanWaiter[T]
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
		w.valid = false
	} else {
		//analyze:allow allocfree pool-miss arm: the record recycles from here on
		w = &chanWaiter[T]{}
	}
	w.p = p
	return w
}

// putWaiter recycles a waiter that is off the waiter list.
//
// allocfree
func (c *Chan[T]) putWaiter(w *chanWaiter[T]) {
	var zero T
	w.val, w.p, w.fn = zero, nil, nil
	c.free = append(c.free, w)
}

// NewChan returns an empty queue bound to e.
func NewChan[T any](e *Engine) *Chan[T] { return &Chan[T]{e: e} }

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.n }

// Send enqueues v, handing it to the oldest waiting receiver if any: a
// Proc is woken, a callback scheduled at the current instant in the
// slot that wake-up would take. Send may be called from a Proc or from
// a callback and never blocks.
//
// allocfree
func (c *Chan[T]) Send(v T) {
	for c.waiters.n > 0 {
		w := c.waiters.pop()
		if w.fn != nil {
			w.val = v
			c.e.AfterDetached(0, w.run)
			return
		}
		if w.p.killed {
			continue // it will never take the value: the next receiver gets it
		}
		w.val, w.valid = v, true
		c.e.wake(w.p)
		return
	}
	c.buf.push(v)
}

// RecvFunc is Recv for a receiver that is not a process: fn gets the
// oldest value, inline if one is buffered — as Recv would return at
// once — and otherwise from an event Send schedules when it hands a
// value over. The receiver queues in arrival order with blocked Procs.
// fn runs on whichever goroutine holds the baton and must not block.
//
// allocfree
func (c *Chan[T]) RecvFunc(fn func(T)) {
	if c.Len() > 0 {
		fn(c.buf.pop())
		return
	}
	w := c.getWaiter(nil)
	w.fn = fn
	if w.run == nil {
		//analyze:allow allocfree built once per record, reused across recycles
		w.run = func() {
			fn, v := w.fn, w.val
			c.putWaiter(w)
			fn(v)
		}
	}
	c.waiters.push(w)
}

// Recv dequeues the oldest value, blocking p until one is available.
func (c *Chan[T]) Recv(p *Proc) T {
	if c.Len() > 0 {
		return c.buf.pop()
	}
	w := c.getWaiter(p)
	c.waiters.push(w)
	p.park()
	if !w.valid {
		panic("sim: Chan.Recv resumed without a value (killed proc?)")
	}
	v := w.val
	c.putWaiter(w)
	return v
}

// TryRecv dequeues a value without blocking; ok reports success.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.Len() == 0 {
		return v, false
	}
	return c.buf.pop(), true
}

// Peek returns the oldest buffered value without dequeuing it; ok
// reports whether there is one.
func (c *Chan[T]) Peek() (v T, ok bool) {
	if c.Len() == 0 {
		return v, false
	}
	return c.buf.at(0), true
}

// RecvTimeout dequeues the oldest value, blocking p for at most d.
// ok reports whether a value was received.
func (c *Chan[T]) RecvTimeout(p *Proc, d Time) (v T, ok bool) {
	if c.Len() > 0 {
		return c.buf.pop(), true
	}
	w := c.getWaiter(p)
	c.waiters.push(w)
	timer := c.e.wakeAt(c.e.now+d, p)
	p.park()
	if w.valid {
		c.e.Cancel(timer)
		v = w.val
		c.putWaiter(w)
		return v, true
	}
	// Timeout path: withdraw from the waiter list.
	for i := range c.waiters.n {
		if c.waiters.at(i) == w {
			c.waiters.remove(i)
			break
		}
	}
	c.putWaiter(w)
	return v, false
}

// Resource is a capacity-limited server with a FIFO wait queue: the
// model for every contended hardware unit (CPU cores, NIC firmware,
// DMA engines, link transmitters).
type Resource struct {
	e        *Engine
	name     string
	capacity int
	inUse    int
	queue    queue[resWaiter]

	// Busy accumulates total occupancy (capacity-weighted virtual time)
	// for utilization accounting.
	busy      Time
	lastStamp Time
}

// resWaiter is one entry of a Resource's wait queue: a Proc blocked in
// Acquire (p), or a callback holder registered with AcquireFunc (fn).
type resWaiter struct {
	p  *Proc
	fn func()
}

// NewResource returns a resource with the given capacity (number of
// holders that can have a unit simultaneously).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{e: e, name: name, capacity: capacity}
}

func (r *Resource) stamp() {
	r.busy += Time(r.inUse) * (r.e.now - r.lastStamp)
	r.lastStamp = r.e.now
}

// Acquire blocks p until a unit of the resource is free, then takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && r.QueueLen() == 0 {
		r.stamp()
		r.inUse++
		return
	}
	r.queue.push(resWaiter{p: p})
	p.park()
	// The releaser transferred its unit to us directly (inUse unchanged).
}

// AcquireFunc is Acquire for a holder that is not a process: held runs
// once a unit is the caller's — inline if one is free, as Acquire would
// return at once, and otherwise from an event Release schedules when it
// hands its unit over. The holder queues in the same FIFO as Procs and
// occupancy is stamped exactly as for them. held runs on whichever
// goroutine holds the baton and must not block; the unit is held until
// a matching Release.
//
// allocfree
func (r *Resource) AcquireFunc(held func()) {
	if r.inUse < r.capacity && r.QueueLen() == 0 {
		r.stamp()
		r.inUse++
		held()
		return
	}
	r.queue.push(resWaiter{fn: held})
}

// Release frees a unit, handing it to the oldest queued waiter if any:
// a Proc is woken, a callback holder scheduled at the current instant
// in the slot that wake-up would take.
//
// allocfree
func (r *Resource) Release() {
	if r.inUse <= 0 {
		//analyze:allow allocfree release-without-acquire panic path
		panic("sim: Release of idle resource " + r.name)
	}
	for r.queue.n > 0 {
		next := r.queue.pop()
		// Ownership passes directly; inUse is unchanged.
		if next.fn != nil {
			r.e.AfterDetached(0, next.fn)
			return
		}
		if next.p.killed {
			continue // the unit would be lost with it
		}
		r.e.wake(next.p)
		return
	}
	r.stamp()
	r.inUse--
}

// Use occupies one unit of the resource for duration d: an Acquire,
// Sleep, Release sequence. This is the common "charge service time"
// operation for hardware models.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiters, Procs and callbacks.
func (r *Resource) QueueLen() int { return r.queue.n }

// BusyTime returns accumulated occupancy (unit-weighted virtual time) up
// to the current instant.
func (r *Resource) BusyTime() Time {
	r.stamp()
	return r.busy
}

// queue is a FIFO ring, the wait and value queue of Chan and Resource.
// Its capacity is a power of two, doubled when a push finds it full, so
// it stays below twice the peak number of values queued at once, however
// long the queue lives and whether or not it ever drains.
type queue[T any] struct {
	ring []T
	head int // index of the oldest value
	n    int // values queued
}

// at returns the i-th oldest value (0 <= i < n).
func (q *queue[T]) at(i int) T { return q.ring[(q.head+i)&(len(q.ring)-1)] }

// push appends v.
//
// allocfree
func (q *queue[T]) push(v T) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
}

// grow doubles the full ring, unrolling it into order.
func (q *queue[T]) grow() {
	ring := make([]T, max(1, 2*len(q.ring)))
	k := copy(ring, q.ring[q.head:])
	copy(ring[k:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// pop removes and returns the oldest value (the caller checked n > 0).
//
// allocfree
func (q *queue[T]) pop() T {
	var zero T
	v := q.ring[q.head]
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}

// remove deletes the i-th oldest value, keeping the others in order.
func (q *queue[T]) remove(i int) {
	mask := len(q.ring) - 1
	for ; i < q.n-1; i++ {
		q.ring[(q.head+i)&mask] = q.ring[(q.head+i+1)&mask]
	}
	var zero T
	q.ring[(q.head+q.n-1)&mask] = zero
	q.n--
}

// Counter is a monotonic statistics counter usable from any context.
type Counter struct {
	N     int64
	Bytes int64
}

// Add records one operation of the given size.
func (c *Counter) Add(bytes int) {
	c.N++
	c.Bytes += int64(bytes)
}
