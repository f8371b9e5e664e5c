package sim

// This file provides the synchronization primitives used by the hardware
// and protocol models: one-shot Signals (request completions), FIFO Chans
// (message and event queues) and capacity-limited Resources (CPUs, NIC
// firmware processors, DMA engines, links).
//
// All primitives follow the same discipline: a waker always removes a
// proc from the waiter list before scheduling its wake-up, so a parked
// proc is referenced by at most one waiter list at a time.

// Signal is a one-shot completion event. Once fired it stays fired; any
// number of procs may wait on it before or after firing. The zero value
// is unusable; create with NewSignal.
type Signal struct {
	e       *Engine
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{e: e} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire fires the signal and wakes all waiters. Firing twice is a no-op.
// Fire may be called from a Proc or from a callback.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	w := s.waiters
	s.waiters = nil
	for _, p := range w {
		s.e.wake(p)
	}
}

// Wait blocks p until the signal fires. Returns immediately if it
// already has.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// WaitTimeout blocks p until the signal fires or d elapses. It reports
// whether the signal fired (true) or the timeout expired (false).
func (s *Signal) WaitTimeout(p *Proc, d Time) bool {
	if s.fired {
		return true
	}
	s.waiters = append(s.waiters, p)
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

func (s *Signal) remove(p *Proc) {
	for i, w := range s.waiters {
		if w == p {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Chan is an unbounded FIFO queue of values with blocking receive.
// Senders never block (protocol-level flow control, where the paper's
// systems need it, is modelled explicitly with Resources or credits).
type Chan[T any] struct {
	e *Engine
	// buf and waiters pop from the front by advancing a head index
	// (resetting to a length-0 slice when drained) instead of
	// reslicing: reslicing strands the backing array's front, so a hot
	// channel would reallocate on append every few operations.
	buf     []T
	bufHead int
	waiters []*chanWaiter[T]
	wHead   int
	// free recycles waiter records: every blocking Recv on a hot
	// channel (NIC pumps, server queues) would otherwise allocate one,
	// and channels are the inner loop of every transfer.
	free []*chanWaiter[T]
}

type chanWaiter[T any] struct {
	p     *Proc
	val   T
	valid bool
}

// getWaiter takes a waiter from the freelist (or allocates one) and
// arms it for p.
func (c *Chan[T]) getWaiter(p *Proc) *chanWaiter[T] {
	var w *chanWaiter[T]
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
		w.valid = false
	} else {
		w = &chanWaiter[T]{}
	}
	w.p = p
	return w
}

// putWaiter recycles a waiter that is off the waiter list.
func (c *Chan[T]) putWaiter(w *chanWaiter[T]) {
	var zero T
	w.val, w.p = zero, nil
	c.free = append(c.free, w)
}

// NewChan returns an empty queue bound to e.
func NewChan[T any](e *Engine) *Chan[T] { return &Chan[T]{e: e} }

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) - c.bufHead }

// popBuf dequeues the oldest buffered value (caller checked Len > 0).
func (c *Chan[T]) popBuf() T {
	v := c.buf[c.bufHead]
	var zero T
	c.buf[c.bufHead] = zero
	c.bufHead++
	if c.bufHead == len(c.buf) {
		c.buf, c.bufHead = c.buf[:0], 0
	}
	return v
}

// Send enqueues v, waking the oldest waiting receiver if any. Send may
// be called from a Proc or from a callback and never blocks.
func (c *Chan[T]) Send(v T) {
	for c.wHead < len(c.waiters) {
		w := c.waiters[c.wHead]
		c.waiters[c.wHead] = nil
		c.wHead++
		if c.wHead == len(c.waiters) {
			c.waiters, c.wHead = c.waiters[:0], 0
		}
		if w.p.killed {
			continue // it will never take the value: the next receiver gets it
		}
		w.val = v
		w.valid = true
		c.e.wake(w.p)
		return
	}
	c.buf = append(c.buf, v)
}

// Recv dequeues the oldest value, blocking p until one is available.
func (c *Chan[T]) Recv(p *Proc) T {
	if c.Len() > 0 {
		return c.popBuf()
	}
	w := c.getWaiter(p)
	c.waiters = append(c.waiters, w)
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
	return c.popBuf(), true
}

// Peek returns the oldest buffered value without dequeuing it; ok
// reports whether there is one.
func (c *Chan[T]) Peek() (v T, ok bool) {
	if c.Len() == 0 {
		return v, false
	}
	return c.buf[c.bufHead], true
}

// RecvTimeout dequeues the oldest value, blocking p for at most d.
// ok reports whether a value was received.
func (c *Chan[T]) RecvTimeout(p *Proc, d Time) (v T, ok bool) {
	if c.Len() > 0 {
		return c.popBuf(), true
	}
	w := c.getWaiter(p)
	c.waiters = append(c.waiters, w)
	timer := c.e.wakeAt(c.e.now+d, p)
	p.park()
	if w.valid {
		c.e.Cancel(timer)
		v = w.val
		c.putWaiter(w)
		return v, true
	}
	// Timeout path: withdraw from the waiter list.
	for i := c.wHead; i < len(c.waiters); i++ {
		if c.waiters[i] == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	if c.wHead == len(c.waiters) {
		c.waiters, c.wHead = c.waiters[:0], 0
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
	queue    []*Proc // pops from the front by advancing head, like Chan
	head     int

	// Busy accumulates total occupancy (capacity-weighted virtual time)
	// for utilization accounting.
	busy      Time
	lastStamp Time
}

// NewResource returns a resource with the given capacity (number of
// procs that can hold it simultaneously).
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
	r.queue = append(r.queue, p)
	p.park()
	// The releaser transferred its unit to us directly (inUse unchanged).
}

// Release frees a unit, handing it to the oldest queued proc if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	for r.head < len(r.queue) {
		next := r.queue[r.head]
		r.queue[r.head] = nil
		r.head++
		if r.head == len(r.queue) {
			r.queue, r.head = r.queue[:0], 0
		}
		if next.killed {
			continue // the unit would be lost with it
		}
		// Ownership passes directly; inUse is unchanged.
		r.e.wake(next)
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

// QueueLen returns the number of procs waiting.
func (r *Resource) QueueLen() int { return len(r.queue) - r.head }

// BusyTime returns accumulated occupancy (unit-weighted virtual time) up
// to the current instant.
func (r *Resource) BusyTime() Time {
	r.stamp()
	return r.busy
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
