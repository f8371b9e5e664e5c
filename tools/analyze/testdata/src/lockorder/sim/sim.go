// Package sim is a stand-in declaring the lock-shaped primitives the
// lockorder analyzer recognizes.
package sim

// Proc stands in for the cooperative process handle.
type Proc struct{}

// Resource stands in for the capacity-1 resource used as a lock.
type Resource struct{}

// Acquire stands in for the blocking lock acquisition.
func (r *Resource) Acquire(p *Proc) {}

// Release stands in for the lock release.
func (r *Resource) Release() {}

// Chan stands in for the cooperative channel / token pool.
type Chan struct{}

// Send stands in for the cooperative send.
func (c *Chan) Send(v int) {}

// Recv stands in for the cooperative receive.
func (c *Chan) Recv(p *Proc) int { return 0 }

// Window stands in for fabric.Window, the request-slot pool.
type Window struct{}

// Acquire stands in for taking a slot.
func (w *Window) Acquire(p *Proc) int { return 0 }

// Release stands in for giving the slot back.
func (w *Window) Release(slot int) {}
