// Package mem is a fixture: a stand-in for the physical-memory
// allocator, whose Put/AllocFrame/AllocContig are order-sensitive sinks
// although they take no *sim.Proc.
package mem

// Frame stands in for a page frame.
type Frame struct{}

// Memory stands in for a node's physical memory.
type Memory struct{}

// Put stands in for freeing a frame (its PFN joins the recycle list).
func (m *Memory) Put(f *Frame) {}

// AllocFrame stands in for allocating a frame (it takes the most
// recently recycled PFN).
func (m *Memory) AllocFrame() (*Frame, error) { return &Frame{}, nil }

// AllocContig stands in for a contiguous allocation.
func (m *Memory) AllocContig(n int) ([]*Frame, error) { return nil, nil }

// Frame is a lookup, not a sink.
func (m *Memory) Frame(pfn uint64) *Frame { return nil }
