package hw

// This file is the pool of in-flight payload buffers: the bytes of a
// message between the sender's host memory and the receiver's.
import (
	"math/bits"
	"sync"

	"repro/internal/mem"
)

// Staged is a message payload held in NIC memory, in a buffer drawn
// from the process-wide pool. A gather send fills one inside the NIC as
// its DMA engine reads host memory; a driver whose protocol moves the
// bytes on the host (MX's PIO push and bounce copy) fills one with
// Stage and hands it to Send as TxJob.Inline. Either way the buffer
// belongs to the NIC from then on: the receiving NIC returns it to the
// pool when the driver's Handler returns.
type Staged struct {
	b []byte // len = payload bytes; cap = the size class, exactly
}

// Len returns the payload size in bytes (0 for a nil payload).
func (s *Staged) Len() int {
	if s == nil {
		return 0
	}
	return len(s.b)
}

// Payload buffers come in power-of-two size classes from 64 B to 4 MB;
// anything larger is allocated exactly and left to the GC.
const (
	minPayloadShift = 6
	maxPayloadShift = 22
)

// payloadFree holds free buffers by size class, process-wide rather
// than a field of Cluster or NIC: a finished rig stays reachable
// through its parked goroutines, and a rig-owned free list would keep
// every buffer it ever used (DESIGN.md §14). Unlike mem's frame pool it
// is not a sync.Pool, which every second collection empties: the
// buffers in use at once follow the messages in flight at once, so a
// refill after each collection would allocate a burst's worth of
// buffers anew, a few times per run. It keeps at most maxFreePayload
// bytes; a buffer returned past that is left to the GC.
var payloadFree struct {
	sync.Mutex
	bytes int
	class [maxPayloadShift - minPayloadShift + 1][]*Staged
}

// maxFreePayload bounds what payloadFree keeps: comfortably more than
// a busy cluster's messages hold in flight at once (12 MB at the peak
// of bench's cluster_stream), and small beside a rig's frames.
const maxFreePayload = 32 << 20

// payloadClass returns the index of the smallest class holding n bytes
// (past the end of payloadFree.class when no class does).
//
// allocfree
func payloadClass(n int) int {
	if n <= 1<<minPayloadShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minPayloadShift
}

// getPayload returns a buffer of length n whose contents are
// unspecified: the caller overwrites all of it.
//
// allocfree
func getPayload(n int) *Staged {
	c := payloadClass(n)
	if c >= len(payloadFree.class) {
		//analyze:allow allocfree larger than the largest class: not pooled
		return &Staged{b: make([]byte, n)}
	}
	f := &payloadFree
	f.Lock()
	var s *Staged
	if free := f.class[c]; len(free) > 0 {
		s, f.class[c] = free[len(free)-1], free[:len(free)-1]
		f.bytes -= cap(s.b)
	}
	f.Unlock()
	if s == nil {
		//analyze:allow allocfree pool-miss arm: the buffer recycles from here on
		s = &Staged{b: make([]byte, 1<<(c+minPayloadShift))}
	}
	s.b = s.b[:n]
	return s
}

// putPayload returns a delivered message's buffer to its class.
//
// allocfree
func putPayload(s *Staged) {
	c := payloadClass(cap(s.b))
	if c >= len(payloadFree.class) || cap(s.b) != 1<<(c+minPayloadShift) {
		return
	}
	f := &payloadFree
	f.Lock()
	if f.bytes+cap(s.b) <= maxFreePayload {
		f.class[c] = append(f.class[c], s)
		f.bytes += cap(s.b)
	}
	f.Unlock()
}

// Stage copies the bytes xs describes out of this node's memory into a
// pooled buffer, sampling them now. It is the data movement of a
// host-driven send — programmed I/O or a bounce-buffer copy — whose CPU
// time the driver charges itself.
//
// allocfree
func (n *NIC) Stage(xs []mem.Extent) *Staged {
	s := getPayload(mem.TotalLen(xs))
	cur := n.node.Mem.Cursor(xs)
	cur.Read(s.b)
	return s
}
