package hw

// This file is the input of the NIC's two forwarding stages: one FIFO
// per destination node and the one rule that decides, at every
// fragment boundary, which FIFO's head goes next.
import "repro/internal/sim"

// multiFrag is set in a queued value's rank when its message has more
// than one fragment, so that every single-fragment message ranks before
// every multi-fragment one and Seq orders each group.
const multiFrag = 1 << 63

// fifoCap is a FIFO's first backing array: a send queue is rebuilt with
// every rig, and a FIFO grown from one entry reallocates five times
// before it holds a 64 KB message's seventeen fragments.
const fifoCap = 32

// sendQueue is a forwarding stage's input (T is *TxJob for the transmit
// stage, *frag for the link stage). Values wait in one FIFO per
// destination node; the stage takes the head that rank says goes next:
// the single-fragment message with the lowest Seq if any head is one,
// else the head with the lowest Seq. A FIFO keeps the order between a
// pair of nodes; the rank lets a one-fragment message to one node pass
// another node's bulk data at the next fragment boundary; and with a
// single destination the queue is a plain FIFO.
type sendQueue[T any] struct {
	env *sim.Engine
	// fifos holds one FIFO per destination in first-use order; active
	// indexes the non-empty ones, in no particular order. Both are
	// slices, never a map iterated, and Seq is unique, so the choice
	// does not depend on the order of the scan.
	fifos  []destFIFO[T]
	active []int
	last   int // index of the FIFO the latest push went to
	// waiter is the stage's continuation while it waits for a value:
	// push schedules it at the current instant, in the slot a
	// sim.Chan.RecvFunc waiter would take.
	waiter func()
}

// destFIFO holds the values bound for one node. Like sim.Chan it pops
// by advancing a head index and rewinds when it drains; one that never
// drains slides its live values to the front once the dead ones fill
// half of a full backing array, rather than growing it.
type destFIFO[T any] struct {
	dst  NodeID
	buf  []ranked[T]
	head int
}

// ranked is a queued value with its message's rank (see multiFrag).
type ranked[T any] struct {
	rank uint64
	v    T
}

// empty reports whether no value waits.
func (q *sendQueue[T]) empty() bool { return len(q.active) == 0 }

// wait parks the stage: fn runs from an event once a value is pushed.
// The queue must be empty.
func (q *sendQueue[T]) wait(fn func()) { q.waiter = fn }

// push appends v, which belongs to m, to the FIFO of m's destination
// and wakes a waiting stage.
//
// allocfree
func (q *sendQueue[T]) push(m *Message, v T) {
	f := q.fifo(m.Dst)
	if len(f.buf) == f.head {
		q.active = append(q.active, q.last)
	} else if len(f.buf) == cap(f.buf) && 2*f.head >= len(f.buf) {
		k := copy(f.buf, f.buf[f.head:])
		clear(f.buf[k:])
		f.buf, f.head = f.buf[:k], 0
	}
	rank := m.Seq
	if m.frags > 1 {
		rank |= multiFrag
	}
	f.buf = append(f.buf, ranked[T]{rank, v})
	if w := q.waiter; w != nil {
		q.waiter = nil
		q.env.AfterDetached(0, w)
	}
}

// fifo returns the FIFO for dst, starting one on first use, and leaves
// its index in last.
//
// allocfree
func (q *sendQueue[T]) fifo(dst NodeID) *destFIFO[T] {
	if q.last < len(q.fifos) && q.fifos[q.last].dst == dst {
		return &q.fifos[q.last]
	}
	for i := range q.fifos {
		if q.fifos[i].dst == dst {
			q.last = i
			return &q.fifos[i]
		}
	}
	//analyze:allow allocfree first use of a destination: the FIFO lives as long as the NIC
	q.fifos = append(q.fifos, destFIFO[T]{dst: dst, buf: make([]ranked[T], 0, fifoCap)})
	q.last = len(q.fifos) - 1
	return &q.fifos[q.last]
}

// pick returns the index of the FIFO whose head goes next: the lowest
// rank among the heads. The queue must not be empty.
//
// allocfree
func (q *sendQueue[T]) pick() int {
	if len(q.active) == 1 {
		return q.active[0]
	}
	return q.lowest()
}

// lowest is pick among several non-empty FIFOs.
//
// allocfree
func (q *sendQueue[T]) lowest() int {
	best := q.active[0]
	low := q.fifos[best].headRank()
	for _, i := range q.active[1:] {
		if r := q.fifos[i].headRank(); r < low {
			best, low = i, r
		}
	}
	return best
}

// headRank returns the rank of the FIFO's head (it must have one).
//
// allocfree
func (f *destFIFO[T]) headRank() uint64 { return f.buf[f.head].rank }

// head returns the head of FIFO i without taking it.
//
// allocfree
func (q *sendQueue[T]) head(i int) T {
	f := &q.fifos[i]
	return f.buf[f.head].v
}

// pop takes the head of FIFO i.
//
// allocfree
func (q *sendQueue[T]) pop(i int) T {
	f := &q.fifos[i]
	v := f.buf[f.head].v
	f.buf[f.head] = ranked[T]{}
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
		for k, a := range q.active {
			if a == i {
				last := len(q.active) - 1
				q.active[k] = q.active[last]
				q.active = q.active[:last]
				break
			}
		}
	}
	return v
}
