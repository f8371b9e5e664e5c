package rfsrv

import (
	"repro/internal/fabric"
	"repro/internal/sim"
)

// OpRecord is what a logging test transport saw of one Op it handed
// out (LogOp): a test reads it instead of the Op, which its holder may
// have released and its transport handed out again.
type OpRecord struct {
	// Done: the Op completed — its completion fired (OnDone), or its
	// holder waited it to completion, had Cancel withdraw it or
	// released it.
	Done bool
	// Waited: a holder's Wait or WaitTimeout returned the Op completed,
	// with Status.
	Waited bool
	Status fabric.Status
	// Cancelled: a holder's Cancel withdrew the Op before it matched.
	Cancelled bool
	// Released: the holder released the Op.
	Released bool
}

// LogOp wraps an Op of a transport whose Ops implement TimedOp,
// CancelableOp and NotifyOp (MX's) in a test-owned Op that forwards all
// three, so its holder takes the paths, and reaches the instants, it
// would over the bare Op, and returns it with the record it keeps.
// Holding an Op past its Release is a bug the wrapper turns into a
// panic.
func LogOp(op fabric.Op) (fabric.Op, *OpRecord) {
	l := &loggedOp{op: op, rec: &OpRecord{}}
	op.(fabric.NotifyOp).OnDone(func() { l.rec.Done = true })
	return l, l.rec
}

type loggedOp struct {
	op  fabric.Op
	rec *OpRecord
}

var _ interface {
	fabric.TimedOp
	fabric.CancelableOp
	fabric.NotifyOp
} = (*loggedOp)(nil)

// live returns the wrapped Op, panicking once the holder released it.
func (l *loggedOp) live() fabric.Op {
	if l.rec.Released {
		panic("rfsrv: test transport's Op used after Release")
	}
	return l.op
}

func (l *loggedOp) Done() bool { return l.live().Done() }

func (l *loggedOp) Wait(p *sim.Proc) fabric.Status {
	st := l.live().Wait(p)
	l.rec.Done, l.rec.Waited, l.rec.Status = true, true, st
	return st
}

func (l *loggedOp) WaitTimeout(p *sim.Proc, d sim.Time) (fabric.Status, bool) {
	st, ok := l.live().(fabric.TimedOp).WaitTimeout(p, d)
	if ok {
		l.rec.Done, l.rec.Waited, l.rec.Status = true, true, st
	}
	return st, ok
}

func (l *loggedOp) Cancel(p *sim.Proc) bool {
	ok := l.live().(fabric.CancelableOp).Cancel(p)
	if ok {
		l.rec.Done, l.rec.Cancelled = true, true
	}
	return ok
}

func (l *loggedOp) OnDone(fn func()) { l.live().(fabric.NotifyOp).OnDone(fn) }

func (l *loggedOp) Release() {
	l.live().Release()
	l.rec.Done, l.rec.Released = true, true
}
