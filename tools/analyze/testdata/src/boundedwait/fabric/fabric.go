// Package fabric stands in for the real fabric: the analyzer matches
// operation types by package name.
package fabric

// Status stands in for an operation's outcome.
type Status struct{ Len int }

// Op stands in for a posted operation.
type Op interface {
	Done() bool
	Wait(p *int) Status
}

// mxOp stands in for a transport's operation type.
type mxOp struct{}

// Done implements Op.
func (mxOp) Done() bool { return true }

// Wait implements Op.
func (mxOp) Wait(p *int) Status { return Status{} }

// NewOp returns a concrete operation.
func NewOp() mxOp { return mxOp{} }

// WaitTimeout stands in for the bounded wait.
func WaitTimeout(p *int, op Op, d int) (Status, bool) { return op.Wait(p), true }
