// Package rfsrv exercises the boundedwait rule in a networked package.
package rfsrv

import "fixture/fabric"

// signal is not a fabric operation: its Wait is not the rule's.
type signal struct{}

func (signal) Wait(p *int) {}

func untimed(p *int, op fabric.Op) int {
	return op.Wait(p).Len // want "untimed Wait on a fabric operation"
}

func untimedConcrete(p *int) int {
	return fabric.NewOp().Wait(p).Len // want "untimed Wait on a fabric operation"
}

func timed(p *int, op fabric.Op) int {
	st, _ := fabric.WaitTimeout(p, op, 10)
	return st.Len
}

func allowed(p *int, op fabric.Op) int {
	//analyze:allow boundedwait the operation already matched
	return op.Wait(p).Len
}

func other(p *int, s signal) { s.Wait(p) }
