package main

// boundedwait: a wait on the network must end even when the peer does
// not answer. In the packages that talk to a peer over the fabric — the
// rfsrv client and server, nbd, orfs and orfa — a direct Wait(p) on a
// fabric operation blocks until it completes, which a dead peer can
// postpone forever; fabric.WaitTimeout (a deadline, then Cancel) is the
// bounded form. Each remaining untimed wait carries the reason it is
// safe, or the item that will bound it, as
//
//	//analyze:allow boundedwait <reason>
//
// so the list of allows is the audit of where a dead peer can still
// wedge a process.

import (
	"go/ast"
	"go/types"
)

// networkPackages names the packages whose fabric waits must be
// bounded (matched by package name so fixtures can stand in).
var networkPackages = map[string]bool{
	"rfsrv": true, "nbd": true, "orfs": true, "orfa": true,
}

var boundedWait = &Analyzer{
	Name: "boundedwait",
	Doc:  "a Wait on a fabric operation in a networked package must be timed (fabric.WaitTimeout) or carry a reasoned allow",
	Run:  runBoundedWait,
}

func runBoundedWait(p *Pass) {
	if !networkPackages[p.Pkg.Name()] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && p.isFabricWait(call) {
				p.report(call.Pos(), "untimed Wait on a fabric operation: a dead peer blocks it forever — use fabric.WaitTimeout, or state why it ends")
			}
			return true
		})
	}
}

// isFabricWait reports whether call is the Wait method of a fabric
// operation: the Op interface's, or a fabric type's implementing it.
func (p *Pass) isFabricWait(call *ast.CallExpr) bool {
	f := p.callee(call)
	if f == nil || f.Name() != "Wait" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedOf(sig.Recv().Type())
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "fabric"
}
