package main

// allocfree: functions whose doc comment carries a line starting
// //allocfree are per-request hot-path code audited to zero (or
// near-zero) allocations in PR 6. The root alloc_gate_test.go pins
// the COUNT per operation; this analyzer pins the WHERE — a
// regression names the construct and line instead of a bare number.
//
// Flagged constructs (each one allocates, or defeats the compiler's
// escape analysis on this path):
//
//   - function literals (closures capture their environment on the
//     heap once anything escapes — hot paths use prebuilt closures);
//   - method values (x.method handed over uncalled, the natural way to
//     give Signal.WaitFunc, Chan.RecvFunc, Resource.AcquireFunc or
//     Engine.AfterDetached their callback: each evaluation allocates
//     the closure that binds x — build it once and keep it);
//   - calls into package fmt (every verb boxes and allocates);
//   - concrete-to-interface conversions in calls, assignments and
//     returns (boxing);
//   - make and new (fresh heap objects; the one exception is the
//     compiler-recognized extend idiom append(dst, make([]T, n)...),
//     which grows dst in place when capacity suffices);
//   - composite literals whose address is taken (&T{...} escapes);
//   - string <-> []byte conversions and string concatenation (both
//     copy through a fresh allocation).
//
// Plain append is deliberately NOT flagged: the audited paths append
// into presized pooled scratch, growth is what the gate's count
// catches, and a static checker cannot see capacities. Error paths
// that allocate (fmt.Errorf on a corrupt frame) are fine — baseline
// them with //analyze:allow allocfree <reason>.

import (
	"go/ast"
	"go/types"
	"strings"
)

var allocFree = &Analyzer{
	Name: "allocfree",
	Doc:  "functions annotated //allocfree must not contain allocating constructs",
	Run:  runAllocFree,
}

func runAllocFree(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isAllocFree(fd) {
				continue
			}
			p.checkAllocFree(fd)
		}
	}
}

// isAllocFree reports whether the function's doc comment contains an
// //allocfree directive line. gofmt inserts a space after // in
// non-colon directives, so "// allocfree" is accepted too.
func isAllocFree(fd *ast.FuncDecl) bool {
	for _, c := range funcDoc(fd) {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "allocfree" || strings.HasPrefix(text, "allocfree ") {
			return true
		}
	}
	return false
}

// checkAllocFree walks one annotated function body.
func (p *Pass) checkAllocFree(fd *ast.FuncDecl) {
	called := map[*ast.SelectorExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			p.report(n.Pos(), "closure in //allocfree function: the captured environment allocates; hoist it to a prebuilt closure or a method")
			return false // its body runs under its own budget
		case *ast.CallExpr:
			p.checkAllocCall(n)
			// A method that is called binds nothing (the walk reaches a
			// call before the selector it calls).
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				called[sel] = true
			}
		case *ast.SelectorExpr:
			if s := p.Info.Selections[n]; s != nil && s.Kind() == types.MethodVal && !called[n] {
				p.report(n.Pos(), "method value in //allocfree function: binding the receiver allocates a closure per evaluation; build it once (a func field set up beforehand) and pass that")
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					p.report(n.Pos(), "&composite literal in //allocfree function allocates; reuse a pooled record")
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if tv, ok := p.Info.Types[n]; ok && isString(tv.Type) {
					p.report(n.Pos(), "string concatenation in //allocfree function allocates; use presized scratch")
				}
			}
		case *ast.AssignStmt:
			p.checkBoxingAssign(n)
		case *ast.ReturnStmt:
			p.checkBoxingReturn(fd, n)
		}
		return true
	})
}

// checkAllocCall flags allocating calls: fmt, make/new, string
// conversions, and interface boxing of arguments.
func (p *Pass) checkAllocCall(call *ast.CallExpr) {
	if name, ok := p.isPkgCall(call, "fmt"); ok {
		p.report(call.Pos(), "fmt.%s in //allocfree function: fmt boxes every operand and allocates", name)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if !p.isAppendExtendArg(call) {
					p.report(call.Pos(), "make in //allocfree function allocates; presize at setup or reuse pooled scratch (append(dst, make(...)...) extend is exempt)")
				}
				return
			case "new":
				p.report(call.Pos(), "new in //allocfree function allocates; reuse a pooled record")
				return
			}
		}
	}
	// Conversions string([]byte) / []byte(string) copy and allocate.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, p.Info.Types[call.Args[0]].Type
		if (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from)) {
			p.report(call.Pos(), "string/[]byte conversion in //allocfree function copies through a fresh allocation")
		}
		return
	}
	// Interface boxing of concrete arguments.
	f := p.callee(call)
	if f == nil {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := last.Underlying().(*types.Slice); ok {
				param = sl.Elem()
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		p.checkBoxing(arg, param, "argument")
	}
}

// isAppendExtendArg reports whether the make call is spread directly
// into an append (append(dst, make([]T, n)...)), which the compiler
// turns into an in-place extension.
func (p *Pass) isAppendExtendArg(mk *ast.CallExpr) bool {
	for _, f := range p.Files {
		if !(f.Pos() <= mk.Pos() && mk.Pos() <= f.End()) {
			continue
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "append" || call.Ellipsis == 0 {
				return true
			}
			if len(call.Args) == 2 && ast.Unparen(call.Args[1]) == mk {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

// checkBoxingAssign flags concrete values assigned into interface
// variables.
func (p *Pass) checkBoxingAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		ltv, ok := p.Info.Types[lhs]
		if !ok {
			// := defines a new variable; its type is the RHS type, no
			// conversion happens.
			continue
		}
		p.checkBoxing(as.Rhs[i], ltv.Type, "assignment")
	}
}

// checkBoxingReturn flags concrete values returned as interfaces.
func (p *Pass) checkBoxingReturn(fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	obj := p.Info.Defs[fd.Name]
	if obj == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		p.checkBoxing(r, sig.Results().At(i).Type(), "return")
	}
}

// checkBoxing reports expr if it is a concrete (non-interface)
// value converted to an interface target — boxing, one heap
// allocation per conversion (apart from nil and untyped constants).
func (p *Pass) checkBoxing(expr ast.Expr, target types.Type, where string) {
	if target == nil {
		return
	}
	if !types.IsInterface(target.Underlying()) {
		return
	}
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || tv.Value != nil {
		return // nil or constant: no boxing at this site worth flagging
	}
	if types.IsInterface(tv.Type.Underlying()) {
		return // interface-to-interface: no new box
	}
	// error results built by returning a typed error variable are the
	// dominant idiom and do not allocate (the value is already an
	// interface or a pointer to a long-lived object); only flag
	// non-pointer concrete types, where the box copies the value.
	if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
		return
	}
	p.report(expr.Pos(), "interface boxing in //allocfree function (%s of concrete %s into %s): the box allocates", where, tv.Type, target)
}

// isString reports whether t is (an alias of) string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String || ok && b.Kind() == types.UntypedString
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte || ok && b.Kind() == types.Uint8
}
