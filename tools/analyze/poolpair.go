package main

// poolpair: every pooled acquisition must reach its release on every
// path out of the acquiring function — the static complement of
// fabric.Pool.CheckLeaks, which only catches unbalanced Get/Release
// on paths a test happens to drive.
//
// Tracked pairs (matched by package and type NAME so fixtures can
// stand in for the real packages):
//
//	fabric.Pool.Get       -> Buffer.Release() (or defer)
//	hw.NIC.getFrag        -> NIC.putFrag(f)
//	rfsrv.Server.getWork  -> Server.putWork(w)
//
// Ownership transfer counts as a release: storing the value into a
// field, slice, map or channel, passing it to any function, or
// returning it hands responsibility to the new holder (recvReq storing
// the bounce buffer on a work record is fine — serve releases it; so
// is reply appending a posted header's staging to Server.staged — its
// sweep releases it once the send is Done — while the failed-send arm
// of the same function must, and does, release on the spot; the
// fixture pins both arms). What the analyzer rejects is a path where
// the value is still owned locally and control leaves the function (or
// the acquiring loop iteration) without releasing it — exactly the
// error-return leaks CheckLeaks only finds under fault injection.
//
// Functions containing goto are skipped (no findings either way):
// the path walk does not model arbitrary jumps.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolAcq describes one pooled-acquisition method.
type poolAcq struct {
	pkg, typ, method string
	// resultIdx is the index of the pooled value among the results.
	resultIdx int
	// releaseMethods are methods ON the pooled value that release it.
	releaseMethods map[string]bool
	// releaseFuncs are functions/methods that release a pooled value
	// passed as an argument.
	releaseFuncs map[string]bool
	what         string
}

var poolAcqs = []poolAcq{
	{
		pkg: "fabric", typ: "Pool", method: "Get", resultIdx: 0,
		releaseMethods: map[string]bool{"Release": true},
		what:           "fabric.Pool.Get",
	},
	{
		pkg: "hw", typ: "NIC", method: "getFrag", resultIdx: 0,
		releaseFuncs: map[string]bool{"putFrag": true},
		what:         "NIC.getFrag",
	},
	{
		pkg: "rfsrv", typ: "Server", method: "getWork", resultIdx: 0,
		releaseFuncs: map[string]bool{"putWork": true},
		what:         "Server.getWork",
	},
}

var poolPair = &Analyzer{
	Name: "poolpair",
	Doc:  "pooled acquisitions (fabric.Pool.Get, NIC fragments, server work records) must release on all paths",
	Run:  runPoolPair,
}

func runPoolPair(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hasGoto(fd.Body) {
				continue
			}
			p.checkPoolFunc(fd)
		}
	}
}

// hasGoto reports whether the function body contains a goto.
func hasGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && br.Tok.String() == "goto" {
			found = true
		}
		return !found
	})
	return found
}

// checkPoolFunc finds every tracked acquisition in fd and walks the
// function once per acquisition.
func (p *Pass) checkPoolFunc(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		acq := p.matchAcq(call)
		if acq == nil {
			return true
		}
		if acq.resultIdx >= len(as.Lhs) {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[acq.resultIdx]).(*ast.Ident)
		if !ok || id.Name == "_" {
			// The pooled value is dropped or lands somewhere non-local;
			// a dropped handle can never be released.
			p.report(as.Pos(), "%s result is discarded: the pooled value can never be released", acq.what)
			return true
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return true
		}
		c := &poolChecker{p: p, fd: fd, acq: acq, acqStmt: as, obj: obj}
		// If the acquisition also assigns an error variable, remember
		// it: on the `err != nil` branch of the guard directly tied to
		// this acquisition, the pooled value is nil and cannot leak.
		for i, lhs := range as.Lhs {
			if i == acq.resultIdx {
				continue
			}
			eid, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || eid.Name == "_" {
				continue
			}
			eobj := p.Info.Defs[eid]
			if eobj == nil {
				eobj = p.Info.Uses[eid]
			}
			if eobj != nil && eobj.Type() != nil && eobj.Type().String() == "error" {
				c.errObj = eobj
			}
		}
		c.run()
		return true
	})
}

// matchAcq resolves call against the acquisition table.
func (p *Pass) matchAcq(call *ast.CallExpr) *poolAcq {
	f := p.callee(call)
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	for i := range poolAcqs {
		a := &poolAcqs[i]
		if f.Name() == a.method && typeIs(sig.Recv().Type(), a.pkg, a.typ) {
			return a
		}
	}
	return nil
}

// poolChecker walks one function for one acquisition.
type poolChecker struct {
	p       *Pass
	fd      *ast.FuncDecl
	acq     *poolAcq
	acqStmt ast.Stmt
	obj     types.Object
	errObj  types.Object // error result of the acquisition, if any

	reported bool
}

// pstate is the per-path tracking state.
type pstate struct {
	live     bool // value acquired and still owned locally
	deferred bool // a deferred release covers every later exit
	errOK    bool // errObj still holds the acquisition's error result
}

// merge combines two branch outcomes: the merged path still owns the
// value if either branch does, and is defer-covered only if every
// branch that still owns the value is.
func merge(a, b pstate) pstate {
	return pstate{
		live:     a.live || b.live,
		deferred: (!a.live || a.deferred) && (!b.live || b.deferred),
		errOK:    a.errOK && b.errOK,
	}
}

func (c *poolChecker) run() {
	c.evalBlock(c.fd.Body.List, pstate{})
}

// leak reports one leaking path (at most one finding per
// acquisition — the first path found).
func (c *poolChecker) leak(pos ast.Node, how string) {
	if c.reported {
		return
	}
	c.reported = true
	c.p.report(c.acqStmt.Pos(), "%s is not released on every path: %s at %s",
		c.acq.what, how, c.p.Fset.Position(pos.Pos()))
}

// evalBlock runs a statement list, returning the fall-through state
// and whether control diverted (return/panic/branch) before the end.
func (c *poolChecker) evalBlock(stmts []ast.Stmt, st pstate) (pstate, bool) {
	for _, s := range stmts {
		var term bool
		st, term = c.evalStmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (c *poolChecker) evalStmt(s ast.Stmt, st pstate) (pstate, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s == c.acqStmt {
			st.live = true
			st.errOK = c.errObj != nil
			return st, false
		}
		// Any other assignment to the error variable (a later Get
		// reusing err, say) ends the guard's connection to this
		// acquisition.
		if st.errOK {
			for _, lhs := range s.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && c.resolves(id, c.errObj) {
					st.errOK = false
				}
			}
		}
		// Overwriting the variable or aliasing it elsewhere transfers
		// or loses ownership in ways the walk does not model; treat
		// any appearance as ownership transfer.
		return c.scanExprs(s, st), false
	case *ast.ExprStmt:
		return c.evalExpr(s.X, st), false
	case *ast.DeferStmt:
		if st.live && c.isRelease(s.Call) {
			st.deferred = true
			return st, false
		}
		return c.scanExprs(s, st), false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if c.mentions(r) {
				st.live = false // returned: caller owns it now
			}
		}
		if st.live && !st.deferred {
			c.leak(s, "leaks at this return")
		}
		return st, true
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = c.evalStmt(s.Init, st)
		}
		st = c.evalExpr(s.Cond, st)
		// The error guard of this acquisition: on the branch where
		// err != nil the pooled value is nil, so nothing can leak
		// there.
		thenIn, elseIn := st, st
		if st.live && st.errOK {
			switch c.errGuard(s.Cond) {
			case errNonNil:
				thenIn.live = false
			case errIsNil:
				elseIn.live = false
			}
		}
		thenSt, thenTerm := c.evalBlock(s.Body.List, thenIn)
		elseSt, elseTerm := elseIn, false
		if s.Else != nil {
			elseSt, elseTerm = c.evalStmt(s.Else, elseIn)
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return merge(thenSt, elseSt), false
		}
	case *ast.BlockStmt:
		return c.evalBlock(s.List, st)
	case *ast.ForStmt:
		return c.evalLoop(s, s.Body, st, s.Cond == nil)
	case *ast.RangeStmt:
		return c.evalLoop(s, s.Body, st, false)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.evalSwitch(s, st)
	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "continue":
			if st.live && !st.deferred && c.inStmt(c.enclosingLoopBody(s)) {
				c.leak(s, "leaks when the loop continues")
			}
			return st, true
		case "break":
			// The state escapes to after the loop; handled
			// conservatively by the loop merge below.
			return st, true
		case "fallthrough":
			return st, false
		}
		return st, true
	case *ast.LabeledStmt:
		return c.evalStmt(s.Stmt, st)
	case *ast.GoStmt:
		return c.scanExprs(s, st), false
	case *ast.SendStmt:
		return c.scanExprs(s, st), false
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		return c.scanExprs(s, st), false
	default:
		return c.scanExprs(s, st), false
	}
}

// evalLoop processes a for/range body. A value acquired inside the
// body must be dead again by the end of each iteration (the next
// iteration re-acquires over it); a value acquired before the loop
// stays in whatever merged state body and zero-iteration entry
// produce.
func (c *poolChecker) evalLoop(loop ast.Stmt, body *ast.BlockStmt, st pstate, infinite bool) (pstate, bool) {
	acqInside := c.inRange(loop.Pos(), loop.End())
	bodySt, bodyTerm := c.evalBlock(body.List, st)
	if acqInside && bodySt.live && !bodySt.deferred && !bodyTerm {
		c.leak(body, "still unreleased at the end of a loop iteration that re-acquires")
	}
	if infinite {
		// for{}: fall-through only via break; assume the breaker's
		// state (approximated by the body state).
		return merge(st, bodySt), false
	}
	return merge(st, bodySt), false
}

// evalSwitch merges all case bodies of a switch/select.
func (c *poolChecker) evalSwitch(s ast.Stmt, st pstate) (pstate, bool) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = c.evalStmt(s.Init, st)
		}
		if s.Tag != nil {
			st = c.evalExpr(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	out := pstate{}
	any, allTerm := false, true
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			stmts = cl.Body
		}
		cs, term := c.evalBlock(stmts, st)
		if !term {
			allTerm = false
			if any {
				out = merge(out, cs)
			} else {
				out, any = cs, true
			}
		}
	}
	if !hasDefault {
		// The switch may not match any case.
		if any {
			out = merge(out, st)
		} else {
			out, any = st, true
		}
		allTerm = false
	}
	if !any && allTerm {
		return st, true
	}
	return out, false
}

// evalExpr interprets one expression statement's effect on the
// tracked value: release, ownership transfer, or nothing.
func (c *poolChecker) evalExpr(e ast.Expr, st pstate) pstate {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if ok && st.live && c.isRelease(call) {
		st.live = false
		return st
	}
	return c.scanNode(e, st)
}

// isRelease reports whether call releases the tracked value: a
// release method ON it, or a release function taking it.
func (c *poolChecker) isRelease(call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok && c.isTracked(base) && c.acq.releaseMethods[sel.Sel.Name] {
			return true
		}
		if c.acq.releaseFuncs[sel.Sel.Name] {
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && c.isTracked(id) {
					return true
				}
			}
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && c.acq.releaseFuncs[id.Name] {
		for _, arg := range call.Args {
			if a, ok := ast.Unparen(arg).(*ast.Ident); ok && c.isTracked(a) {
				return true
			}
		}
	}
	return false
}

// scanExprs applies scanNode to a whole statement.
func (c *poolChecker) scanExprs(s ast.Stmt, st pstate) pstate {
	return c.scanNode(s, st)
}

// scanNode looks for uses of the tracked value that transfer
// ownership: passed as a call argument (other than to a release),
// stored anywhere, captured by a closure, sent on a channel, or
// address-taken. Method calls and field reads on the value itself do
// not transfer.
func (c *poolChecker) scanNode(n ast.Node, st pstate) pstate {
	if !st.live {
		return st
	}
	escaped := false
	ast.Inspect(n, func(x ast.Node) bool {
		if escaped {
			return false
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			if c.isRelease(x) {
				// A conditional release inside a larger construct:
				// treat as done for this scan.
				escaped = true
				return false
			}
			for _, arg := range x.Args {
				if c.mentionsDirect(arg) {
					escaped = true
					return false
				}
			}
			// Recurse into receiver expressions and nested calls but
			// not into args already vetted.
			return true
		case *ast.SelectorExpr:
			// v.field / v.Method: plain use, skip the base ident so
			// the Ident case below does not misfire.
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && c.isTracked(id) {
				return false
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "&" && c.mentionsDirect(x.X) {
				escaped = true
				return false
			}
		case *ast.KeyValueExpr, *ast.CompositeLit, *ast.SendStmt, *ast.FuncLit:
			if c.mentions(x) {
				escaped = true
				return false
			}
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				if c.mentionsDirect(r) {
					escaped = true
					return false
				}
			}
		case *ast.BinaryExpr:
			// Comparisons and arithmetic never transfer ownership.
			return true
		}
		return true
	})
	if escaped {
		st.live = false
	}
	return st
}

// mentionsDirect reports whether e IS the tracked identifier (after
// removing parens).
func (c *poolChecker) mentionsDirect(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && c.isTracked(id)
}

// mentions reports whether the tracked identifier occurs anywhere
// under n.
func (c *poolChecker) mentions(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && c.isTracked(id) {
			found = true
		}
		return !found
	})
	return found
}

// isTracked reports whether id resolves to the tracked object.
func (c *poolChecker) isTracked(id *ast.Ident) bool {
	return c.resolves(id, c.obj)
}

// resolves reports whether id denotes obj.
func (c *poolChecker) resolves(id *ast.Ident, obj types.Object) bool {
	if obj == nil {
		return false
	}
	got := c.p.Info.Uses[id]
	if got == nil {
		got = c.p.Info.Defs[id]
	}
	return got == obj
}

// Guard polarities for errGuard.
const (
	errUnknown = iota
	errNonNil  // condition is `err != nil`
	errIsNil   // condition is `err == nil`
)

// errGuard classifies cond as a nil check on the acquisition's error
// variable.
func (c *poolChecker) errGuard(cond ast.Expr) int {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return errUnknown
	}
	op := be.Op.String()
	if op != "!=" && op != "==" {
		return errUnknown
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	isErr := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && c.resolves(id, c.errObj)
	}
	isNil := func(e ast.Expr) bool {
		tv, ok := c.p.Info.Types[e]
		return ok && tv.IsNil()
	}
	if (isErr(x) && isNil(y)) || (isErr(y) && isNil(x)) {
		if op == "!=" {
			return errNonNil
		}
		return errIsNil
	}
	return errUnknown
}

// inStmt reports whether the acquisition lies inside stmt.
func (c *poolChecker) inStmt(s ast.Stmt) bool {
	if s == nil {
		return false
	}
	return c.inRange(s.Pos(), s.End())
}

// inRange reports whether the acquisition lies inside [pos, end].
func (c *poolChecker) inRange(pos, end token.Pos) bool {
	return pos <= c.acqStmt.Pos() && c.acqStmt.End() <= end
}

// enclosingLoopBody finds the innermost for/range statement
// containing n within the checked function.
func (c *poolChecker) enclosingLoopBody(n ast.Node) ast.Stmt {
	var best ast.Stmt
	ast.Inspect(c.fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.ForStmt:
			if x.Pos() <= n.Pos() && n.End() <= x.End() {
				best = x
			}
		case *ast.RangeStmt:
			if x.Pos() <= n.Pos() && n.End() <= x.End() {
				best = x
			}
		}
		return true
	})
	return best
}
