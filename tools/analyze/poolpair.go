package main

// poolpair: every pooled acquisition must reach its release on every
// path out of the acquiring function — the static complement of
// fabric.Pool.CheckLeaks, which only catches unbalanced Get/Release
// on paths a test happens to drive.
//
// Tracked pairs (matched by package and type NAME so fixtures can
// stand in for the real packages):
//
//	fabric.Pool.Get              -> Buffer.Release() (or defer)
//	hw.NIC.getFrag               -> putFrag(f)
//	rfsrv.Server.getWork         -> Server.putWork(w)
//	rfsrv.Cluster.startPublish   -> Cluster.finishPublish(p, pub, err)
//	rfsrv.Server.postPayload(w)  -> Server.landPayload(p, w)
//
// The publish pair holds no pooled memory but a control slot: a started
// size publish keeps every target's control path until its finish
// collects the round, so a path that skips the finish wedges the next
// fan on those servers.
//
// The payload pair parks a posted receive (and the fresh frames under
// it) on a work record the caller already holds, so it tracks the
// argument, not a result, and it crosses processes: the receiver that
// posts it hands the record on, and serve — the taker, which is given
// the record as its parameter w — must land it on every path before the
// record is recycled. A record is passed to nearly every serving
// helper, so for this pair passing it along is no hand-off (strict):
// only the release, a store, a channel send, a closure or a return is.
//
// Ownership transfer counts as a release: storing the value into a
// field, slice, map or channel, passing it to any function, or
// returning it hands responsibility to the new holder (refill storing
// a receiver's bounce in its inbox is fine — the receiver keeps it for
// good, and no request takes it along; so is reply appending a posted
// header's staging to Server.staged — its sweep releases it once the
// send is Done — while the failed-send arm of the same function must,
// and does, release on the spot; the fixtures pin both). What the analyzer rejects is a path where
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
	// fromArg, when > 0, tracks argument fromArg-1 instead of a result:
	// the acquisition parks its resource on a record the caller holds.
	fromArg int
	// takers maps the methods of the acquiring type that are handed a
	// record holding the resource to the parameter it arrives in: each
	// owns it from entry, the far side of a hand-off no one function's
	// path walk sees whole.
	takers map[string]string
	// strict: passing the value to a function hands nothing off.
	strict bool
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
	{
		pkg: "rfsrv", typ: "Cluster", method: "startPublish", resultIdx: 0,
		releaseFuncs: map[string]bool{"finishPublish": true},
		what:         "Cluster.startPublish",
	},
	{
		pkg: "rfsrv", typ: "Server", method: "postPayload", fromArg: 3,
		releaseFuncs: map[string]bool{"landPayload": true},
		takers:       map[string]string{"serve": "w"},
		strict:       true,
		what:         "Server.postPayload",
	},
}

var poolPair = &Analyzer{
	Name: "poolpair",
	Doc:  "pooled acquisitions (fabric.Pool.Get, NIC fragments, server work records, started size publishes, posted payload receives) must release on all paths",
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

// checkPoolFunc finds every tracked acquisition in fd — and, when fd
// is a taker, the value its parameter arrives holding — and walks the
// function once per acquisition.
func (p *Pass) checkPoolFunc(fd *ast.FuncDecl) {
	p.checkTaker(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if es, ok := n.(*ast.ExprStmt); ok {
			p.checkArgAcq(fd, es)
			return true
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		acq := p.matchAcq(call)
		if acq == nil || acq.fromArg > 0 {
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
		c := &poolChecker{p: p, fd: fd, acq: acq, acqStmt: as, at: as.Pos(), obj: obj}
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

// checkArgAcq walks fd for an acquisition that tracks its argument,
// made as the expression statement es.
func (p *Pass) checkArgAcq(fd *ast.FuncDecl, es *ast.ExprStmt) {
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return
	}
	acq := p.matchAcq(call)
	if acq == nil || acq.fromArg == 0 || acq.fromArg > len(call.Args) {
		return
	}
	id, ok := ast.Unparen(call.Args[acq.fromArg-1]).(*ast.Ident)
	if !ok {
		return
	}
	if obj := p.Info.Uses[id]; obj != nil {
		(&poolChecker{p: p, fd: fd, acq: acq, acqStmt: es, at: es.Pos(), obj: obj}).run()
	}
}

// checkTaker walks fd from entry when it is a taker of an acquisition
// table entry: a method of the acquiring type whose named parameter
// arrives owning the resource.
func (p *Pass) checkTaker(fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return
	}
	recv := p.Info.TypeOf(fd.Recv.List[0].Type)
	for i := range poolAcqs {
		a := &poolAcqs[i]
		param, ok := a.takers[fd.Name.Name]
		if !ok || recv == nil || !typeIs(recv, a.pkg, a.typ) {
			continue
		}
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if name.Name == param && p.Info.Defs[name] != nil {
					(&poolChecker{p: p, fd: fd, acq: a, at: name.Pos(), obj: p.Info.Defs[name]}).run()
				}
			}
		}
	}
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
	acqStmt ast.Stmt  // nil for a taker, which owns the value from entry
	at      token.Pos // where findings are reported
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
// branch that still owns the value is. Where neither branch owns it
// (before the acquisition, say) nothing is covered: a defer flag
// carried out of such a merge would excuse every later leak.
func merge(a, b pstate) pstate {
	live := a.live || b.live
	return pstate{
		live:     live,
		deferred: live && (!a.live || a.deferred) && (!b.live || b.deferred),
		errOK:    a.errOK && b.errOK,
	}
}

func (c *poolChecker) run() {
	st, term := c.evalBlock(c.fd.Body.List, pstate{live: c.acqStmt == nil})
	if !term && st.live && !st.deferred {
		c.leak(c.fd.Body.Rbrace, "leaks when the function ends")
	}
}

// leak reports one leaking path (at most one finding per
// acquisition — the first path found).
func (c *poolChecker) leak(pos token.Pos, how string) {
	if c.reported {
		return
	}
	c.reported = true
	c.p.report(c.at, "%s is not released on every path: %s at %s",
		c.acq.what, how, c.p.Fset.Position(pos))
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
		if s == c.acqStmt {
			st.live = true
			return st, false
		}
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
			c.leak(s.Pos(), "leaks at this return")
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
				c.leak(s.Pos(), "leaks when the loop continues")
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
		c.leak(body.Pos(), "still unreleased at the end of a loop iteration that re-acquires")
	}
	if infinite && !breaksOut(body) {
		return st, true // for{} that nothing breaks: control never falls out
	}
	// A for{} falls through only via break; assume the breaker's state
	// (approximated by the body state).
	return merge(st, bodySt), false
}

// breaksOut reports whether body holds a break that can leave the loop
// it belongs to: an unlabeled break outside any nested loop, switch or
// select, or any labeled break (conservatively).
func breaksOut(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node, nested bool)
	walk = func(n ast.Node, nested bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			if found || x == nil {
				return false
			}
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if x != n {
					walk(x, true)
					return false
				}
			case *ast.BranchStmt:
				found = x.Tok == token.BREAK && (x.Label != nil || !nested)
			}
			return true
		})
	}
	walk(body, false)
	return found
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
				if (!c.acq.strict || c.isAppend(x)) && c.mentionsDirect(arg) {
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

// isAppend reports whether call is the builtin append, which stores its
// arguments — a hand-off even under the strict rule.
func (c *poolChecker) isAppend(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
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

// inRange reports whether the acquisition lies inside [pos, end] (a
// taker's never does).
func (c *poolChecker) inRange(pos, end token.Pos) bool {
	return c.acqStmt != nil && pos <= c.acqStmt.Pos() && c.acqStmt.End() <= end
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
