package main

// lockorder: the package's lock-acquisition partial order is declared
// once, in a directive comment, and every function is checked against
// it:
//
//	//analyze:lockorder Session.win < FabricClient.lock
//
// Entities are Type.field pairs in the analyzed package; a pair that
// names no field of a struct type there is itself a finding (after a
// rename the declared order would otherwise check nothing, silently),
// and a trailing `// remark` on the directive line is ignored. An
// acquisition is x.<field>.Lock() / RLock() (sync.Mutex, RWMutex),
// x.<field>.Acquire(p) (sim.Resource used as a lock, fabric.Window
// used as a slot pool), or x.<field>.Recv(p) (sim.Chan used as a token
// pool — receiving a token IS taking the slot); the matching release
// is Unlock/RUnlock, Release, or Send of the token back. Declaring
// `A < B` means A must already be held when B is taken, never taken
// while B is held.
//
// Checked per function, with a one-level summary of same-package
// callees (a call to a function that acquires E counts as acquiring
// E at the call site):
//
//   - out-of-order nesting: acquiring A while holding B when A < B;
//   - re-entry: acquiring the same entity through the same receiver
//     expression while it is already held (self-deadlock for
//     non-reentrant locks; capacity-1 sim.Resources park forever);
//   - channel sends while holding any declared lock (a sim.Chan send
//     can park the holder; the only exempt send is the one returning
//     a held token, which is the release itself).
//
// Distinct instances of one entity (two servers' sessions) are NOT
// distinguished across calls, so re-entry is only checked against
// syntactically identical receiver chains within one function —
// fanning out over sessions[i] stays silent.

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

var lockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "declared lock order holds; no re-entry; no channel sends under a held lock",
	Run:  runLockOrder,
}

// lockEntity is one declared lock: a field of a type in the analyzed
// package.
type lockEntity struct {
	typ, field string
}

func (e lockEntity) String() string { return e.typ + "." + e.field }

// lockDecls is the parsed order declaration: before[A][B] means A
// must be acquired before B (transitively closed).
type lockDecls struct {
	entities map[lockEntity]bool
	before   map[lockEntity]map[lockEntity]bool
}

var acquireMethods = map[string]bool{"Lock": true, "RLock": true, "Acquire": true, "Recv": true}
var releaseMethods = map[string]bool{"Unlock": true, "RUnlock": true, "Release": true, "Send": true}

func runLockOrder(p *Pass) {
	decls := p.parseLockOrder()
	if decls == nil {
		return
	}
	summaries := p.lockSummaries(decls)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lc := &lockChecker{p: p, decls: decls, summaries: summaries}
			lc.walk(fd.Body, map[string]lockEntity{})
		}
	}
}

// parseLockOrder finds and parses every //analyze:lockorder comment
// in the package.
func (p *Pass) parseLockOrder() *lockDecls {
	d := &lockDecls{entities: map[lockEntity]bool{}, before: map[lockEntity]map[lockEntity]bool{}}
	found := false
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//analyze:lockorder ")
				if !ok {
					continue
				}
				found = true
				rest, _, _ = strings.Cut(rest, " //")
				var chain []lockEntity
				bad := false
				for _, part := range strings.Split(rest, "<") {
					typ, field, ok := strings.Cut(strings.TrimSpace(part), ".")
					if !ok || typ == "" || field == "" {
						p.report(c.Pos(), "//analyze:lockorder: %q is not Type.field", strings.TrimSpace(part))
						bad = true
						break
					}
					e := lockEntity{typ: typ, field: field}
					if !p.hasField(e) {
						p.report(c.Pos(), "//analyze:lockorder: package %s has no struct field %s — the declared order checks nothing", p.Pkg.Name(), e)
						bad = true
						break
					}
					chain = append(chain, e)
				}
				if bad {
					continue
				}
				for i, e := range chain {
					d.entities[e] = true
					for _, later := range chain[i+1:] {
						if d.before[e] == nil {
							d.before[e] = map[lockEntity]bool{}
						}
						d.before[e][later] = true
					}
				}
			}
		}
	}
	if !found {
		return nil
	}
	// Transitive closure over the declared chains.
	for changed := true; changed; {
		changed = false
		for a, bs := range d.before {
			for b := range bs {
				for c := range d.before[b] {
					if !d.before[a][c] {
						d.before[a][c] = true
						changed = true
					}
				}
			}
		}
	}
	return d
}

// hasField reports whether e names a field of a struct type declared
// in the analyzed package.
func (p *Pass) hasField(e lockEntity) bool {
	tn, ok := p.Pkg.Scope().Lookup(e.typ).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := range st.NumFields() {
		if st.Field(i).Name() == e.field {
			return true
		}
	}
	return false
}

// lockSummaries builds, per package-level function, the set of
// declared entities it may acquire anywhere inside (one level deep —
// callees' callees are not chased).
func (p *Pass) lockSummaries(decls *lockDecls) map[types.Object]map[lockEntity]bool {
	direct := map[types.Object]map[lockEntity]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := p.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			acq := map[lockEntity]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if e, _, isAcq := p.lockSite(decls, call); isAcq {
					acq[e] = true
				}
				return true
			})
			if len(acq) > 0 {
				direct[obj] = acq
			}
		}
	}
	return direct
}

// lockSite matches a call against the declared entities: it returns
// the entity, the receiver-chain spelling, and whether the call
// acquires (true) or releases (false matches only when the returned
// entity is valid, indicated by ok).
func (p *Pass) lockSite(decls *lockDecls, call *ast.CallExpr) (e lockEntity, recv string, acquire bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEntity{}, "", false
	}
	method := sel.Sel.Name
	if !acquireMethods[method] && !releaseMethods[method] {
		return lockEntity{}, "", false
	}
	fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockEntity{}, "", false
	}
	base := fieldSel.X
	tv, ok := p.Info.Types[base]
	if !ok {
		return lockEntity{}, "", false
	}
	n := namedOf(tv.Type)
	if n == nil {
		return lockEntity{}, "", false
	}
	ent := lockEntity{typ: n.Obj().Name(), field: fieldSel.Sel.Name}
	if !decls.entities[ent] {
		return lockEntity{}, "", false
	}
	return ent, exprString(p.Fset, sel.X), acquireMethods[method]
}

// lockChecker walks one function tracking held locks. held maps the
// receiver-chain spelling to its entity.
type lockChecker struct {
	p         *Pass
	decls     *lockDecls
	summaries map[types.Object]map[lockEntity]bool
}

// walk processes a statement or expression subtree linearly. Branch
// structure is deliberately ignored: acquisitions and releases in Go
// lock discipline are overwhelmingly straight-line or deferred, and a
// linear scan with defer handling keeps the checker predictable.
func (lc *lockChecker) walk(n ast.Node, held map[string]lockEntity) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.DeferStmt:
			// A deferred release drops the lock at function exit, not
			// here; for nesting purposes the lock stays held for the
			// rest of the function, which is exactly how we model it:
			// skip the defer's release effect.
			if e, _, isAcq := lc.p.lockSite(lc.decls, x.Call); !isAcq && lc.decls.entities[e] {
				return false
			}
			return true
		case *ast.CallExpr:
			lc.checkCall(x, held)
			return true
		case *ast.SendStmt:
			if len(held) > 0 {
				lc.p.report(x.Pos(), "channel send while holding %s: a blocked receiver parks the lock holder", heldNames(held))
			}
			return true
		case *ast.FuncLit:
			// A closure runs later with its own lock context.
			return false
		}
		return true
	})
}

// checkCall applies acquire/release/summary effects of one call.
func (lc *lockChecker) checkCall(call *ast.CallExpr, held map[string]lockEntity) {
	if e, recv, isAcq := lc.p.lockSite(lc.decls, call); lc.decls.entities[e] {
		if isAcq {
			if cur, ok := held[recv]; ok && cur == e {
				lc.p.report(call.Pos(), "re-entrant acquisition of %s via %s: already held on this path", e, recv)
			}
			for _, h := range held {
				if h != e && lc.decls.before[e][h] {
					lc.p.report(call.Pos(), "lock order violation: acquiring %s while holding %s (declared order: %s < %s)", e, h, e, h)
				}
			}
			// The Recv acquisition form IS a channel receive on a
			// token pool; further sends under it are checked below.
			held[recv] = e
		} else {
			delete(held, recv)
		}
		return
	}
	// Send on a sim.Chan while holding a lock: the exempt case — the
	// send that returns a held token — was handled above as release.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Send" && len(held) > 0 {
		if tv, ok := lc.p.Info.Types[sel.X]; ok && typeIs(tv.Type, "sim", "Chan") {
			lc.p.report(call.Pos(), "sim.Chan send while holding %s: a full channel parks the lock holder", heldNames(held))
			return
		}
	}
	// One-level summary: a same-package callee that acquires declared
	// entities counts as acquiring them here.
	f := lc.p.callee(call)
	if f == nil || f.Pkg() != lc.p.Pkg {
		return
	}
	for e := range lc.summaries[f] {
		for _, h := range held {
			if h != e && lc.decls.before[e][h] {
				lc.p.report(call.Pos(), "lock order violation: %s acquires %s while %s is held here (declared order: %s < %s)", f.Name(), e, h, e, h)
			}
		}
	}
}

// heldNames renders the held set for diagnostics.
func heldNames(held map[string]lockEntity) string {
	seen := map[string]bool{}
	var names []string
	for _, e := range held {
		if !seen[e.String()] {
			seen[e.String()] = true
			names = append(names, e.String())
		}
	}
	if len(names) > 1 {
		// Deterministic output.
		for i := 1; i < len(names); i++ {
			for j := i; j > 0 && names[j] < names[j-1]; j-- {
				names[j], names[j-1] = names[j-1], names[j]
			}
		}
	}
	return strings.Join(names, ", ")
}

// exprString renders an expression for receiver-identity comparison.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}
