package main

// opexhaustive: protocol op and status tables must stay fully wired.
// A new Op* constant (lease callbacks, say, which are deferred)
// must appear in the opNames table, the server dispatch, and the
// resync replay engine before it ships; a new St* status must map to
// a typed error. Half-wired ops historically surface as StIO at soak
// time — this moves the check to compile time.
//
// Surfaces are marked with a directive comment on the line above a
// switch statement or a map composite literal:
//
//	//analyze:dispatch <class> [group=<name>] [-Excluded]...
//
// class is "ops" (universe: Op*-prefixed constants) or "statuses"
// (St*-prefixed). The universe is every package-level constant of
// the first case label's (or map key's) type and prefix, drawn from
// the package that declares that type. A surface must cover the
// whole universe minus its explicit -Exclusions; surfaces sharing a
// group=<name> are unioned first (the server's meta dispatch plus
// serve's one read/write/metadata switch together cover every op). An
// exclusion that IS covered is reported too, and so is one that names
// no constant of the family (its constant was deleted) — stale
// exclusions rot.
//
// The rfsrv package itself must declare at least one "ops" and one
// "statuses" surface: deleting the annotations cannot silently
// disable the gate.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var opExhaustive = &Analyzer{
	Name: "opexhaustive",
	Doc:  "annotated op/status dispatch surfaces must be exhaustive over their constant family",
	Run:  runOpExhaustive,
}

// dispatchClass describes one constant family.
type dispatchClass struct {
	name   string
	prefix string
}

var dispatchClasses = map[string]dispatchClass{
	"ops":      {name: "ops", prefix: "Op"},
	"statuses": {name: "statuses", prefix: "St"},
}

// surface is one annotated dispatch site, parsed and resolved.
type surface struct {
	pos      token.Pos
	class    dispatchClass
	group    string
	excluded map[string]bool
	covered  map[string]bool
	universe map[string]token.Pos // const name -> declaration position
	desc     string
}

func runOpExhaustive(p *Pass) {
	var surfaces []*surface
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				if s := p.parseDispatch(f, n.Pos(), n.Body, nil); s != nil {
					surfaces = append(surfaces, s)
				}
			case *ast.GenDecl, *ast.AssignStmt, *ast.ValueSpec:
				// Map literal surfaces are found through their
				// composite literal below.
			case *ast.CompositeLit:
				if s := p.parseMapDispatch(f, n); s != nil {
					surfaces = append(surfaces, s)
				}
			}
			return true
		})
	}
	p.checkSurfaces(surfaces)
	if p.Pkg.Name() == "rfsrv" {
		for _, class := range []string{"ops", "statuses"} {
			found := false
			for _, s := range surfaces {
				if s.class.name == class {
					found = true
					break
				}
			}
			if !found && len(p.Files) > 0 {
				p.report(p.Files[0].Package, "package rfsrv declares no //analyze:dispatch %s surface: the exhaustiveness gate is disabled", class)
			}
		}
	}
}

// parseDispatch builds a surface from an annotated switch statement.
// cover, when non-nil, pre-seeds the covered set (used by the map
// form).
func (p *Pass) parseDispatch(f *ast.File, pos token.Pos, body *ast.BlockStmt, cover map[string]bool) *surface {
	s := p.parseDirective(f, pos)
	if s == nil {
		return nil
	}
	s.covered = cover
	if s.covered == nil {
		s.covered = map[string]bool{}
	}
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			p.addCovered(s, e)
		}
	}
	if s.universe == nil {
		p.report(pos, "//analyze:dispatch %s: no case label resolves to a %s* constant, cannot determine the constant family", s.class.name, s.class.prefix)
		return nil
	}
	return s
}

// parseMapDispatch builds a surface from an annotated map composite
// literal (the opNames table form).
func (p *Pass) parseMapDispatch(f *ast.File, lit *ast.CompositeLit) *surface {
	tv, ok := p.Info.Types[lit]
	if !ok || !isMapType(tv.Type) {
		return nil
	}
	// The directive may sit above the literal itself or above the
	// enclosing var declaration; try the literal's line first, then
	// the var keyword's.
	s := p.parseDirective(f, lit.Pos())
	if s == nil {
		return nil
	}
	s.covered = map[string]bool{}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		p.addCovered(s, kv.Key)
	}
	if s.universe == nil {
		p.report(lit.Pos(), "//analyze:dispatch %s: no map key resolves to a %s* constant, cannot determine the constant family", s.class.name, s.class.prefix)
		return nil
	}
	return s
}

// parseDirective parses the //analyze:dispatch comment directly above
// pos, if any.
func (p *Pass) parseDirective(f *ast.File, pos token.Pos) *surface {
	cg := commentBefore(f, p.Fset, pos)
	if cg == nil {
		return nil
	}
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, "//analyze:dispatch ")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			p.report(c.Pos(), "//analyze:dispatch without a class (ops or statuses)")
			return nil
		}
		class, ok := dispatchClasses[fields[0]]
		if !ok {
			p.report(c.Pos(), "//analyze:dispatch %s: unknown class (want ops or statuses)", fields[0])
			return nil
		}
		s := &surface{pos: pos, class: class, excluded: map[string]bool{}}
		for _, fld := range fields[1:] {
			switch {
			case strings.HasPrefix(fld, "group="):
				s.group = strings.TrimPrefix(fld, "group=")
			case strings.HasPrefix(fld, "-"):
				s.excluded[strings.TrimPrefix(fld, "-")] = true
			default:
				p.report(c.Pos(), "//analyze:dispatch: unrecognized field %q (want group=<name> or -<Const>)", fld)
			}
		}
		s.desc = fmt.Sprintf("%s surface", class.name)
		if s.group != "" {
			s.desc = fmt.Sprintf("%s surface (group %s)", class.name, s.group)
		}
		return s
	}
	return nil
}

// addCovered resolves one case label or map key to a constant of the
// surface's family, recording it and (on first resolution) the
// family's universe.
func (p *Pass) addCovered(s *surface, e ast.Expr) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		if sel, isSel := ast.Unparen(e).(*ast.SelectorExpr); isSel {
			id = sel.Sel
		} else {
			return
		}
	}
	obj, ok := p.Info.Uses[id].(*types.Const)
	if !ok || !strings.HasPrefix(obj.Name(), s.class.prefix) {
		return
	}
	s.covered[obj.Name()] = true
	if s.universe == nil {
		s.universe = constFamily(obj, s.class.prefix)
	}
}

// constFamily collects every package-level constant in sample's
// package that shares sample's type and the class prefix.
func constFamily(sample *types.Const, prefix string) map[string]token.Pos {
	pkg := sample.Pkg()
	if pkg == nil {
		return nil
	}
	out := map[string]token.Pos{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, prefix) {
			continue
		}
		if !types.Identical(c.Type(), sample.Type()) {
			continue
		}
		// Lower-case follow-on (Opq...) can slip a prefix match; the
		// families are ASCII UpperCamel, so require an upper or digit
		// after the prefix... except exact-prefix names never occur.
		out[name] = c.Pos()
	}
	return out
}

// checkSurfaces unions grouped surfaces and reports uncovered and
// stale-excluded constants.
func (p *Pass) checkSurfaces(surfaces []*surface) {
	grouped := map[string][]*surface{}
	for _, s := range surfaces {
		key := ""
		if s.group != "" {
			key = s.class.name + "/" + s.group
		}
		if key == "" {
			p.checkOne(s, s.covered, s.excluded)
			continue
		}
		grouped[key] = append(grouped[key], s)
	}
	keys := make([]string, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		group := grouped[k]
		covered := map[string]bool{}
		excluded := map[string]bool{}
		for _, s := range group {
			for name := range s.covered {
				covered[name] = true
			}
			for name := range s.excluded {
				excluded[name] = true
			}
		}
		p.checkOne(group[0], covered, excluded)
	}
}

// checkOne verifies one (possibly unioned) surface against its
// universe.
func (p *Pass) checkOne(s *surface, covered, excluded map[string]bool) {
	names := make([]string, 0, len(s.universe))
	for name := range s.universe {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch {
		case covered[name] && excluded[name]:
			p.report(s.pos, "%s excludes -%s but covers it: remove the stale exclusion", s.desc, name)
		case !covered[name] && !excluded[name]:
			p.report(s.pos, "%s does not handle %s (declared at %s): wire it or exclude it explicitly with -%s",
				s.desc, name, p.Fset.Position(s.universe[name]), name)
		}
	}
	var ghosts []string
	for name := range excluded {
		if _, ok := s.universe[name]; !ok {
			ghosts = append(ghosts, name)
		}
	}
	sort.Strings(ghosts)
	for _, name := range ghosts {
		p.report(s.pos, "%s excludes -%s, which is no %s constant: remove the stale exclusion", s.desc, name, s.class.name)
	}
}
