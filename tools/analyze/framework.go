package main

// The analyzer framework: the Analyzer registry, the per-package
// Pass with its type information, finding collection, and the
// //analyze:allow baseline machinery shared by every analyzer.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one invariant checker. Run inspects the Pass and
// reports findings through Pass.report.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// analyzers is the registry, in the order findings sort within one
// position.
var analyzers = []*Analyzer{
	simDeterminism,
	poolPair,
	opExhaustive,
	lockOrder,
	allocFree,
	boundedWait,
}

// Finding is one reported invariant violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

// Pass carries one loaded package through the analyzers.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *types.Package
	Files []*ast.File
	Info  *types.Info

	analyzer *Analyzer
	findings []Finding
	allows   map[string]map[int]allowLine // file -> line -> allow
}

// allowLine is one parsed //analyze:allow comment.
type allowLine struct {
	analyzer string
	reason   string
}

// newPass builds a Pass and indexes its baseline comments.
func newPass(fset *token.FileSet, pkg *types.Package, files []*ast.File, info *types.Info) *Pass {
	p := &Pass{Fset: fset, Pkg: pkg, Files: files, Info: info,
		allows: map[string]map[int]allowLine{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//analyze:allow ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				byLine := p.allows[pos.Filename]
				if byLine == nil {
					byLine = map[int]allowLine{}
					p.allows[pos.Filename] = byLine
				}
				byLine[pos.Line] = allowLine{analyzer: name, reason: strings.TrimSpace(reason)}
				if strings.TrimSpace(reason) == "" {
					p.findings = append(p.findings, Finding{
						Pos:      pos,
						Analyzer: name,
						Msg:      "//analyze:allow without a reason — state why the finding is acceptable",
					})
				}
			}
		}
	}
	return p
}

// report files a finding at pos unless a matching baseline comment
// sits on the same line or the line above.
func (p *Pass) report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if byLine := p.allows[position.Filename]; byLine != nil {
		for _, line := range []int{position.Line, position.Line - 1} {
			if a, ok := byLine[line]; ok && a.analyzer == p.analyzer.Name && a.reason != "" {
				return
			}
		}
	}
	p.findings = append(p.findings, Finding{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// callee resolves the called function or method of a call expression,
// or nil for calls through function values and type conversions.
func (p *Pass) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isPkgCall reports whether call invokes a package-level function of
// the package with import path pkgPath, returning its name.
func (p *Pass) isPkgCall(call *ast.CallExpr, pkgPath string) (string, bool) {
	f := p.callee(call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return "", false
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false // method, not a package-level function
	}
	return f.Name(), true
}

// namedOf unwraps pointers and aliases down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		t = types.Unalias(t)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		n, _ := t.(*types.Named)
		return n
	}
}

// typeIs reports whether t (possibly behind pointers) is the named
// type typeName declared in a package named pkgName. Matching is by
// package name, not path, so fixture packages can stand in for the
// real ones in tests.
func typeIs(t types.Type, pkgName, typeName string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// funcDoc returns the doc comment group of a function declaration,
// tolerating nil.
func funcDoc(fd *ast.FuncDecl) []*ast.Comment {
	if fd.Doc == nil {
		return nil
	}
	return fd.Doc.List
}

// commentOnLine returns the comment group whose last line is exactly
// line-1 or that starts on line, used to find directive comments
// attached to arbitrary statements.
func commentBefore(f *ast.File, fset *token.FileSet, pos token.Pos) *ast.CommentGroup {
	line := fset.Position(pos).Line
	for _, cg := range f.Comments {
		if fset.Position(cg.End()).Line == line-1 {
			return cg
		}
	}
	return nil
}
