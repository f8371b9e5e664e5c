package rfsrv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestClusterHoldsNoServer keeps the wire the only channel between the
// cluster client and its servers: no non-test file of this package that
// declares *Cluster methods may import the backing store or name the
// Server type.
func TestClusterHoldsNoServer(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if !declaresClusterMethods(f) {
			continue
		}
		checked++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/memfs"` {
				t.Errorf("%s: client code imports the backing store", fset.Position(imp.Pos()))
			}
		}
		selected := make(map[*ast.Ident]bool) // x.Server names something else
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selected[sel.Sel] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "Server" && !selected[id] {
				t.Errorf("%s: client code uses the Server type", fset.Position(id.Pos()))
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no file declares *Cluster methods: the guard checks nothing")
	}
}

// declaresClusterMethods reports whether f declares a method on Cluster
// or *Cluster.
func declaresClusterMethods(f *ast.File) bool {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || len(fn.Recv.List) == 0 {
			continue
		}
		typ := fn.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if id, ok := typ.(*ast.Ident); ok && id.Name == "Cluster" {
			return true
		}
	}
	return false
}
