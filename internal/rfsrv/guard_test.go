package rfsrv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
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

// TestOneCompletionPath keeps the client's one issue path and one
// retire path (client.go): a reply header is decoded (finish) only
// where a flight retires (retire) or is drained after a fault
// (quiesceHdr), and a request leaves (postHdr, sendEnc) only from
// issue, its encoder sendReq and the combined batch (startBatch). A
// new caller is a second completion or issue path.
func TestOneCompletionPath(t *testing.T) {
	allowed := map[string][]string{
		"finish":  {"retire", "quiesceHdr"},
		"postHdr": {"issue", "startBatch"},
		"sendEnc": {"sendReq", "startBatch"},
	}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	calls := map[string]int{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				callers, guarded := allowed[sel.Sel.Name]
				if !guarded {
					return true
				}
				calls[sel.Sel.Name]++
				if !slices.Contains(callers, fn.Name.Name) {
					t.Errorf("%s: %s calls %s; only %v may", fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name, callers)
				}
				return true
			})
		}
	}
	for name := range allowed {
		if calls[name] == 0 {
			t.Errorf("no call of %s found: the guard checks nothing", name)
		}
	}
}

// TestOneBatchDriver keeps one combined-batch driver for both
// namespaces: runShares has exactly one caller, MetaBatch (a second
// caller is a second batch path), and elastic.go asks the placement
// which members hold a name instead of branching on the cluster's
// namespace mode (cl.pl.sharded).
func TestOneBatchDriver(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var callers []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "runShares" {
						callers = append(callers, fn.Name.Name)
					}
				}
				if path == "elastic.go" && isClusterModeRead(n) {
					t.Errorf("%s: elastic.go reads cl.pl.sharded; ask the placement (nsGroup, nsRank)", fset.Position(n.Pos()))
				}
				return true
			})
		}
	}
	if !slices.Equal(callers, []string{"MetaBatch"}) {
		t.Errorf("runShares callers = %v, want exactly [MetaBatch]", callers)
	}
}

// TestOneReinstatePath keeps readmission on one path. Every cluster
// owns a membership view from construction, so no code compares a
// cluster's view with nil, directly or through a variable that holds
// it. Journal replay is combined batches, so no function named replay*
// makes a serial round trip (syncMeta). Journal replay is the only
// readmission: the one cluster method Reinstate calls is replayJournal,
// and no identifier is named fullResync or spilled.
func TestOneReinstatePath(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	replays := 0
	var readmits []string // the cluster methods Reinstate calls
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "fullResync" || id.Name == "spilled") {
				t.Errorf("%s: %s names a second readmission path", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name == "Reinstate" && fn.Recv != nil && len(fn.Recv.List[0].Names) == 1 {
				recv := fn.Recv.List[0].Names[0].Name
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
							if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
								readmits = append(readmits, sel.Sel.Name)
							}
						}
					}
					return true
				})
			}
			replay := strings.HasPrefix(fn.Name.Name, "replay")
			if replay {
				replays++
			}
			held := make(map[string]bool) // locals assigned a view field
			isView := func(e ast.Expr) bool {
				if id, ok := e.(*ast.Ident); ok {
					return held[id.Name]
				}
				sel, ok := e.(*ast.SelectorExpr)
				return ok && sel.Sel.Name == "view"
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for k, rhs := range n.Rhs {
						if id, ok := n.Lhs[k].(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) && isView(rhs) {
							held[id.Name] = true
						}
					}
				case *ast.BinaryExpr:
					if (n.Op == token.EQL || n.Op == token.NEQ) && (isNil(n.X) && isView(n.Y) || isNil(n.Y) && isView(n.X)) {
						t.Errorf("%s: %s compares a cluster's view with nil; every cluster owns one", fset.Position(n.Pos()), fn.Name.Name)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && replay && sel.Sel.Name == "syncMeta" {
						t.Errorf("%s: %s replays through syncMeta; replay is combined batches", fset.Position(n.Pos()), fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if replays == 0 {
		t.Error("no replay* function found: the guard checks nothing")
	}
	if !slices.Equal(readmits, []string{"replayJournal"}) {
		t.Errorf("Reinstate calls the cluster methods %v, want only replayJournal", readmits)
	}
}

// isNil reports whether e is the identifier nil.
func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isClusterModeRead reports whether n is the selector cl.pl.sharded.
func isClusterModeRead(n ast.Node) bool {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "sharded" {
		return false
	}
	pl, ok := sel.X.(*ast.SelectorExpr)
	if !ok || pl.Sel.Name != "pl" {
		return false
	}
	cl, ok := pl.X.(*ast.Ident)
	return ok && cl.Name == "cl"
}
