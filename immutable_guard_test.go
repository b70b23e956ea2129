package cutfit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGraphIsImmutable keeps graph.Graph immutable once its constructor
// returns: no method with a *Graph receiver may assign to a field of its
// receiver (or to an element reached through one), except inside a func
// literal handed to a viewOnce's do or tryDo — the one place a lazy view is
// built, once, under that view's lock. A change of edges is a generation
// step that fills in a new Graph, never the receiver.
func TestGraphIsImmutable(t *testing.T) {
	dir := filepath.Join("internal", "graph")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	onceFields := viewOnceFields(files)
	if len(onceFields) < 10 {
		t.Fatalf("found %d viewOnce fields on Graph: the struct was not parsed", len(onceFields))
	}

	methods, builds := 0, 0
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !graphReceiver(fn) || len(fn.Recv.List[0].Names) == 0 {
				continue
			}
			methods++
			recv := fn.Recv.List[0].Names[0].Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if isViewBuild(n, recv, onceFields) {
						builds++
						return false // the build closure may fill the view's fields
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if writesReceiver(lhs, recv) {
							t.Errorf("%s: (*Graph).%s assigns to its receiver outside a view build", fset.Position(lhs.Pos()), fn.Name.Name)
						}
					}
				case *ast.IncDecStmt:
					if writesReceiver(n.X, recv) {
						t.Errorf("%s: (*Graph).%s assigns to its receiver outside a view build", fset.Position(n.Pos()), fn.Name.Name)
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN && (writesReceiver(n.Key, recv) || writesReceiver(n.Value, recv)) {
						t.Errorf("%s: (*Graph).%s assigns to its receiver outside a view build", fset.Position(n.Pos()), fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if methods < 50 || builds < 10 {
		t.Fatalf("scanned %d *Graph methods and %d view builds: the walk missed the package", methods, builds)
	}
}

// viewOnceFields names the fields of graph.Graph whose type is viewOnce.
func viewOnceFields(files []*ast.File) map[string]bool {
	out := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Graph" {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, field := range st.Fields.List {
				if id, ok := field.Type.(*ast.Ident); ok && id.Name == "viewOnce" {
					for _, name := range field.Names {
						out[name.Name] = true
					}
				}
			}
			return false
		})
	}
	return out
}

// graphReceiver reports whether fn is a method on *Graph.
func graphReceiver(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Graph"
}

// isViewBuild reports whether call is recv.<viewOnce field>.do(...) or
// .tryDo(...).
func isViewBuild(call *ast.CallExpr, recv string, onceFields map[string]bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "do" && sel.Sel.Name != "tryDo") {
		return false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok || !onceFields[field.Sel.Name] {
		return false
	}
	id, ok := field.X.(*ast.Ident)
	return ok && id.Name == recv
}

// writesReceiver reports whether assigning to e writes state the receiver
// owns: a field of it, or an element or pointee reached through one.
func writesReceiver(e ast.Expr, recv string) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == recv {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}
