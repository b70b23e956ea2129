package cutfit_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"testing"
)

// A second spelling of an operation that already has a door is one more
// method every later change to the request path (contexts, deadlines,
// tracing) has to find and carry. These guards keep one door per way of
// changing a graph's edges; they parse the source and run nothing.

// TestOneGraphStep: the exported methods of *graph.Graph that return
// (*Graph, Delta, …) are Grow (append), Shrink (retract by value) and
// SlideWindow, the general step — SlideWindow(e, 0) is an append and
// SlideWindow(nil, n) an expiry.
func TestOneGraphStep(t *testing.T) {
	fset, files := packageFiles(t, filepath.Join("internal", "graph"))
	checkDoors(t, fset, files, "Graph", []string{"*Graph", "Delta"}, []string{"Grow", "Shrink", "SlideWindow"})
}

// TestOneSessionStep: the methods of *cutfit.Session that return
// (*Graph, error) are AppendEdges, RemoveEdges and SlideWindow, one per
// graph step, each recording the step's delta.
func TestOneSessionStep(t *testing.T) {
	fset, files := rootFiles(t)
	checkDoors(t, fset, files, "Session", []string{"*Graph", "error"}, []string{"AppendEdges", "RemoveEdges", "SlideWindow"})
}

// checkDoors fails on every exported method of *recv whose results begin
// with prefix and is not in allowed, and on every allowed name it does not
// find: a guard that no longer sees the doors it keeps guards nothing.
func checkDoors(t *testing.T, fset *token.FileSet, files []*ast.File, recv string, prefix, allowed []string) {
	t.Helper()
	found := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || fn.Type.Results == nil ||
				types.ExprString(fn.Recv.List[0].Type) != "*"+recv {
				continue
			}
			var results []string
			for _, r := range fn.Type.Results.List {
				for range max(len(r.Names), 1) {
					results = append(results, types.ExprString(r.Type))
				}
			}
			if len(results) < len(prefix) || !slices.Equal(results[:len(prefix)], prefix) {
				continue
			}
			found[fn.Name.Name] = true
			if !slices.Contains(allowed, fn.Name.Name) {
				t.Errorf("%s: (*%s).%s is a second door to a graph step; use one of %v", fset.Position(fn.Pos()), recv, fn.Name.Name, allowed)
			}
		}
	}
	for _, name := range allowed {
		if !found[name] {
			t.Errorf("(*%s).%s returning %v not found: the guard no longer sees the steps it keeps", recv, name, prefix)
		}
	}
}
