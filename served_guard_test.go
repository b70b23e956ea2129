package cutfit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cutfit/internal/algorithms"
)

// TestNoAlgorithmSwitchOutsideTheTable keeps algorithm dispatch in one place:
// no non-test Go file outside internal/algorithms (the table) and benchmark/
// (the independent oracle side) may switch on, or compare against, a served
// algorithm's name as a string literal, or declare a const or var whose
// value is one — the parallel enum that would carry a switch past the
// literal check. A layer that needs to know what an algorithm is looks its
// entry up.
func TestNoAlgorithmSwitchOutsideTheTable(t *testing.T) {
	served := map[string]bool{}
	for _, e := range algorithms.Served() {
		served[e.Name] = true
	}
	isServedName := func(x ast.Expr) bool {
		lit, ok := x.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return false
		}
		s, err := strconv.Unquote(lit.Value)
		return err == nil && served[s]
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == filepath.Join("internal", "algorithms") || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				for _, x := range n.List {
					if isServedName(x) {
						t.Errorf("%s: case %s — switch on a served algorithm's name; use algorithms.Lookup", fset.Position(x.Pos()), x.(*ast.BasicLit).Value)
					}
				}
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (isServedName(n.X) || isServedName(n.Y)) {
					t.Errorf("%s: comparison with a served algorithm's name; use algorithms.Lookup", fset.Position(n.Pos()))
				}
			case *ast.ValueSpec:
				for _, x := range n.Values {
					if isServedName(x) {
						t.Errorf("%s: %s declared as a served algorithm's name — a parallel enum; use algorithms.Lookup", fset.Position(x.Pos()), x.(*ast.BasicLit).Value)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned %d files: the walk did not start at the module root", files)
	}
}
