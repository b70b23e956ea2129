package cutfit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestFanOutGoesThroughPar keeps one scheduler: no non-test Go file outside
// internal/par may start a goroutine or hold a sync.WaitGroup — per-item work
// runs on par.ForEach, contiguous ranges on par.Ranges, and both return a
// worker's panic as an error. The four files allowed below are not fan-outs
// of that kind: the ordered ingest pipeline (a reader feeding parsers whose
// slabs are reassembled in order) and the goroutines that serve HTTP.
// benchmark/ is its own module and is not walked.
func TestFanOutGoesThroughPar(t *testing.T) {
	allowed := map[string]bool{
		filepath.Join("internal", "graph", "io.go"):            true,
		filepath.Join("internal", "testutil", "httpserver.go"): true,
		filepath.Join("cmd", "cutfitd", "main.go"):             true,
		filepath.Join("cmd", "cutfit-worker", "main.go"):       true,
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == filepath.Join("internal", "par") || (path != "." && strings.HasPrefix(d.Name(), ".")) {
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
		if allowed[path] {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement; fan out with par.ForEach or par.Ranges", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && n.Sel.Name == "WaitGroup" {
					t.Errorf("%s: sync.WaitGroup; fan out with par.ForEach or par.Ranges", fset.Position(n.Pos()))
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
