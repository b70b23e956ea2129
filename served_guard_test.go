package cutfit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

// TestOneRunEntryPoint keeps the root package to one way of running a
// served algorithm: no exported top-level function other than Run and
// RunProgram may return *RunStats. A per-algorithm wrapper would be a second
// dispatch beside the table, one that Session.Run, the CLI and the cluster
// never see.
func TestOneRunEntryPoint(t *testing.T) {
	allowed := map[string]bool{"Run": true, "RunProgram": true}
	isRunStats := func(x ast.Expr) bool {
		star, ok := x.(*ast.StarExpr)
		if !ok {
			return false
		}
		switch n := star.X.(type) {
		case *ast.Ident:
			return n.Name == "RunStats"
		case *ast.SelectorExpr:
			return n.Sel.Name == "RunStats"
		}
		return false
	}
	found := map[string]bool{}
	fset, files := rootFiles(t)
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			for _, r := range fn.Type.Results.List {
				if !isRunStats(r.Type) {
					continue
				}
				found[fn.Name.Name] = true
				if !allowed[fn.Name.Name] {
					t.Errorf("%s: %s returns *RunStats — a per-algorithm entry point; run served algorithms through cutfit.Run", fset.Position(fn.Pos()), fn.Name.Name)
				}
			}
		}
	}
	for name := range allowed {
		if !found[name] {
			t.Errorf("%s is not an exported function returning *RunStats: the guard no longer sees the package's run entry points", name)
		}
	}
}

// rootFiles parses the root package's non-test files.
func rootFiles(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset, files := packageFiles(t, ".")
	if len(files) == 0 {
		t.Fatal("no root package files: the test does not run at the module root")
	}
	return fset, files
}

// packageFiles parses the non-test Go files of the package in dir.
func packageFiles(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// topLevelNames returns the top-level identifiers the files declare:
// functions, types, constants and variables, not methods.
func topLevelNames(files []*ast.File) map[string]bool {
	names := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocsNameOnlyWhatExists: every <pkg>.<Name> the prose documentation
// writes — docs/*.md, internal/README.md and the verify skill — where pkg is
// cutfit or a package under internal/, is an exported top-level identifier
// of that package, so a removed or renamed API cannot linger in the docs.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	_, root := rootFiles(t)
	pkgs := map[string]map[string]bool{"cutfit": topLevelNames(root)}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		if _, files := packageFiles(t, filepath.Join("internal", d.Name())); len(files) > 0 {
			pkgs[d.Name()] = topLevelNames(files)
		}
	}
	var alt []string
	for p := range pkgs {
		alt = append(alt, regexp.QuoteMeta(p))
	}
	name := regexp.MustCompile(`\b(` + strings.Join(alt, "|") + `)\.([A-Z][A-Za-z0-9_]*)`)
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, filepath.Join("internal", "README.md"), filepath.Join(".claude", "skills", "verify", "SKILL.md"))
	seen := map[string]int{}
	for _, path := range docs {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range name.FindAllStringSubmatch(line, -1) {
				seen[m[1]]++
				if !pkgs[m[1]][m[2]] {
					t.Errorf("%s:%d: %s.%s is not an exported top-level identifier of package %s", path, i+1, m[1], m[2], m[1])
				}
			}
		}
	}
	if seen["cutfit"] == 0 || len(seen) < 2 {
		t.Fatalf("the docs name identifiers of %d packages (%v): the scan read the wrong files", len(seen), seen)
	}
}
