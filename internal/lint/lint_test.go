package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// goldenPackages maps each testdata directory to the import path it is
// analyzed under — the path, not the directory, decides analyzer scope, so
// the same source can be checked as a kernel or a non-kernel package. The
// list is typed in order; a package marked register is importable by the
// packages after it (taintentry imports taintutil and obs).
var goldenPackages = []struct {
	dir      string
	path     string
	register bool
}{
	{"kernel", "betty/internal/sample", false},
	{"nonkernel", "betty/internal/bench", false},
	{"floateq", "betty/app", false},
	{"stubs/obs", "betty/internal/obs", true},
	{"taintutil", "betty/app/taintutil", true},
	{"taintentry", "betty/internal/sample/deep", false},
	{"nnlayer", "betty/internal/nn", false},
	{"obsgold", "betty/app/obsgold", false},
}

// An expectation is one // want, // want-sup, or // want-stale marker:
// analyzer X must report (or report-and-suppress, or report-as-stale) a
// finding on this file and line.
type expectation struct {
	file     string
	line     int
	analyzer string
}

func (e expectation) String() string {
	return fmt.Sprintf("%s:%d %s", e.file, e.line, e.analyzer)
}

var (
	// "// want <analyzer>" expects a diagnostic on its own line;
	// "// want+1 <analyzer>" on the line below (for markers that cannot
	// share the flagged line, e.g. a malformed suppression comment).
	wantRe = regexp.MustCompile(`// want(\+1)? (\w+)`)
	// "// want-sup <analyzer>" expects a finding silenced by a
	// //bettyvet:ok annotation on this line; "// want-sup+1 <analyzer>" on
	// the line below (the marker usually trails the annotation itself).
	wantSupRe = regexp.MustCompile(`// want-sup(\+1)? (\w+)`)
	// "// want-stale" expects the suppression audit to flag the annotation
	// on this line as silencing nothing.
	wantStaleRe = regexp.MustCompile(`// want-stale(\+1)?`)
)

// goldenModule type-checks every golden package offline against the stub
// betty packages and wraps them in a Module.
func goldenModule(t *testing.T) *Module {
	t.Helper()
	fset := token.NewFileSet()
	imp := &stubImporter{
		std:   importer.ForCompiler(fset, "source", nil),
		local: make(map[string]*types.Package),
	}
	for _, stub := range []struct{ dir, path string }{
		{"stubs/tensor", "betty/internal/tensor"},
		{"stubs/parallel", "betty/internal/parallel"},
	} {
		imp.local[stub.path] = typecheckDir(t, fset, imp, stub.dir, stub.path).Pkg
	}
	var pkgs []*Package
	for _, gp := range goldenPackages {
		p := typecheckDir(t, fset, imp, gp.dir, gp.path)
		pkgs = append(pkgs, p)
		if gp.register {
			imp.local[gp.path] = p.Pkg
		}
	}
	return NewModule(pkgs)
}

// TestGolden runs the full suite — local analyzers, module analyzers, and
// the suppression audit — over the golden module and asserts it reports
// exactly the marked findings: every analyzer must show a true positive, a
// scope/idiom negative, and a reasoned suppression, and the audit must
// catch the deliberately stale annotation.
func TestGolden(t *testing.T) {
	m := goldenModule(t)

	var wantDiags, wantSup, wantStale []expectation
	for _, gp := range goldenPackages {
		w, s, st := readExpectations(t, filepath.Join("testdata", gp.dir))
		wantDiags = append(wantDiags, w...)
		wantSup = append(wantSup, s...)
		wantStale = append(wantStale, st...)
	}

	res := m.Run()
	var gotDiags, gotSup, gotStale []expectation
	for _, d := range res.Diags {
		gotDiags = append(gotDiags, asExpectation(d))
	}
	for _, d := range res.Suppressed {
		gotSup = append(gotSup, asExpectation(d))
	}
	for _, d := range res.Stale {
		gotStale = append(gotStale, asExpectation(d))
	}
	compare(t, "diagnostic", wantDiags, gotDiags)
	compare(t, "suppressed finding", wantSup, gotSup)
	compare(t, "stale suppression", wantStale, gotStale)

	demonstrated := make(map[string]bool)
	suppressed := make(map[string]bool)
	for _, e := range wantDiags {
		demonstrated[e.analyzer] = true
	}
	for _, e := range wantSup {
		suppressed[e.analyzer] = true
	}
	for _, a := range Analyzers() {
		if !demonstrated[a.Name] {
			t.Errorf("analyzer %s has no true-positive golden case in testdata", a.Name)
		}
		if !suppressed[a.Name] {
			t.Errorf("analyzer %s has no suppressed golden case in testdata", a.Name)
		}
	}
	if len(wantStale) == 0 {
		t.Error("the suppression audit has no stale golden case in testdata")
	}
}

// TestDettaintScope pins which golden packages dettaint scans: the kernel
// packages, nn by name, and taintutil, which only a kernel's import puts
// in scope. obs stays out although a kernel imports it, and so does a
// package nothing in scope imports.
func TestDettaintScope(t *testing.T) {
	m := goldenModule(t)
	scope := taintScope(m.Pkgs)
	for _, c := range []struct {
		path    string
		scanned bool
	}{
		{"betty/internal/sample", true},
		{"betty/internal/sample/deep", true},
		{"betty/app/taintutil", true},
		{"betty/internal/nn", true},
		{"betty/internal/obs", false},
		{"betty/internal/bench", false},
		{"betty/app/obsgold", false},
	} {
		if scope[c.path] != c.scanned {
			t.Errorf("%s: scanned = %v, want %v", c.path, scope[c.path], c.scanned)
		}
	}
}

// stubImporter resolves the stub betty packages from testdata and
// everything else (the standard library) through the source importer.
type stubImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (si *stubImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := si.local[path]; ok {
		return pkg, nil
	}
	return si.std.Import(path)
}

// typecheckDir parses and type-checks every .go file under testdata/dir as
// one package with the given import path.
func typecheckDir(t *testing.T, fset *token.FileSet, imp types.Importer, dir, path string) *Package {
	t.Helper()
	full := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(full, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking testdata/%s as %s: %v", dir, path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Pkg: pkg, Info: info}
}

// readExpectations scans dir's sources for // want, // want-sup, and
// // want-stale markers.
func readExpectations(t *testing.T, dir string) (diags, sup, stale []expectation) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				exp := expectation{file: e.Name(), line: i + 1, analyzer: m[2]}
				if m[1] == "+1" {
					exp.line++
				}
				diags = append(diags, exp)
			}
			for _, m := range wantSupRe.FindAllStringSubmatch(line, -1) {
				exp := expectation{file: e.Name(), line: i + 1, analyzer: m[2]}
				if m[1] == "+1" {
					exp.line++
				}
				sup = append(sup, exp)
			}
			for _, m := range wantStaleRe.FindAllStringSubmatch(line, -1) {
				exp := expectation{file: e.Name(), line: i + 1, analyzer: auditAnalyzer}
				if m[1] == "+1" {
					exp.line++
				}
				stale = append(stale, exp)
			}
		}
	}
	return diags, sup, stale
}

func asExpectation(d Diagnostic) expectation {
	return expectation{file: filepath.Base(d.Pos.Filename), line: d.Pos.Line, analyzer: d.Analyzer}
}

// compare diffs the expected and reported finding multisets.
func compare(t *testing.T, kind string, want, got []expectation) {
	t.Helper()
	count := make(map[expectation]int)
	for _, e := range want {
		count[e]++
	}
	for _, e := range got {
		if count[e] > 0 {
			count[e]--
		} else {
			t.Errorf("unexpected %s: %s", kind, e)
		}
	}
	var missing []string
	for e, n := range count {
		for ; n > 0; n-- {
			missing = append(missing, e.String())
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("missing %s: %s", kind, m)
	}
}
