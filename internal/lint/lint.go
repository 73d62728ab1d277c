// Package lint implements bettyvet, the project-specific static-analysis
// suite. It keeps the checks that catch what the dynamic checks (the
// bitwise 1-vs-N pins, the results_smoke.txt and BENCH_multidev.json
// goldens, and the benchmark's exact-repeat gate) cannot: each analyzer
// names, in DESIGN.md §9, a realistic mutant that only it catches.
//
//   - pooldisc: every tape created is released (or has its ownership
//     transferred), pooled tensors from Tape.Alloc never escape into
//     struct fields or return values, and every scratch slice is released.
//   - floateq: floating-point values are never compared with ==/!= outside
//     approved epsilon/bit-equality helpers.
//   - hotalloc: the training hot path allocates nothing per shard or per
//     tape op outside the pool.
//   - dettaint: the kernel packages, internal/nn and every module package
//     they import (internal/obs excepted) draw randomness only from the
//     seeded internal/rng and never read the wall clock or the worker
//     count (runtime.NumCPU, runtime.GOMAXPROCS, parallel.Workers outside
//     internal/parallel).
//   - obsdisc: obs spans are ended and metric reads name metrics the
//     module writes (DESIGN.md §14).
//
// The suite is zero-dependency and runs fully offline: one `go list -deps
// -test -export -json` run enumerates the packages and has the go command
// compile them to export data, then each package is parsed with go/parser
// and type-checked once with go/types, reading its imports from that
// export data. Intentional violations are suppressed with a reasoned
// annotation on the offending line or the line above it:
//
//	//bettyvet:ok <analyzer> <reason>
//
// A suppression without a reason (or naming an unknown analyzer) is itself
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// An Analyzer reports findings at one of two scopes: local analyzers (Run)
// inspect one type-checked package at a time; module analyzers (RunModule)
// see every package at once and catch what no single-package view can (a
// sink in a package a kernel imports, a metric read with no writer). Exactly one of Run and RunModule is
// set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(p *Package) []Diagnostic
	RunModule func(m *Module) []Diagnostic
}

// Analyzers returns the full bettyvet suite in report order: the three
// per-package analyzers, then the three module-scoped ones.
func Analyzers() []*Analyzer {
	return []*Analyzer{Pooldisc, Floateq, Hotalloc, Dettaint, Obsdisc}
}

// Module is the whole-module analysis view: every loaded package.
type Module struct {
	Pkgs []*Package
}

// NewModule wraps pkgs for module-scoped analysis.
func NewModule(pkgs []*Package) *Module { return &Module{Pkgs: pkgs} }

// Run executes the full analyzer suite — local analyzers over every
// package, module analyzers once — applies suppressions across the whole
// module, and audits them: an annotation that silences no diagnostic is
// itself reported in Stale, so //bettyvet:ok comments cannot outlive the
// finding they excused.
func (m *Module) Run() Result {
	var all []Diagnostic
	for _, a := range Analyzers() {
		if a.Run != nil {
			for _, p := range m.Pkgs {
				all = append(all, a.Run(p)...)
			}
		}
		if a.RunModule != nil {
			all = append(all, a.RunModule(m)...)
		}
	}
	set := make(suppressionSet)
	var anns []*suppAnnotation
	var res Result
	for _, p := range m.Pkgs {
		pAnns, malformed := parseAnnotations(p, set)
		anns = append(anns, pAnns...)
		res.Diags = append(res.Diags, malformed...)
	}
	for _, d := range all {
		if ann := set.covering(d); ann != nil {
			ann.used = true
			res.Suppressed = append(res.Suppressed, d)
		} else {
			res.Diags = append(res.Diags, d)
		}
	}
	for _, ann := range anns {
		if ann.used {
			continue
		}
		res.Stale = append(res.Stale, Diagnostic{
			Analyzer: auditAnalyzer,
			Pos:      ann.pos,
			Message: fmt.Sprintf("stale suppression: //%s %s silences no diagnostic here; "+
				"remove the annotation (or fix it to sit on the offending line or the line above)",
				suppressPrefix, ann.analyzer),
		})
	}
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	sortDiags(res.Stale)
	return res
}

// auditAnalyzer is the pseudo-analyzer name stale-suppression findings are
// reported under (bettyvet -audit).
const auditAnalyzer = "bettyvet-audit"

// kernelPrefixes are the import paths of the kernel packages whose outputs
// must be bitwise-deterministic; dettaint's scope starts from these
// packages and their subpackages.
var kernelPrefixes = []string{
	"betty/internal/tensor",
	"betty/internal/graph",
	"betty/internal/reg",
	"betty/internal/partition",
	"betty/internal/sample",
	"betty/internal/parallel",
}

// isKernel reports whether path is a kernel package (or a subpackage of
// one). External test packages ("pkg_test") share their package's scope.
func isKernel(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, pre := range kernelPrefixes {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the import path scoped analyzers dispatch on. External test
	// packages carry their "_test" suffix.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// pos returns the position of n in p's file set.
func (p *Package) pos(n ast.Node) token.Position { return p.Fset.Position(n.Pos()) }

// isTestFile reports whether f is a _test.go file.
func (p *Package) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// Result separates the findings that stand from those silenced by a
// reasoned //bettyvet:ok annotation; all slices are position-sorted.
// Suppressed findings are kept so tests can assert a suppression actually
// matched a finding rather than the analyzer missing the line. Stale holds
// the audit findings of Module.Run: annotations that silenced nothing.
type Result struct {
	Diags      []Diagnostic
	Suppressed []Diagnostic
	Stale      []Diagnostic
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// suppressionKey identifies one (file, line, analyzer) a //bettyvet:ok
// comment silences.
type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

// suppAnnotation is one parsed //bettyvet:ok comment. used flips when a
// diagnostic matches it, so Module.Run can audit for stale annotations.
type suppAnnotation struct {
	analyzer string
	pos      token.Position
	used     bool
}

type suppressionSet map[suppressionKey]*suppAnnotation

func (s suppressionSet) covering(d Diagnostic) *suppAnnotation {
	return s[suppressionKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]
}

// suppressPrefix introduces a suppression comment. The full syntax is
// "//bettyvet:ok <analyzer> <reason>"; the annotation covers its own line
// and the line below, so it can trail the offending statement or sit on its
// own line above it.
const suppressPrefix = "bettyvet:ok"

// parseAnnotations collects every //bettyvet:ok annotation in p into set
// and returns the parsed annotations plus malformed ones — unknown
// analyzer or missing reason — as diagnostics of the pseudo-analyzer
// "bettyvet", so a suppression can never silently rot into a no-op.
func parseAnnotations(p *Package, set suppressionSet) ([]*suppAnnotation, []Diagnostic) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var anns []*suppAnnotation
	var malformed []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+suppressPrefix)
				if !ok {
					continue
				}
				pos := p.pos(c)
				fields := strings.Fields(text)
				if len(fields) == 0 || !known[fields[0]] {
					malformed = append(malformed, Diagnostic{
						Analyzer: "bettyvet",
						Pos:      pos,
						Message:  fmt.Sprintf("suppression %q must name a known analyzer (one of %s)", c.Text, analyzerNames()),
					})
					continue
				}
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "bettyvet",
						Pos:      pos,
						Message:  fmt.Sprintf("suppression of %q must carry a reason: //%s %s <why this is intentional>", fields[0], suppressPrefix, fields[0]),
					})
					continue
				}
				ann := &suppAnnotation{analyzer: fields[0], pos: pos}
				anns = append(anns, ann)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set[suppressionKey{pos.Filename, line, fields[0]}] = ann
				}
			}
		}
	}
	return anns, malformed
}

func analyzerNames() string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// funcObj resolves the called function/method of a call expression, seeing
// through parentheses. It returns nil for builtins, type conversions, and
// calls of function-typed values.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isMethodOn reports whether fn is the named method on the given type
// (pointer or value receiver) of the given package path.
func isMethodOn(fn *types.Func, pkgPath, typeName, method string) bool {
	if fn == nil || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}
