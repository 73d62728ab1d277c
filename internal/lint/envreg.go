package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"betty/internal/knobs"
)

// Envreg enforces the environment-knob discipline that PR 3 established by
// convention and PR 5 repeated by hand: every BETTY_* environment variable
// is (1) read through a hardened fail-loud parser — a Parse* function that
// rejects garbage instead of silently running a different configuration
// than the operator set — and (2) documented in the README knob table. The
// analyzer takes the authoritative knob registry and diffs it both
// ways against the doc, so adding a knob without registering and
// documenting it, or documenting a knob that no longer exists, fails the
// lint rather than rotting quietly as P2–P4 multiply the knob count. The
// registry is knobs.Registry, shared with the CLIs' startup check.
//
// Concretely:
//
//   - os.Getenv("BETTY_X") must appear as a direct argument of a call to a
//     function whose name starts with "Parse" (ParseWorkers, ParseShardRows,
//     ParseMode, ...). Passing os.Getenv itself as a
//     getenv func into a validating applier (serve.Config.ApplyEnv) is the
//     other approved pattern and involves no direct call to flag.
//   - os.Getenv with a non-literal argument defeats the registry audit and
//     is flagged (the serve pattern threads the name through constants that
//     the literal scan below still sees).
//   - Every string literal of shape "BETTY_..." in non-test code must name
//     a registered knob; every registered knob must appear in the README;
//     every BETTY_* token in the README must be registered.
var Envreg = &Analyzer{
	Name: "envreg",
	Doc: "require os.Getenv(\"BETTY_*\") to flow through a hardened Parse* parser, " +
		"every BETTY_* literal to name a registered knob, and the registry to match " +
		"the README knob table both ways",
	RunModule: runEnvreg,
}

// KnobNames returns the registered knob names, sorted.
func KnobNames() []string {
	names := make([]string, 0, len(knobs.Registry))
	for n := range knobs.Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// knobLit matches a string literal that is exactly an environment-knob
// name (error-message format strings like "BETTY_WORKERS=%q: ..." do not
// full-match).
var knobLit = regexp.MustCompile(`^BETTY_[A-Z0-9_]+$`)

// docKnobToken finds knob-shaped tokens in the README.
var docKnobToken = regexp.MustCompile(`BETTY_[A-Z0-9_]+`)

func runEnvreg(m *Module) []Diagnostic {
	var diags []Diagnostic
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if p.isTestFile(f) {
				continue
			}
			diags = append(diags, envregFile(p, f)...)
		}
	}
	diags = append(diags, envregDocDiff(m)...)
	return diags
}

func envregFile(p *Package, f *ast.File) []Diagnostic {
	var diags []Diagnostic

	// Pass 1: find os.Getenv calls that are routed — direct arguments of a
	// Parse*-named call.
	routed := make(map[*ast.CallExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		outer, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObj(p.Info, outer)
		if fn == nil || !strings.HasPrefix(fn.Name(), "Parse") {
			return true
		}
		for _, arg := range outer.Args {
			if inner, isCall := ast.Unparen(arg).(*ast.CallExpr); isCall && isOSGetenv(p, inner) {
				routed[inner] = true
			}
		}
		return true
	})

	// Pass 2: every os.Getenv call and every knob-shaped literal.
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if !isOSGetenv(p, s) {
				return true
			}
			name, isLit := getenvLiteral(s)
			if !isLit {
				diags = append(diags, Diagnostic{
					Analyzer: "envreg",
					Pos:      p.pos(s),
					Message: "os.Getenv with a non-literal name defeats the knob-registry audit: " +
						"read knobs by literal name, or pass os.Getenv itself into a validating " +
						"applier (serve.Config.ApplyEnv pattern)",
				})
				return true
			}
			if !strings.HasPrefix(name, "BETTY_") {
				return true
			}
			if !routed[s] {
				diags = append(diags, Diagnostic{
					Analyzer: "envreg",
					Pos:      p.pos(s),
					Message: fmt.Sprintf("os.Getenv(%q) is not routed through a hardened parser: "+
						"wrap it in a Parse* function that fails loudly on malformed values "+
						"(parallel.ParseWorkers is the model)", name),
				})
			}
		case *ast.BasicLit:
			if s.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(s.Value)
			if err != nil || !knobLit.MatchString(name) {
				return true
			}
			if _, known := knobs.Registry[name]; !known {
				diags = append(diags, Diagnostic{
					Analyzer: "envreg",
					Pos:      p.pos(s),
					Message: fmt.Sprintf("%s is not in bettyvet's knob registry: add it to "+
						"Registry in internal/knobs and to the README knob table", name),
				})
			}
		}
		return true
	})
	return diags
}

// envregDocDiff diffs the registry against the README knob documentation,
// both ways. A missing KnobDoc (subset runs without a module root) skips
// the diff.
func envregDocDiff(m *Module) []Diagnostic {
	if m.KnobDoc == "" {
		return nil
	}
	docPos := token.Position{Filename: "README.md", Line: 1, Column: 1}
	var diags []Diagnostic
	documented := make(map[string]bool)
	for _, tok := range docKnobToken.FindAllString(m.KnobDoc, -1) {
		documented[tok] = true
	}
	for _, name := range KnobNames() {
		if !documented[name] {
			diags = append(diags, Diagnostic{
				Analyzer: "envreg",
				Pos:      docPos,
				Message:  fmt.Sprintf("registered knob %s is not documented in the README knob table", name),
			})
		}
	}
	var docNames []string
	for name := range documented {
		docNames = append(docNames, name)
	}
	sort.Strings(docNames)
	for _, name := range docNames {
		if _, known := knobs.Registry[name]; !known {
			diags = append(diags, Diagnostic{
				Analyzer: "envreg",
				Pos:      docPos,
				Message: fmt.Sprintf("README documents %s but it is not in bettyvet's knob registry: "+
					"register it or drop the doc row", name),
			})
		}
	}
	return diags
}

// isOSGetenv reports whether call is os.Getenv(...).
func isOSGetenv(p *Package, call *ast.CallExpr) bool {
	fn := funcObj(p.Info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "os" && fn.Name() == "Getenv"
}

// getenvLiteral extracts the literal name argument of an os.Getenv call.
func getenvLiteral(call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return name, true
}
