package lint

import (
	"fmt"
	"go/types"
	"strconv"
	"strings"
)

// Dettaint guards DESIGN.md §8's determinism clause — kernel outputs are
// pure functions of their inputs and seeds — against the nondeterministic
// inputs of the shared classification in callgraph.go: wall-clock reads,
// the global math/rand stream, worker-count reads (shard boundaries must
// depend on the problem, never on runtime.NumCPU, GOMAXPROCS or
// parallel.Workers) and unsorted map iteration. It runs two passes:
//
//   - Kernel-local (kernelSinks): inside the kernel packages, test files
//     included, every identifier use that resolves to a sink is reported —
//     not only calls, so storing time.Now in a variable is caught too — and
//     importing math/rand, math/rand/v2 or crypto/rand at all is banned.
//     Map iteration in kernel packages stays with mapiter, whose
//     collect-then-sort idiom check is sharper.
//   - Interprocedural: any function *transitively reachable* from a kernel
//     entry point — the exported API of the kernel packages and nn — must
//     not reach a sink either, whichever package it lives in. A helper one
//     package away that reads time.Now is invisible to every per-package
//     check yet breaks the same bitwise-reproduction guarantee (PAPER.md
//     §4); these diagnostics carry the discovery path, so the finding is
//     actionable without re-deriving the reachability by hand.
var Dettaint = &Analyzer{
	Name: "dettaint",
	Doc: "forbid nondeterministic inputs (wall clock, math/rand and crypto/rand, worker-count reads) " +
		"in kernel packages, and those plus unsorted map iteration anywhere transitively reachable " +
		"from kernel entry points, with the call path in the diagnostic",
	RunModule: runDettaint,
}

// bannedKernelImports are whole packages kernels may not import: their
// entire APIs are nondeterministic sources.
var bannedKernelImports = map[string]string{
	"math/rand":    "use the seeded betty/internal/rng instead",
	"math/rand/v2": "use the seeded betty/internal/rng instead",
	"crypto/rand":  "kernels need reproducible streams, not entropy",
}

// sinkAdvice is the fix each kind of kernel-local sink calls for.
var sinkAdvice = map[string]string{
	"wall-clock":   "kernel results must not depend on time (inject timestamps from the caller)",
	"global-rand":  "randomness must come from the seeded betty/internal/rng",
	"worker-count": "shard boundaries must depend only on the problem (keep worker awareness inside internal/parallel)",
}

// taintEntryPrefixes are the packages whose exported APIs seed the
// reachability: the kernel packages plus nn, whose layer forwards sit
// directly on the training hot path but are not a "kernel" package for the
// local analyzers.
var taintEntryPrefixes = append([]string{"betty/internal/nn"}, kernelPrefixes...)

func isTaintEntryPkg(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, pre := range taintEntryPrefixes {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

// kernelSinks is the kernel-local pass over one kernel package.
func kernelSinks(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := bannedKernelImports[path]; ok {
				diags = append(diags, Diagnostic{
					Analyzer: "dettaint",
					Pos:      p.pos(imp),
					Message:  fmt.Sprintf("kernel package imports nondeterministic %s: %s", path, why),
				})
			}
		}
	}
	callerPkg := strings.TrimSuffix(p.Path, "_test")
	for id, obj := range p.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		kind, detail, isSink := classifySink(fn, callerPkg)
		if !isSink {
			continue
		}
		diags = append(diags, Diagnostic{
			Analyzer: "dettaint",
			Pos:      p.Fset.Position(id.Pos()),
			Message:  fmt.Sprintf("%s (%s) used in a kernel package; %s", detail, kind, sinkAdvice[kind]),
		})
	}
	return diags
}

func runDettaint(m *Module) []Diagnostic {
	var diags []Diagnostic
	for _, p := range m.Pkgs {
		if isKernel(p.Path) {
			diags = append(diags, kernelSinks(p)...)
		}
	}

	g := m.CallGraph()
	var entries []FuncID
	for _, id := range g.SortedIDs() {
		n := g.Nodes[id]
		if n.Exported && isTaintEntryPkg(n.PkgPath) {
			entries = append(entries, id)
		}
	}
	pred := g.reach(entries)
	for _, id := range g.SortedIDs() {
		if _, reachable := pred[id]; !reachable {
			continue
		}
		n := g.Nodes[id]
		// Kernel-package sinks were reported above, reachable or not (and
		// their map iteration is mapiter's); nn — an entry package but not
		// a kernel package — and everything else a kernel reaches is
		// reported here.
		if len(n.Sinks) == 0 || isKernel(n.PkgPath) {
			continue
		}
		path := g.pathTo(pred, id)
		for _, s := range n.Sinks {
			diags = append(diags, Diagnostic{
				Analyzer: "dettaint",
				Pos:      s.Pos,
				Message: fmt.Sprintf("%s (%s) is reachable from kernel entry point %s; "+
					"call path: %s; kernel-reachable code must be a pure function of its inputs and seeds",
					s.Detail, s.Kind, path[0], renderPath(path, s.Detail)),
			})
		}
	}
	return diags
}

// renderPath prints entry → ... → sink with short names.
func renderPath(path []FuncID, sink string) string {
	parts := make([]string, 0, len(path)+1)
	for _, id := range path {
		parts = append(parts, shortFuncID(id))
	}
	return strings.Join(append(parts, sink), " → ")
}

// shortFuncID strips the "betty/internal/" prefix for readability.
func shortFuncID(id FuncID) string {
	return strings.TrimPrefix(string(id), "betty/internal/")
}
