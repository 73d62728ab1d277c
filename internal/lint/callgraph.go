package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-module static call graph the module-scoped
// analyzers (dettaint foremost) walk. The graph is computed once per
// Module from the ASTs the offline loader already holds: every FuncDecl
// body in every non-test file contributes one node, every statically
// resolvable call one edge. Function literals are attributed to their
// enclosing declaration — a closure a kernel hands to parallel.For is part
// of the kernel function as far as taint is concerned.
//
// Two deliberate limits, documented in DESIGN.md §14:
//
//   - Only direct calls are edges. Interface dispatch (obs.Clock.Now is
//     the canonical case) and calls of function-typed values are invisible;
//     the repository's determinism story leans on injection through
//     interfaces precisely so that the *static* reachability from kernel
//     code to a nondeterministic source is empty.
//   - Standard-library functions are leaves: their bodies are not loaded,
//     so a sink hidden inside a third function of the standard library is
//     not found. The sink set (wall clock, global rand, worker count) is
//     the complete list of nondeterministic stdlib inputs the repo's
//     invariants name.

// A FuncID names one function or method uniquely across the module:
// "pkgpath.Func" for package-level functions, "pkgpath.(Type).Method" for
// methods (pointer and value receivers share an ID). Test-package paths
// are folded onto their base package so the plain and analysis views of a
// function agree.
type FuncID string

// funcID derives the stable ID of fn, or "" when fn is nil.
func funcID(fn *types.Func) FuncID {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path := strings.TrimSuffix(fn.Pkg().Path(), "_test")
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return FuncID(fmt.Sprintf("%s.(%s).%s", path, named.Obj().Name(), fn.Name()))
		}
	}
	return FuncID(path + "." + fn.Name())
}

// An Edge is one static call site.
type Edge struct {
	Callee FuncID
	Pos    token.Position
}

// A SinkUse is one use of a nondeterministic input inside a function body.
type SinkUse struct {
	// Kind is one of "wall-clock", "global-rand", "worker-count",
	// "map-iteration".
	Kind string
	// Detail names the concrete source, e.g. "time.Now".
	Detail string
	Pos    token.Position
}

// A FuncNode is one declared function with a body somewhere in the module.
type FuncNode struct {
	ID      FuncID
	PkgPath string // analysis package path, "_test" trimmed
	Name    string // source-level name, for diagnostics
	Pos     token.Position
	// Exported reports whether the declaration's own name is exported
	// (methods count when the method name is exported).
	Exported bool
	Calls    []Edge
	Sinks    []SinkUse
}

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	Nodes map[FuncID]*FuncNode
	// order fixes a deterministic node iteration order (sorted IDs).
	order []FuncID
}

// SortedIDs returns every node ID in sorted order.
func (g *CallGraph) SortedIDs() []FuncID { return g.order }

// buildCallGraph constructs the graph from every non-test file of pkgs.
// External test packages contribute nothing: determinism taint concerns
// production code, and tests legitimately read the clock.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[FuncID]*FuncNode)}
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, "_test") {
			continue
		}
		for _, f := range p.Files {
			if p.isTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				id := funcID(fn)
				if id == "" {
					continue
				}
				node := &FuncNode{
					ID:       id,
					PkgPath:  strings.TrimSuffix(p.Path, "_test"),
					Name:     fd.Name.Name,
					Pos:      p.pos(fd),
					Exported: fd.Name.IsExported(),
				}
				scanBody(p, fd, node)
				g.Nodes[id] = node
			}
		}
	}
	for id := range g.Nodes {
		g.order = append(g.order, id)
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i] < g.order[j] })
	return g
}

// scanBody records fd's static calls and sink uses on node, descending
// into function literals (a closure belongs to its enclosing declaration).
func scanBody(p *Package, fd *ast.FuncDecl, node *FuncNode) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			fn := funcObj(p.Info, s)
			if fn == nil {
				return true
			}
			if kind, detail, isSink := classifySink(fn, node.PkgPath); isSink {
				node.Sinks = append(node.Sinks, SinkUse{Kind: kind, Detail: detail, Pos: p.pos(s)})
				return true
			}
			if id := funcID(fn); id != "" {
				node.Calls = append(node.Calls, Edge{Callee: id, Pos: p.pos(s)})
			}
		case *ast.RangeStmt:
			tv, ok := p.Info.Types[s.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sortedKeyCollection(p, fd, s) {
				return true
			}
			node.Sinks = append(node.Sinks, SinkUse{
				Kind:   "map-iteration",
				Detail: "range over map",
				Pos:    p.pos(s),
			})
		}
		return true
	})
}

// The shared sink tables: dettaint applies this one classification to
// every identifier use inside kernel packages and to everything the call
// graph reaches beyond them.
var (
	// wallClockFuncs are the time-package reads whose results change run
	// to run. Importing time for durations and formatting stays legal.
	wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

	// globalRandExempt are the math/rand package-level functions that do
	// not touch the global stream: constructors for locally seeded
	// generators are deterministic when their seed is.
	globalRandExempt = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}
)

const parallelPkg = "betty/internal/parallel"

// classifySink reports whether a call to fn from a function in callerPkg
// is a nondeterministic input, and which kind.
func classifySink(fn *types.Func, callerPkg string) (kind, detail string, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	pkgLevel := sig == nil || sig.Recv() == nil
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return "wall-clock", "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		// Only the package-level functions draw from the shared global
		// stream; methods on a locally constructed *rand.Rand are as
		// deterministic as their seed.
		if pkgLevel && !globalRandExempt[fn.Name()] {
			return "global-rand", fn.Pkg().Path() + "." + fn.Name(), true
		}
	case "runtime":
		if fn.Name() == "NumCPU" || fn.Name() == "GOMAXPROCS" {
			if callerPkg == parallelPkg {
				return "", "", false // concurrency configuration, not shard math
			}
			return "worker-count", "runtime." + fn.Name(), true
		}
	case parallelPkg:
		if pkgLevel && fn.Name() == "Workers" && callerPkg != parallelPkg {
			return "worker-count", "parallel.Workers", true
		}
	}
	return "", "", false
}

// reach runs a deterministic breadth-first search from entries and returns
// the predecessor map: for every reachable node, the ID of the node it was
// first discovered from (entries map to themselves). Entries are visited
// in sorted order and edges in source order, so the discovery tree — and
// with it every printed taint path — is stable run to run.
func (g *CallGraph) reach(entries []FuncID) map[FuncID]FuncID {
	sorted := append([]FuncID(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pred := make(map[FuncID]FuncID)
	var queue []FuncID
	for _, e := range sorted {
		if _, seen := pred[e]; seen {
			continue
		}
		if _, exists := g.Nodes[e]; !exists {
			continue
		}
		pred[e] = e
		queue = append(queue, e)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		node := g.Nodes[cur]
		for _, edge := range node.Calls {
			if _, seen := pred[edge.Callee]; seen {
				continue
			}
			if _, exists := g.Nodes[edge.Callee]; !exists {
				continue // leaf without a body (stdlib)
			}
			pred[edge.Callee] = cur
			queue = append(queue, edge.Callee)
		}
	}
	return pred
}

// pathTo reconstructs the discovery path entry → ... → id from a reach
// predecessor map, rendered with the short function names.
func (g *CallGraph) pathTo(pred map[FuncID]FuncID, id FuncID) []FuncID {
	var rev []FuncID
	for cur := id; ; cur = pred[cur] {
		rev = append(rev, cur)
		if pred[cur] == cur || len(rev) > len(pred) {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
