package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Hotalloc guards the residual-allocation class of the training step that
// benchmark/'s train_compute workload times: after the tape pool (PR 2)
// and the fused tier (PR 7), what is left on the per-step allocation
// profile is memory conjured inside the hottest closures —
// parallel.For / ForShards / MapReduce bodies, which run once
// per shard per kernel call, and tape-op backward closures, which run once
// per op per Backward. A make, a slice/map literal, or an append inside
// one of those multiplies by the step count and shows straight up in
// allocs/step; the sanctioned buffers are pooled (Tape.Alloc /
// tensor.AcquireScratch) or hoisted to the enclosing function, where they
// are paid once per call instead of once per shard.
//
// The analyzer is syntactic about the closure body: it flags make/new
// calls, slice and map composite literals, and append calls written
// directly inside a hot closure (nested literals included — a closure in a
// closure is still per-shard code). Allocation hidden behind a function
// call is out of scope — the called function is visible on a profile under
// its own name. Intentional allocations (a cold error path, a
// once-per-shard buffer that must be private) carry a reasoned
// //bettyvet:ok hotalloc annotation.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag make/new, slice/map composite literals, and append inside parallel.For/" +
		"ForShards/MapReduce bodies and tape-op closures; hot-path buffers come from " +
		"Tape.Alloc/AcquireScratch or are hoisted to the enclosing function",
	Run: runHotalloc,
}

// hotParallelFuncs are the worker-pool entry points whose closure
// arguments execute once per shard.
var hotParallelFuncs = map[string]bool{"For": true, "ForShards": true, "MapReduce": true}

func runHotalloc(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		if p.isTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, hot := hotClosureCall(p, call)
			if !hot {
				return true
			}
			for _, arg := range call.Args {
				if lit, isLit := ast.Unparen(arg).(*ast.FuncLit); isLit {
					diags = append(diags, allocsIn(p, lit, kind)...)
				}
			}
			return true
		})
	}
	return diags
}

// hotClosureCall reports whether call is one whose closure arguments are
// hot: a parallel.For/ForShards/MapReduce call or a Tape.record/Record
// call (the autograd backward closures).
func hotClosureCall(p *Package, call *ast.CallExpr) (string, bool) {
	fn := funcObj(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if fn.Pkg().Path() == parallelPkg && sig != nil && sig.Recv() == nil && hotParallelFuncs[fn.Name()] {
		return "parallel." + fn.Name() + " body", true
	}
	if isMethodOn(fn, tensorPkg, "Tape", "record") || isMethodOn(fn, tensorPkg, "Tape", "Record") {
		return "tape-op closure", true
	}
	return "", false
}

// allocsIn flags the allocation sites written directly inside lit's body.
func allocsIn(p *Package, lit *ast.FuncLit, kind string) []Diagnostic {
	var diags []Diagnostic
	flag := func(n ast.Node, what string) {
		diags = append(diags, Diagnostic{
			Analyzer: "hotalloc",
			Pos:      p.pos(n),
			Message: fmt.Sprintf("%s in a %s allocates once per shard/op on the hot path: "+
				"use Tape.Alloc/tensor.AcquireScratch, hoist the buffer to the enclosing "+
				"function, or annotate //bettyvet:ok hotalloc <reason>", what, kind),
		})
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			fun, ok := ast.Unparen(s.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			b, ok := p.Info.Uses[fun].(*types.Builtin)
			if !ok {
				return true
			}
			switch b.Name() {
			case "make":
				flag(s, "make")
			case "new":
				flag(s, "new")
			case "append":
				flag(s, "append (may grow)")
			}
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[s]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				flag(s, "slice literal")
			case *types.Map:
				flag(s, "map literal")
			}
		}
		return true
	})
	return diags
}
