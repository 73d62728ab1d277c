package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Pooldisc guards the tape-pool ownership discipline from DESIGN.md §8:
// tensor.Tape owns every pooled buffer it hands out, Release returns the
// whole arena, and a released tensor is poison. Three rules follow:
//
//  1. A function that binds a fresh tape to a local (tp :=
//     tensor.NewTape()) must either release a tape (a Release call or
//     defer anywhere in the function) or visibly hand ownership away —
//     return the tape or store it in a struct field whose owner releases
//     it later. Passing a fresh tape straight into a call or a return also
//     counts as a transfer.
//  2. A tensor obtained from Tape.Alloc is arena-backed and dies at
//     Release; it must never escape into a return value or a struct field.
//     (Passing it down as a call argument is fine — the callee finishes
//     before Release can run.)
//  3. A raw scratch slice from tensor.AcquireScratch (the fused-kernel
//     buffers of DESIGN.md §13, serving's staged features) follows the
//     tape's rule 1: the binding function must call tensor.ReleaseScratch
//     or visibly transfer ownership (return the slice or store it in a
//     struct field, where a later function releases it).
//  4. A shard pinned through store.Cache.Pin (the out-of-core feature
//     cache of DESIGN.md §15) follows the same shape: a pinned shard
//     blocks eviction, so the binding function must call store.Cache.Unpin
//     or visibly transfer ownership (return the shard or store it in a
//     struct field whose owner unpins later). A leaked pin slowly wedges
//     the cache — gathers block once every resident shard is pinned.
//
// The tensor and store packages themselves are exempt: each is the
// implementation of its discipline (their internal acquire/release pairs
// are arena- or cache-scoped, not function-scoped). Test files are exempt
// too — short-lived test tapes lean on the GC by design, and the pool only
// retains buffers on Release.
var Pooldisc = &Analyzer{
	Name: "pooldisc",
	Doc: "require every locally bound tensor.NewTape to be Released or ownership-transferred, " +
		"forbid Tape.Alloc results escaping into returns or struct fields, " +
		"require every tensor.AcquireScratch to be ReleaseScratch-ed or ownership-transferred, " +
		"and require every store.Cache.Pin to be Unpinned or ownership-transferred",
	Run: runPooldisc,
}

const (
	tensorPkg = "betty/internal/tensor"
	storePkg  = "betty/internal/store"
)

func runPooldisc(p *Package) []Diagnostic {
	if p.Path == tensorPkg || p.Path == storePkg {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		if p.isTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, pooldiscFunc(p, fd)...)
		}
	}
	return diags
}

func pooldiscFunc(p *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic

	// pooled taints locals holding Tape.Alloc results (directly or through
	// aliasing); owned maps locals bound to a fresh tape to the binding
	// site. ast.Inspect visits statements in source order, so the taint
	// flows top-down, which matches straight-line dataflow closely enough
	// for a lint.
	pooled := make(map[types.Object]bool)
	owned := make(map[types.Object]ast.Node)
	scratchOwned := make(map[types.Object]ast.Node)
	pinOwned := make(map[types.Object]ast.Node)
	released := false
	scratchReleased := false
	unpinned := false

	// isTensorFunc matches a call to a package-level tensor function.
	isTensorFunc := func(e ast.Expr, name string) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := funcObj(p.Info, call)
		return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == tensorPkg &&
			fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
	}
	isNewTape := func(e ast.Expr) bool { return isTensorFunc(e, "NewTape") }
	isAlloc := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		return isMethodOn(funcObj(p.Info, call), tensorPkg, "Tape", "Alloc")
	}
	// isPooled reports whether e evaluates to an arena-backed tensor.
	isPooled := func(e ast.Expr) bool {
		if isAlloc(e) {
			return true
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			return pooled[p.Info.ObjectOf(id)]
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				// Multi-value form. The only tracked multi-value acquisition
				// is the cache pin: sh, err := c.Pin(id).
				if len(s.Lhs) == 2 && len(s.Rhs) == 1 {
					if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok &&
						isMethodOn(funcObj(p.Info, call), storePkg, "Cache", "Pin") {
						if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok {
							pinOwned[p.Info.ObjectOf(id)] = s
						}
					}
				}
				return true
			}
			for i, rhs := range s.Rhs {
				lhs := ast.Unparen(s.Lhs[i])
				switch {
				case isNewTape(rhs):
					// Ident binding demands a Release; a field store is an
					// ownership transfer and needs nothing here.
					if id, ok := lhs.(*ast.Ident); ok {
						owned[p.Info.ObjectOf(id)] = s
					}
				case isTensorFunc(rhs, "AcquireScratch"):
					if id, ok := lhs.(*ast.Ident); ok {
						scratchOwned[p.Info.ObjectOf(id)] = s
					}
				case isPooled(rhs):
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						diags = append(diags, Diagnostic{
							Analyzer: "pooldisc",
							Pos:      p.pos(s),
							Message: fmt.Sprintf("pooled tensor from Tape.Alloc stored in field %s: "+
								"arena-backed tensors die at Release and must not outlive the tape", sel.Sel.Name),
						})
					} else if id, ok := lhs.(*ast.Ident); ok {
						pooled[p.Info.ObjectOf(id)] = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if isPooled(res) {
					diags = append(diags, Diagnostic{
						Analyzer: "pooldisc",
						Pos:      p.pos(s),
						Message: "pooled tensor from Tape.Alloc returned: arena-backed tensors die " +
							"at the tape's Release and must not escape the releasing function",
					})
				}
				// Returning an owned tape or scratch slice transfers
				// ownership to the caller.
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					delete(owned, p.Info.ObjectOf(id))
					delete(scratchOwned, p.Info.ObjectOf(id))
					delete(pinOwned, p.Info.ObjectOf(id))
				}
			}
		case *ast.CallExpr:
			if isMethodOn(funcObj(p.Info, s), tensorPkg, "Tape", "Release") {
				released = true
			}
			if isTensorFunc(s, "ReleaseScratch") {
				scratchReleased = true
			}
			if isMethodOn(funcObj(p.Info, s), storePkg, "Cache", "Unpin") {
				unpinned = true
			}
		}
		return true
	})

	if !released {
		for obj, site := range owned {
			if fieldAssigned(p, fd, obj) {
				continue // ownership transferred to a long-lived struct
			}
			diags = append(diags, Diagnostic{
				Analyzer: "pooldisc",
				Pos:      p.pos(site),
				Message: "tensor.NewTape bound here but no Tape.Release in this function: every pooled " +
					"acquisition must be released (defer tp.Release()) or ownership visibly transferred",
			})
		}
	}
	if !scratchReleased {
		for obj, site := range scratchOwned {
			if fieldAssigned(p, fd, obj) {
				continue // install-pattern transfer: the owning struct's uninstall releases it
			}
			diags = append(diags, Diagnostic{
				Analyzer: "pooldisc",
				Pos:      p.pos(site),
				Message: "tensor.AcquireScratch bound here but no tensor.ReleaseScratch in this function: " +
					"every scratch slice must be released (defer tensor.ReleaseScratch(s)) or ownership visibly transferred",
			})
		}
	}
	if !unpinned {
		for obj, site := range pinOwned {
			if fieldAssigned(p, fd, obj) {
				continue // ownership transferred: the holding struct unpins later
			}
			diags = append(diags, Diagnostic{
				Analyzer: "pooldisc",
				Pos:      p.pos(site),
				Message: "store.Cache.Pin bound here but no Cache.Unpin in this function: a leaked pin " +
					"blocks eviction forever — unpin (defer c.Unpin(sh)) or visibly transfer ownership",
			})
		}
	}
	return diags
}

// fieldAssigned reports whether obj's value is assigned to a struct field
// somewhere in fd (ownership transfer of a tape).
func fieldAssigned(p *Package, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok || len(s.Lhs) != len(s.Rhs) {
			return true
		}
		for i, rhs := range s.Rhs {
			id, ok := ast.Unparen(rhs).(*ast.Ident)
			if !ok || p.Info.ObjectOf(id) != obj {
				continue
			}
			if _, ok := ast.Unparen(s.Lhs[i]).(*ast.SelectorExpr); ok {
				found = true
			}
		}
		return true
	})
	return found
}
