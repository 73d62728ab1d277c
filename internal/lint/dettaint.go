package lint

import (
	"fmt"
	"go/types"
	"strconv"
	"strings"
)

// Dettaint guards DESIGN.md §8's determinism clause — kernel outputs are
// pure functions of their inputs and seeds — against nondeterministic
// inputs: wall-clock reads, the global math/rand stream and worker-count
// reads (shard boundaries must depend on the problem, never on
// runtime.NumCPU, GOMAXPROCS or parallel.Workers).
//
// It scans the kernel packages, internal/nn (whose layers run inside every
// kernel call of the training step), and every module package their
// non-test files import, transitively: a sink one package away from a
// kernel breaks the same bitwise-reproduction guarantee (PAPER.md §4) as
// one inside it. internal/obs is the one exemption: kernels reach its
// clock only through the injected obs.Clock interface, and obs's
// FakeClock goldens pin its direct wall-clock reads. Inside the scanned
// packages, test files included, every identifier use that resolves to a
// sink is reported — not only calls, so storing time.Now in a variable is
// caught too — and importing math/rand, math/rand/v2 or crypto/rand at all
// is banned.
var Dettaint = &Analyzer{
	Name: "dettaint",
	Doc: "forbid nondeterministic inputs (wall clock, math/rand and crypto/rand, worker-count reads) " +
		"in the kernel packages, internal/nn, and every module package they import (internal/obs excepted)",
	RunModule: runDettaint,
}

// bannedKernelImports are whole packages kernels may not import: their
// entire APIs are nondeterministic sources.
var bannedKernelImports = map[string]string{
	"math/rand":    "use the seeded betty/internal/rng instead",
	"math/rand/v2": "use the seeded betty/internal/rng instead",
	"crypto/rand":  "kernels need reproducible streams, not entropy",
}

// sinkAdvice is the fix each kind of sink calls for.
var sinkAdvice = map[string]string{
	"wall-clock":   "kernel results must not depend on time (inject timestamps from the caller)",
	"global-rand":  "randomness must come from the seeded betty/internal/rng",
	"worker-count": "shard boundaries must depend only on the problem (keep worker awareness inside internal/parallel)",
}

var (
	// wallClockFuncs are the time-package reads whose results change run
	// to run. Importing time for durations and formatting stays legal.
	wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

	// globalRandExempt are the math/rand package-level functions that do
	// not touch the global stream: constructors for locally seeded
	// generators are deterministic when their seed is.
	globalRandExempt = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}
)

const (
	nnPkg       = "betty/internal/nn"
	parallelPkg = "betty/internal/parallel"
)

func runDettaint(m *Module) []Diagnostic {
	scope := taintScope(m.Pkgs)
	var diags []Diagnostic
	for _, p := range m.Pkgs {
		if scope[strings.TrimSuffix(p.Path, "_test")] {
			diags = append(diags, kernelSinks(p)...)
		}
	}
	return diags
}

// taintScope returns the import paths dettaint scans: the kernel packages,
// nn, and the closure of their non-test imports among the loaded packages,
// stopping at obs.
func taintScope(pkgs []*Package) map[string]bool {
	imports := make(map[string][]string)
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, "_test") {
			continue
		}
		for _, f := range p.Files {
			if p.isTestFile(f) {
				continue
			}
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil {
					imports[p.Path] = append(imports[p.Path], path)
				}
			}
		}
	}
	scope := make(map[string]bool)
	var visit func(path string)
	visit = func(path string) {
		if scope[path] || path == obsPkg {
			return
		}
		scope[path] = true
		for _, imp := range imports[path] {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		path := strings.TrimSuffix(p.Path, "_test")
		if isKernel(path) || path == nnPkg {
			visit(path)
		}
	}
	return scope
}

// kernelSinks reports every sink use and banned import in one scanned
// package.
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
					Message:  fmt.Sprintf("kernel-scope package imports nondeterministic %s: %s", path, why),
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
			Message:  fmt.Sprintf("%s (%s) used in a kernel-scope package; %s", detail, kind, sinkAdvice[kind]),
		})
	}
	return diags
}

// classifySink reports whether a use of fn from a function in callerPkg
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
