package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir          string
	ImportPath   string
	Export       string
	ForTest      string
	DepOnly      bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// Load lists patterns, with their dependencies and test variants, in one
// `go list -deps -test -export -json` run in dir. That run also has the go
// command compile every listed package to export data (from its build
// cache when warm). Load then parses each matched package and type-checks
// it once with go/types, reading every import — standard library and
// module alike — from the export data the listing names. Nothing is
// fetched and no package is type-checked twice, so the load is offline.
//
// The returned packages are analysis views: internal _test.go files are
// type-checked together with the package they extend, and external test
// packages (package foo_test) are returned as packages of their own with
// the import path "foo_test".
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	// export maps each listed import path, test variants such as
	// "betty/internal/core [betty/internal/train.test]" included, to its
	// export data. The matched packages are the listing's plain entries
	// that are neither dependencies only, test variants nor test mains.
	export := make(map[string]string, len(listed))
	var targets []*listPackage
	for _, lp := range listed {
		export[lp.ImportPath] = lp.Export
		if !lp.DepOnly && lp.ForTest == "" && !strings.HasSuffix(lp.ImportPath, ".test") {
			targets = append(targets, lp)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	plain := exportImporter(fset, export, "")
	var out []*Package
	for _, lp := range targets {
		p, err := check(fset, lp.ImportPath, lp.Dir, slices.Concat(lp.GoFiles, lp.TestGoFiles), plain)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		if len(lp.XTestGoFiles) > 0 {
			// An external test imports its package with the internal test
			// files compiled in, and so every package between the two:
			// go list names those variants "dep [foo.test]". Each external
			// test gets an importer of its own so the variants never meet
			// the plain packages of the same path.
			xtest := exportImporter(fset, export, " ["+lp.ImportPath+".test]")
			xp, err := check(fset, lp.ImportPath+"_test", lp.Dir, lp.XTestGoFiles, xtest)
			if err != nil {
				return nil, err
			}
			out = append(out, xp)
		}
	}
	return out, nil
}

// goList runs `go list -deps -test -export -json` in dir and decodes the
// JSON stream.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-test", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var pkgs []*listPackage
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// exportImporter reads imports from the export data in export, preferring
// each path's variant (a suffix such as " [foo.test]") over the plain
// package.
func exportImporter(fset *token.FileSet, export map[string]string, variant string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path+variant]
		if !ok {
			file = export[path]
		}
		if file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}

// check parses names in dir and type-checks them as the package path.
func check(fset *token.FileSet, path, dir string, names []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
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
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}
