package lint

import (
	"slices"
	"testing"
)

// TestRepositoryClean runs the full analyzer suite — all five analyzers,
// local and module-scoped, plus the suppression audit — over the whole
// module and requires zero active diagnostics and zero stale suppressions:
// every real finding must be fixed, every intentional one annotated, and
// every annotation must still be earning its keep. This is the in-tree
// twin of the CI `go run ./cmd/bettyvet -audit ./...` gate.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is not short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	res := NewModule(pkgs).Run()
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
	for _, d := range res.Stale {
		t.Errorf("%s", d)
	}
	if len(res.Diags) > 0 {
		t.Error("bettyvet must be clean on the committed tree: fix the finding or annotate it with //bettyvet:ok <analyzer> <reason>")
	}
	if len(res.Stale) > 0 {
		t.Error("stale //bettyvet:ok annotations must be removed (go run ./cmd/bettyvet -audit ./...)")
	}
}

// TestLoadSubset loads two subsets of the module the way `go run
// ./cmd/bettyvet <pattern>` does. The root package's external test
// (package betty_test) is returned as a package of its own. No package it
// imports imports the root package, so go list builds no "[betty.test]"
// variants and its importer reads plain export data throughout. A subset
// run sees no metric writer outside the subset, so obsdisc reports the
// names the subset only reads; the counts pin that view.
func TestLoadSubset(t *testing.T) {
	for _, tc := range []struct {
		pattern           string
		paths             []string
		diags, suppressed int
	}{
		{".", []string{"betty", "betty_test"}, 0, 0},
		{"./benchmark", []string{"betty/benchmark"}, 8, 5},
	} {
		pkgs, err := Load("../..", tc.pattern)
		if err != nil {
			t.Fatalf("%s: %v", tc.pattern, err)
		}
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		if !slices.Equal(paths, tc.paths) {
			t.Errorf("%s: loaded %v, want %v", tc.pattern, paths, tc.paths)
		}
		res := NewModule(pkgs).Run()
		if len(res.Diags) != tc.diags || len(res.Suppressed) != tc.suppressed {
			t.Errorf("%s: %d diagnostics and %d suppressed findings, want %d and %d",
				tc.pattern, len(res.Diags), len(res.Suppressed), tc.diags, tc.suppressed)
		}
	}
}

// TestLoadExternalTestVariants loads testdata/xtestmod, a module whose
// package base has an external test that imports user, a dependent of
// base. go list builds that test against "[xtestmod/base.test]" variants of
// base (with its internal test files, which alone declare base.Secret) and
// of user (built against that base). The external test type-checks only if
// Load's importer for it prefers those variants to the plain export data.
func TestLoadExternalTestVariants(t *testing.T) {
	pkgs, err := Load("testdata/xtestmod", "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"xtestmod/base", "xtestmod/base_test", "xtestmod/user"}
	if !slices.Equal(paths, want) {
		t.Fatalf("loaded %v, want %v", paths, want)
	}
	if obj := pkgs[1].Pkg.Scope().Lookup("TestWrap"); obj == nil {
		t.Fatal("the external test package has no TestWrap")
	}
}
