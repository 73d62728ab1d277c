package lint

import (
	"slices"
	"testing"
)

// TestRepositoryClean runs the full analyzer suite — all seven analyzers,
// local and module-scoped, plus the suppression audit — over the whole
// module and requires zero active diagnostics and zero stale suppressions:
// every real finding must be fixed, every intentional one annotated, and
// every annotation must still be earning its keep. This is the in-tree
// twin of the CI `go run ./cmd/bettyvet -audit ./...` gate.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is not short")
	}
	m, err := LoadModule("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
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
// ./cmd/bettyvet <pattern>` does. internal/train's external test imports
// core, which imports train, so that test type-checks only against go
// list's "[betty/internal/train.test]" variants of core and train, not
// their plain export data. A subset run sees no metric writer outside the
// subset, so obsdisc reports the names the subset only reads; the counts
// pin that view.
func TestLoadSubset(t *testing.T) {
	for _, tc := range []struct {
		pattern           string
		paths             []string
		diags, suppressed int
	}{
		{"./internal/train", []string{"betty/internal/train", "betty/internal/train_test"}, 2, 1},
		{"./benchmark", []string{"betty/benchmark"}, 8, 5},
	} {
		m, err := LoadModule("../..", tc.pattern)
		if err != nil {
			t.Fatalf("%s: %v", tc.pattern, err)
		}
		var paths []string
		for _, p := range m.Pkgs {
			paths = append(paths, p.Path)
		}
		if !slices.Equal(paths, tc.paths) {
			t.Errorf("%s: loaded %v, want %v", tc.pattern, paths, tc.paths)
		}
		res := m.Run()
		if len(res.Diags) != tc.diags || len(res.Suppressed) != tc.suppressed {
			t.Errorf("%s: %d diagnostics and %d suppressed findings, want %d and %d",
				tc.pattern, len(res.Diags), len(res.Suppressed), tc.diags, tc.suppressed)
		}
	}
}
