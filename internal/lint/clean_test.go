package lint

import "testing"

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
