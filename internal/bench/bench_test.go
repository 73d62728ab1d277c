package bench

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
	}
	tb.AddRow("1", "x")
	tb.AddRow("22", "y")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "== t: demo ==") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "long-column") {
		t.Fatal("missing column")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + title + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("unexpected line count %d: %q", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "t", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2")
	var sb strings.Builder
	tb.CSV(&sb)
	if sb.String() != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "tab2", "tab5", "tab6", "tab7",
		"abl-reg", "abl-fm", "abl-match", "abl-planner",
	}
	for _, id := range want {
		e, err := Get(id)
		if err != nil {
			t.Fatalf("experiment %s missing: %v", id, err)
		}
		if e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
	if _, err := Get("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestOptionsHelpers(t *testing.T) {
	o := Options{}
	if o.scale(0.5) != 0.5 {
		t.Fatal("default scale should be identity")
	}
	o.Scale = 4
	if o.scale(0.5) != 1 {
		t.Fatal("scale must clamp at 1")
	}
	if o.epochs(7) != 7 {
		t.Fatal("default epochs")
	}
	o.Epochs = 3
	if o.epochs(7) != 3 {
		t.Fatal("override epochs")
	}
}

// Smoke-run the cheap (estimation-only) experiments end to end at a tiny
// scale; the training experiments are exercised by the repository-level
// benchmarks and by TestTrainingExperimentsSmoke below.
func TestEstimationExperimentsSmoke(t *testing.T) {
	for _, id := range []string{"fig2", "fig3", "fig9", "fig11", "fig16", "tab2", "abl-reg", "abl-fm", "abl-match", "abl-planner"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(Options{Scale: 0.08})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced an empty table %q", id, tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Fatalf("%s: row width %d != %d columns", id, len(row), len(tb.Columns))
				}
			}
		}
	}
}

// abl-reg prints no wall-clock column, so two runs render byte for byte
// alike.
func TestAblREGDeterministic(t *testing.T) {
	render := func() string {
		e, err := Get("abl-reg")
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(Options{Scale: 0.08})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tb := range tables {
			tb.Render(&b)
		}
		return b.String()
	}
	if first, second := render(), render(); first != second {
		t.Fatalf("abl-reg differs between runs:\n%s\nvs\n%s", first, second)
	}
}

func TestTrainingExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke runs skipped in -short mode")
	}
	for _, id := range []string{"fig12", "tab7", "fig4", "fig13", "tab6"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(Options{Scale: 0.06, Epochs: 2})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// fig10 exercises the planner search; run it at a tiny scale to keep the
// K search short but still hit the OOM-then-partition path.
func TestFig10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("planner smoke skipped in -short mode")
	}
	e, err := Get("fig10")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(Options{Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) == 0 {
		t.Fatal("no rows")
	}
}
