package bench

import (
	"slices"
	"strconv"
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
	first := map[string]*Table{}
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
		first[id] = tables[0]
	}

	// Fig. 11 on ogbn-products: Betty's largest micro-batch is the
	// smallest at every K, and Metis beats both REG-unaware splits. (Across
	// datasets at K = 8 the order does not hold everywhere; EXPERIMENTS.md.)
	fig11 := first["fig11"]
	ks := intColumn(t, fig11, "batches")
	betty, metis := floatColumn(t, fig11, "betty"), floatColumn(t, fig11, "metis")
	rng, random := floatColumn(t, fig11, "range"), floatColumn(t, fig11, "random")
	for r, k := range ks {
		if !(betty[r] < metis[r] && metis[r] < min(rng[r], random[r])) {
			t.Errorf("fig11 K=%d: betty %v, metis %v, range %v, random %v MiB; want betty < metis < min(range, random)",
				k, betty[r], metis[r], rng[r], random[r])
		}
	}

	// Fig. 16: Betty's micro-batches duplicate the fewest input nodes at
	// every K, and Metis fewer than both REG-unaware splits. Betty's
	// reduction does not grow with K (it peaks at K = 8 here), so that is
	// not asserted; EXPERIMENTS.md.
	fig16 := first["fig16"]
	ks = intColumn(t, fig16, "batches")
	rb, rm := intColumn(t, fig16, "betty"), intColumn(t, fig16, "metis")
	rr, rx := intColumn(t, fig16, "range"), intColumn(t, fig16, "random")
	for r, k := range ks {
		if !(rb[r] < rm[r] && rm[r] < min(rr[r], rx[r])) {
			t.Errorf("fig16 K=%d: redundancy betty %d, metis %d, range %d, random %d; want betty < metis < min(range, random)",
				k, rb[r], rm[r], rr[r], rx[r])
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

// TestTrainingExperimentsSmoke runs the training experiments at a tiny
// scale and asserts two of the paper's shapes on their tables.
func TestTrainingExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke runs skipped in -short mode")
	}
	first := map[string]*Table{}
	for _, id := range []string{"fig12", "tab7", "fig4", "fig13", "tab6", "fig14"} {
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
		first[id] = tables[0]
	}

	// Fig. 14: Betty's micro-batches share more inputs, so at every K >= 2
	// they move fewer bytes host-to-device than range's or random's.
	fig14 := first["fig14"]
	ks, h2d := intColumn(t, fig14, "batches"), intColumn(t, fig14, "H2D bytes")
	part := slices.Index(fig14.Columns, "partitioner")
	byK := map[int64]map[string]int64{}
	for r, row := range fig14.Rows {
		if ks[r] < 2 {
			continue
		}
		if byK[ks[r]] == nil {
			byK[ks[r]] = map[string]int64{}
		}
		byK[ks[r]][row[part]] = h2d[r]
	}
	if len(byK) == 0 {
		t.Fatal("fig14 has no row with K >= 2")
	}
	for k, bytes := range byK {
		betty, ok := bytes["betty"]
		for _, base := range []string{"range", "random"} {
			other, found := bytes[base]
			if !ok || !found {
				t.Fatalf("fig14 K=%d lacks a betty or %s row: %v", k, base, bytes)
			}
			if betty >= other {
				t.Errorf("fig14 K=%d: betty moves %d H2D bytes, %s %d", k, betty, base, other)
			}
		}
	}

	// Fig. 13: micro-batch training is full-batch training regrouped, so
	// every K prints the full batch's test accuracy at every epoch.
	fig13 := first["fig13"]
	if len(fig13.Columns) != 5 || fig13.Columns[1] != "full batch" {
		t.Fatalf("fig13 columns %v, want epoch, full batch and three micro-batch counts", fig13.Columns)
	}
	for _, row := range fig13.Rows {
		for c := 2; c < len(row); c++ {
			if row[c] != row[1] {
				t.Errorf("fig13 epoch %s: %s accuracy %s, full batch %s", row[0], fig13.Columns[c], row[c], row[1])
			}
		}
	}

	// Table 7: the estimate is the charge list the runner allocates, so
	// the LSTM estimate's error is zero in every cell.
	for r, e := range floatColumn(t, first["tab7"], "error/%") {
		if e != 0 {
			t.Errorf("tab7 row %d: estimation error %v %%, want 0", r, e)
		}
	}

	// Table 6: slicing one sampled batch re-expands no shared neighbour, so
	// micro-batches load fewer first-layer inputs than independently
	// sampled mini-batches at every K >= 2.
	tab6 := first["tab6"]
	ks = intColumn(t, tab6, "batches")
	micro, mini := intColumn(t, tab6, "micro inputs"), intColumn(t, tab6, "mini inputs")
	checked := 0
	for r, k := range ks {
		if k < 2 {
			continue
		}
		checked++
		if micro[r] >= mini[r] {
			t.Errorf("tab6 K=%d: %d micro inputs, %d mini inputs", k, micro[r], mini[r])
		}
	}
	if checked == 0 {
		t.Fatal("tab6 has no row with K >= 2")
	}
}

// floatColumn parses the named column of tb as floats.
func floatColumn(t *testing.T, tb *Table, name string) []float64 {
	t.Helper()
	col := slices.Index(tb.Columns, name)
	if col < 0 {
		t.Fatalf("%s: no column %q in %v", tb.ID, name, tb.Columns)
	}
	out := make([]float64, len(tb.Rows))
	for r, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("%s: %s row %d: %v", tb.ID, name, r, err)
		}
		out[r] = v
	}
	return out
}

// intColumn parses the named column of tb as integers.
func intColumn(t *testing.T, tb *Table, name string) []int64 {
	t.Helper()
	col := slices.Index(tb.Columns, name)
	if col < 0 {
		t.Fatalf("%s: no column %q in %v", tb.ID, name, tb.Columns)
	}
	out := make([]int64, len(tb.Rows))
	for r, row := range tb.Rows {
		v, err := strconv.ParseInt(row[col], 10, 64)
		if err != nil {
			t.Fatalf("%s: %s row %d: %v", tb.ID, name, r, err)
		}
		out[r] = v
	}
	return out
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
