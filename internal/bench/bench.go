// Package bench is the experiment harness: every table and figure of the
// paper's evaluation (§3 and §6) has a regenerator here that produces the
// same rows or series the paper reports, against the simulated device and
// the synthetic datasets. The cmd/bettybench CLI and the repository's
// testing.B benchmarks both drive this package.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"betty/internal/dataset"
	"betty/internal/device"
)

// Table is one experiment output: a titled grid of cells.
type Table struct {
	// ID names the experiment ("fig12", "tab6", ...).
	ID string
	// Title describes the table for humans.
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes an aligned text rendering of the table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Options tunes an experiment run.
type Options struct {
	// Scale multiplies each experiment's built-in dataset scale; 1 runs
	// the defaults, smaller values make quick smoke runs.
	Scale float64
	// Epochs overrides the experiment's training epoch count when > 0.
	Epochs int
	// Log receives progress lines (nil discards them).
	Log io.Writer
}

func (o Options) scale(base float64) float64 {
	s := o.Scale
	if s <= 0 {
		s = 1
	}
	v := base * s
	if v > 1 {
		v = 1
	}
	return v
}

func (o Options) epochs(def int) int {
	if o.Epochs > 0 {
		return o.Epochs
	}
	return def
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Experiment regenerates one paper table or figure.
type Experiment struct {
	// ID is the registry key ("fig2" ... "tab7", "abl-*").
	ID string
	// Paper describes what the experiment reproduces.
	Paper string
	// Run executes the experiment.
	Run func(Options) ([]*Table, error)
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns a registered experiment.
func Get(id string) (*Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// IDs lists registered experiment ids sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SimCapacity is the simulated accelerator capacity used by the OOM-wall
// experiments. The datasets here are scaled-down versions of the paper's,
// so the capacity is scaled from the RTX 6000's 24 GB to keep the same
// configurations on each side of the wall (see EXPERIMENTS.md).
const SimCapacity = 1 * device.GiB

// loadDataset generates a registered dataset at the experiment's scale,
// memoized per (name, scale) because generation is deterministic.
func loadDataset(name string, scale float64) (*dataset.Dataset, error) {
	key := fmt.Sprintf("%s@%.4f", name, scale)
	if d, ok := dsCache[key]; ok {
		return d, nil
	}
	var d *dataset.Dataset
	var err error
	if scale >= 1 {
		d, err = dataset.Load(name)
	} else {
		d, err = dataset.LoadScaled(name, scale)
	}
	if err != nil {
		return nil, err
	}
	dsCache[key] = d
	return d, nil
}

var dsCache = map[string]*dataset.Dataset{}

// fmtMiB renders bytes as MiB with two decimals.
func fmtMiB(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// fmtGiB renders bytes as GiB with three decimals.
func fmtGiB(b int64) string { return fmt.Sprintf("%.3f", float64(b)/(1<<30)) }

// fmtBytes renders an exact byte count.
func fmtBytes(b int64) string { return fmt.Sprintf("%d", b) }

// fmtF renders a float with the given precision.
func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// fmtI renders an int.
func fmtI(v int) string { return fmt.Sprintf("%d", v) }
