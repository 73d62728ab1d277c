package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// repeatsExactly are the end-to-end metrics that are pure functions of the
// inputs on the training workloads: two sets of the same code on the same
// seed must agree on them to the last bit, whatever the bound says.
var repeatsExactly = map[string]bool{"peak_device_bytes": true, "loss": true}

// gap is one workload x metric comparison across the sets.
type gap struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	// Gap is how much worse the worst set is than the best, as a share of
	// the best.
	Gap    float64 `json:"gap"`
	Bound  float64 `json:"bound"`
	Breach bool    `json:"breach"`
	// Exact is set where the values had to be identical, and were.
	Exact bool `json:"exact,omitempty"`
}

// worseBy is the relative gap between the worst and the best of values, in
// the metric's own direction.
func worseBy(values []float64, better string) float64 {
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	best := lo
	if better == "higher" {
		best = hi
	}
	//bettyvet:ok floateq a metric that reads exactly 0 has no relative gap; guard the division
	if best == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(best)
}

// selfTest is the A/A mode: the untraced benchmark run `sets` times on one
// seed by one binary. A gap between sets beyond a metric's bound means the
// bound is tighter than the benchmark's own noise, and the run fails.
func selfTest(run []workload, opt runOpts, sets int, stdout, stderr io.Writer) int {
	values := map[string][]float64{} // "workload/metric" -> one value per set
	for s := 0; s < sets; s++ {
		fmt.Fprintf(stdout, "\n#### set %d of %d\n", s+1, sets)
		for i := range run {
			res, err := run[i].run(opt, false)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			res.print(stdout)
			if !res.correct() {
				fmt.Fprintln(stderr, "benchmark: an operation failed or an output check did not pass")
				return 1
			}
			for _, d := range endToEnd {
				key := res.Workload + "/" + d.Name
				values[key] = append(values[key], res.Values[d.Name])
			}
		}
	}
	var gaps []gap
	breaches := 0
	fmt.Fprintf(stdout, "\n#### A/A: worst set against best set, %d sets\n", sets)
	for i := range run {
		for _, d := range endToEnd {
			vs := values[run[i].Name+"/"+d.Name]
			g := gap{Workload: run[i].Name, Metric: d.Name, Unit: d.Unit, Values: vs, Gap: worseBy(vs, d.Better), Bound: d.Bound}
			g.Breach = g.Gap > d.Bound
			if run[i].Train != nil && repeatsExactly[d.Name] {
				g.Exact = g.Gap == 0 //bettyvet:ok floateq bitwise repeatability is the property under test
				g.Breach = !g.Exact
			}
			verdict := "ok"
			if g.Breach {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "  %-16s %-18s gap %7.3f%%  bound %5.1f%%  %s\n", g.Workload, g.Metric, 100*g.Gap, 100*g.Bound, verdict)
			gaps = append(gaps, g)
		}
	}
	blob, err := json.MarshalIndent(struct {
		Seed uint64 `json:"seed"`
		Sets int    `json:"sets"`
		Gaps []gap  `json:"gaps"`
	}{opt.Seed, sets, gaps}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(opt.OutDir, "aa.json"), append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: writing aa.json:", err)
		return 1
	}
	if breaches > 0 {
		fmt.Fprintf(stderr, "benchmark: %d metric(s) moved between identical sets by more than their bound\n", breaches)
		return 1
	}
	return 0
}
