package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.25, 3}, {0.75, 8}, {0.95, 10}, {0, 1}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.N != 4 || s.Min != 1 || s.Med != 2 || s.Q3 != 3 || s.Max != 4 {
		t.Errorf("summarize = %+v", s)
	}
}

// The tail percentile is the highest of the ladder with ten samples beyond.
func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{14, 0.50}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {4000, 0.95}} {
		//bettyvet:ok floateq tailQuantile returns a ladder constant unchanged
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0.5 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, q*100, beyond(c.n, q))
		}
	}
	if got := beyond(4000, 0.95); got != 200 {
		t.Errorf("beyond(4000, p95) = %d, want 200", got)
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	// root 0..100; group 10..60 holding a probe 10..20 and a call 20..50;
	// two overlapping children 60..80 and 70..90 (merged: 30 covered); a
	// child running past the root's end is clipped.
	spans := []span{
		{ID: 0, Parent: -1, Name: "epoch", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "plan", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "reg.build", Start: 10, End: 20, Probe: true},
		{ID: 3, Parent: 1, Name: "partition", Start: 20, End: 50},
		{ID: 4, Parent: 0, Name: "a", Start: 60, End: 80},
		{ID: 5, Parent: 0, Name: "b", Start: 70, End: 90},
		{ID: 6, Parent: 0, Name: "late", Start: 95, End: 120},
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 30 - 5, 50 - 10 - 30, 10, 30, 20, 20, 25}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	a := attribute(spans, self, 0, map[string]bool{"plan": true})
	if a.Probes != 10 || a.Wall != 90 {
		t.Errorf("probes %d wall %d, want 10 and 90", a.Probes, a.Wall)
	}
	// Unattributed: the root's own 15 plus the group's own 10.
	if a.Unattributed != 25 {
		t.Errorf("unattributed = %d, want 25", a.Unattributed)
	}
	if got, want := a.coverage(), float64(90-25)/90; math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if a.Self["reg.build"] != 10 || a.Self["partition"] != 30 || a.Self["plan"] != 0 {
		t.Errorf("self by name = %v", a.Self)
	}
}

// traceBytes is the canonical encoding "same seed, same inputs" is asserted on.
func traceBytes(trace [][]int32) []byte {
	var b []byte
	for _, req := range trace {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(req)))
		for _, v := range req {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	return b
}

func TestRequestTraceDeterminismAndSkew(t *testing.T) {
	const nodes = 40000
	a := requestTrace(7, 2000, 8, nodes, 3)
	if !bytes.Equal(traceBytes(a), traceBytes(requestTrace(7, 2000, 8, nodes, 3))) {
		t.Error("same seed, different trace")
	}
	if bytes.Equal(traceBytes(a), traceBytes(requestTrace(8, 2000, 8, nodes, 3))) {
		t.Error("different seeds, same trace")
	}
	// A longer trace extends a shorter one: warm-up and measured requests
	// come from one non-repeating stream.
	if !bytes.HasPrefix(traceBytes(requestTrace(7, 2500, 8, nodes, 3)), traceBytes(a)) {
		t.Error("a longer trace does not start with the shorter one")
	}
	lowEighth := func(trace [][]int32) float64 {
		low, all := 0, 0
		for _, req := range trace {
			for _, v := range req {
				if v < 0 || v >= nodes {
					t.Fatalf("node %d out of range", v)
				}
				if v < nodes/8 {
					low++
				}
				all++
			}
		}
		return float64(low) / float64(all)
	}
	// idx = n·u³ puts u < 1/2, half the draws, in the lowest eighth of ids.
	if got := lowEighth(a); math.Abs(got-0.5) > 0.03 {
		t.Errorf("skew 3: %.3f of draws in the lowest eighth, want about 0.5", got)
	}
	if got := lowEighth(requestTrace(7, 2000, 8, nodes, 1)); math.Abs(got-0.125) > 0.02 {
		t.Errorf("uniform: %.3f of draws in the lowest eighth, want about 0.125", got)
	}
}

func TestClientScheduleAndTrainOrder(t *testing.T) {
	sched := clientSchedule(3, 500, 1500, 2)
	if len(sched) != 2 || len(sched[0]) != 500 || len(sched[1]) != 500 {
		t.Fatalf("shares %d and %d, want 500 each", len(sched[0]), len(sched[1]))
	}
	seen := map[int]bool{}
	for _, share := range sched {
		for _, idx := range share {
			if idx < 500 || idx >= 1500 || seen[idx] {
				t.Fatalf("index %d out of range or dealt twice", idx)
			}
			seen[idx] = true
		}
	}
	again := clientSchedule(3, 500, 1500, 2)
	for c := range sched {
		for i := range sched[c] {
			if sched[c][i] != again[c][i] {
				t.Fatal("same seed, different interleaving")
			}
		}
	}
	idx := []int32{5, 9, 2, 7, 11, 3, 8}
	order := trainOrder(4, idx)
	if &order[0] == &idx[0] {
		t.Error("trainOrder reordered its input in place")
	}
	sorted := append([]int32(nil), order...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, v := range []int32{2, 3, 5, 7, 8, 9, 11} {
		if sorted[i] != v {
			t.Fatalf("trainOrder changed the seed set: %v", order)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-] or too long", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, w := range workloads {
		use(w.Name)
		if (w.Train == nil) == (w.Serve == nil) {
			t.Errorf("%s must be a training or a serving workload, not both or neither", w.Name)
		}
	}
	var largest float64
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = math.Max(largest, d.Bound)
	}
	//bettyvet:ok floateq the largest bound is one of the table's own values
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first and carry the largest bound")
	}
}

// BENCHMARK.json is what the driver reads; the tables in spec.go are what
// the program reports. They must say the same thing.
func TestBenchmarkJSONAgreesWithCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code says %d", file.RunSeconds, runSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if strings.Join(file.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command = %v", file.Command)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f := file.Workloads[i]; f.Name != w.Name || f.Why != w.Why {
			t.Errorf("workload %d: file has %q / %q, code has %q / %q", i, f.Name, f.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: file has %+v, code has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", g.Name, g.Bound != nil, bounded)
				//bettyvet:ok floateq both sides are the same decimal literal, parsed
			} else if bounded && *g.Bound != d.Bound {
				t.Errorf("%s: bound %v in the file, %v in code", g.Name, *g.Bound, d.Bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}

func TestRefusesAnyBettyVariable(t *testing.T) {
	if got := bettyEnv([]string{"HOME=/root", "BETTY_WORKERS=2", "NOT_BETTY_X=1", "BETTY_QUANT="}); len(got) != 2 {
		t.Errorf("bettyEnv found %v, want the two BETTY_ variables", got)
	}
	t.Setenv("BETTY_EMBCACHE", "reuse")
	var stderr bytes.Buffer
	if code := realMain([]string{"-smoke"}, io.Discard, &stderr); code != 2 {
		t.Errorf("exit code %d with BETTY_EMBCACHE set, want 2", code)
	}
	if !strings.Contains(stderr.String(), "BETTY_EMBCACHE=reuse") {
		t.Errorf("refusal does not name the variable: %q", stderr.String())
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy([]float64{10, 11}, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower is better: %v, want 0.1", got)
	}
	if got := worseBy([]float64{10, 8}, "higher"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("higher is better: %v, want 0.2", got)
	}
	if got := worseBy([]float64{3, 3, 3}, "lower"); got != 0 {
		t.Errorf("identical values: %v, want 0", got)
	}
}

func TestOpsScaling(t *testing.T) {
	z := sizing{Ops: 20, MinOps: 14}
	for _, c := range []struct {
		seconds float64
		want    int
	}{{runSeconds, 20}, {2 * runSeconds, 40}, {1, 14}} {
		if got := z.ops(c.seconds); got != c.want {
			t.Errorf("ops(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// TestSmoke runs both passes of all five workloads at toy size: every
// metric is reported, every output check passes, and the driver's JSON line
// has exactly the contract's keys.
func TestSmoke(t *testing.T) {
	opt := runOpts{Seed: defaultSeed, Seconds: runSeconds, Smoke: true, Setups: 1, OutDir: t.TempDir()}
	opt.Tmp = opt.OutDir
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := w.run(opt, traced)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %q failed (%s)", w.Name, traced, c.Name, c.Detail)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed", w.Name, traced, res.Attempted, res.Failed)
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(res.jsonLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: JSON line: %v", w.Name, err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s traced=%v: JSON line %s", w.Name, traced, res.jsonLine())
			}
			want := defs(traced)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the JSON line, want %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or without its unit", w.Name, traced, d.Name)
				} else if !traced && *m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, d.Name)
				}
			}
			if traced {
				if _, err := os.Stat(opt.tracePath(w)); err != nil {
					t.Errorf("%s: no trace written: %v", w.Name, err)
				}
			}
		}
	}
}
