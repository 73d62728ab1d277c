// Command benchmark is the repository's benchmark: five single-purpose
// workloads over the training and serving paths, measured in the default
// configuration, with an untraced pass for the end-to-end metrics and a
// traced pass that times every layer from outside. See README.md.
//
//	go run ./benchmark                       every workload, both passes
//	go run ./benchmark -workload serve_hot   one workload
//	go run ./benchmark -sets 2               A/A self-test against the bounds
//	go run ./benchmark -smoke                every workload at toy size
//
// The driver's form, one pass of one workload ending in a JSON line:
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"betty/internal/tensor"
)

// outDir receives the traces, the A/A report and, while a run lasts, the
// packed stores; it is relative to the checkout root the benchmark runs from.
const outDir = "benchmark/out"

// runOpts are one run's settings.
type runOpts struct {
	Seed    uint64
	Seconds float64
	Smoke   bool
	// Setups is how many times the workload is built; setup_s is the median.
	Setups int
	// OutDir receives traces; Tmp, beneath it, is removed when the run ends.
	OutDir, Tmp string
}

func (o runOpts) sizing(w *workload) sizing {
	if o.Smoke {
		return w.Smoke
	}
	return w.Full
}

// scratch creates a directory for one build's files.
func (o runOpts) scratch(name string) (string, error) {
	dir := filepath.Join(o.Tmp, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

func (o runOpts) tracePath(w *workload) string {
	return filepath.Join(o.OutDir, "trace_"+w.Name+".ndjson")
}

// check is one output check; a failed check makes the run incorrect.
type check struct {
	Name, Detail string
	OK           bool
}

// result is one pass of one workload.
type result struct {
	Workload          string
	Smoke, Traced     bool
	Attempted, Failed int
	Checks            []check
	Values            map[string]float64
	Samples           map[string]summary
	Notes             []string
}

func newResult(w *workload, opt runOpts) *result {
	return &result{Workload: w.Name, Smoke: opt.Smoke, Values: map[string]float64{}, Samples: map[string]summary{}}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

// timing sets a metric and keeps the summary of the samples behind it.
func (r *result) timing(name string, samples []float64, v float64) {
	r.Values[name] = v
	r.Samples[name] = summarize(samples)
}

// latency reports the operation times of a measured window: the median,
// and the highest percentile the sample count supports.
func (r *result) latency(ms []float64) {
	sorted := sortedCopy(ms)
	q := tailQuantile(len(sorted))
	r.timing("op_p50_ms", ms, percentile(sorted, 0.5))
	r.timing("op_tail_ms", ms, percentile(sorted, q))
	r.note("op_tail_ms is p%.0f: %d samples, %d beyond", q*100, len(sorted), beyond(len(sorted), q))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, Detail: detail, OK: ok})
}

// correct reports whether every operation succeeded and every check passed.
func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

// settle collects garbage before a measured window, so a window does not pay
// for what set-up or the previous window left behind.
func settle() { runtime.GC() }

// heapMB forces a collection and reads the live heap twice: as the process
// holds it, and again after dropping the tensor pool's retained scratch. The
// pool keeps power-of-two buffers sized by the largest micro-batch, so the
// first reading jumps between size classes with the input (105 or 127 MB on
// train_compute); the second is what the process holds that is not scratch.
func heapMB() (held, drained float64) {
	read := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / 1e6
	}
	held = read()
	tensor.DrainPool()
	return held, read()
}

// run executes one pass of one workload.
func (w *workload) run(opt runOpts, traced bool) (*result, error) {
	// The pool is process-wide: start every pass as a fresh process would.
	tensor.DrainPool()
	var res *result
	var err error
	switch {
	case w.Train != nil && traced:
		res, err = runTrainTraced(w, opt)
	case w.Train != nil:
		res, err = runTrain(w, opt)
	case traced:
		res, err = runServeTraced(w, opt)
	default:
		res, err = runServe(w, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.Traced = traced
	return res, nil
}

// defs are the metrics a pass reports.
func defs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// print writes a pass the way a person reads it: every metric by name with
// its unit, the samples behind the timed ones, the notes and the checks.
func (r *result) print(w io.Writer) {
	pass := "end to end"
	if r.Traced {
		pass = "per layer, traced"
	}
	fmt.Fprintf(w, "\n== %s (%s): %d attempted, %d failed\n", r.Workload, pass, r.Attempted, r.Failed)
	for _, d := range defs(r.Traced) {
		fmt.Fprintf(w, "  %-32s %16.6g %-8s", d.Name, r.Values[d.Name], d.Unit)
		if s, ok := r.Samples[d.Name]; ok {
			fmt.Fprintf(w, " n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g", s.N, s.Min, s.Q1, s.Med, s.Q3, s.Max)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s", verdict, c.Name)
		if c.Detail != "" {
			fmt.Fprintf(w, " (%s)", c.Detail)
		}
		fmt.Fprintln(w)
	}
}

// jsonLine is the driver's contract: the last line of standard output.
func (r *result) jsonLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range defs(r.Traced) {
		out.Metrics[d.Name] = value{Value: r.Values[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or an infinity can fail here; report it as a wrong run.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, r.Attempted, max(r.Failed, 1))
	}
	return string(b)
}

// bettyEnv lists the BETTY_* variables that are set. The benchmark measures
// the default configuration only, so any of them is a refusal.
func bettyEnv(environ []string) []string {
	var set []string
	for _, kv := range environ {
		if strings.HasPrefix(kv, "BETTY_") {
			set = append(set, kv)
		}
	}
	return set
}

func hostFacts(w io.Writer) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s, no BETTY_* variable set\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Uint64("seed", defaultSeed, "seed of everything the benchmark generates: request node draws, client interleaving, training seed order")
	seconds := fs.Float64("seconds", runSeconds, "measured window the operation counts are scaled to")
	trace := fs.Int("trace", -1, "1: traced per-layer pass only, 0: untraced end-to-end pass only (default: both, and needs -workload to end in a JSON line)")
	sets := fs.Int("sets", 0, "A/A self-test: run the untraced benchmark this many times and compare set against set")
	smoke := fs.Bool("smoke", false, "toy datasets and counts: checks the harness, measures nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if set := bettyEnv(os.Environ()); len(set) > 0 {
		fmt.Fprintf(stderr, "benchmark: refusing to run: it measures the default configuration, but %s is set\n", strings.Join(set, ", "))
		return 2
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 || *sets < 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1, -sets non-negative, and no arguments may follow the flags")
		return 2
	}
	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		run = []workload{*w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	opt := runOpts{Seed: *seed, Seconds: *seconds, Smoke: *smoke, Setups: setups, OutDir: outDir, Tmp: tmp}
	if *smoke {
		opt.Setups = 1
	}
	hostFacts(stdout)
	fmt.Fprintf(stdout, "seed %d, counts scaled to %g s, %d set-ups per untraced pass\n", opt.Seed, opt.Seconds, opt.Setups)

	if *sets > 0 {
		return selfTest(run, opt, *sets, stdout, stderr)
	}
	ok := true
	var last *result
	for _, traced := range []bool{false, true} {
		if (*trace == 0 && traced) || (*trace == 1 && !traced) {
			continue
		}
		// All untraced passes come first: nothing traced runs beside them.
		for i := range run {
			res, err := run[i].run(opt, traced)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			res.print(stdout)
			ok = ok && res.correct()
			last = res
		}
	}
	if *name != "" && *trace >= 0 {
		fmt.Fprintln(stdout, last.jsonLine())
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: an operation failed or an output check did not pass")
		return 1
	}
	return 0
}
