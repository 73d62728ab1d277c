package core

import (
	"testing"

	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/obs"
)

// obsSetup builds a capacity-constrained engine with a fake-clock registry
// attached, so epochs are fully instrumented and deterministic.
func obsSetup(t *testing.T, trace bool) (*Setup, *obs.Registry) {
	t.Helper()
	d := testData(t)
	dev := device.New(device.GiB, device.DefaultCostModel())
	s, err := BuildSAGE(d, Options{Seed: 60, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 2, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	r := obs.New(obs.NewFakeClock(0, 1000))
	r.SetTracing(trace)
	s.Engine.SetObs(r)
	return s, r
}

// One instrumented epoch must produce a span for every pipeline phase of
// every micro-batch, and the metric side must agree with the epoch stats.
func TestInstrumentedEpochEmitsEveryPhase(t *testing.T) {
	s, r := obsSetup(t, true)
	st, err := s.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatal(err)
	}

	perPhase := make(map[string]int)
	for _, sp := range r.Spans() {
		perPhase[sp.Phase]++
	}
	// Phases once per epoch: sample, partition, estimate (the reg_build
	// span nests inside the partitioner call), step. Phases per micro-batch:
	// h2d, forward, backward.
	for _, ph := range []string{obs.PhaseSample, obs.PhaseRegBuild, obs.PhasePartition, obs.PhaseEstimate} {
		if perPhase[ph] < 1 {
			t.Errorf("no %q span recorded (got %v)", ph, perPhase)
		}
	}
	for _, ph := range []string{obs.PhaseH2D, obs.PhaseForward, obs.PhaseBackward} {
		if perPhase[ph] != st.K {
			t.Errorf("%q spans = %d, want one per micro-batch (K=%d)", ph, perPhase[ph], st.K)
		}
	}
	if perPhase[obs.PhaseStep] != 1 {
		t.Errorf("step spans = %d, want 1", perPhase[obs.PhaseStep])
	}

	if got := r.CounterValue("train.micro_batches"); got != int64(st.K) {
		t.Errorf("train.micro_batches = %d, want %d", got, st.K)
	}
	if got := r.CounterValue("train.steps"); got != 1 {
		t.Errorf("train.steps = %d", got)
	}
	checkEpochGauges(t, r, st)
	// Estimated and measured peaks were recorded per micro-batch.
	for _, name := range []string{"micro.est_peak_bytes", "micro.peak_bytes"} {
		if h := r.HistogramWith(name, nil); h.Count() != int64(st.K) {
			t.Errorf("%s observations = %d, want %d", name, h.Count(), st.K)
		}
	}
	if got := r.CounterValue("plan.attempts"); got < 1 {
		t.Errorf("plan.attempts = %d", got)
	}
	if k, ok := r.GaugeValue("plan.k"); !ok || k != int64(st.K) {
		t.Errorf("plan.k = %d,%v, want %d", k, ok, st.K)
	}
}

// checkEpochGauges asserts the epoch gauges of one finished epoch agree
// with its stats.
func checkEpochGauges(t *testing.T, r *obs.Registry, st EpochStats) {
	t.Helper()
	if got := r.CounterValue("epoch.count"); got != 1 {
		t.Errorf("epoch.count = %d", got)
	}
	if k, ok := r.GaugeValue("epoch.k"); !ok || k != int64(st.K) {
		t.Errorf("epoch.k = %d,%v, want %d", k, ok, st.K)
	}
	if pk, ok := r.GaugeValue("epoch.peak_bytes"); !ok || pk != st.PeakBytes {
		t.Errorf("epoch.peak_bytes = %d,%v, want %d", pk, ok, st.PeakBytes)
	}
	if est, ok := r.GaugeValue("epoch.est_peak_bytes"); !ok || est != st.MaxEstimate {
		t.Errorf("epoch.est_peak_bytes = %d,%v, want %d", est, ok, st.MaxEstimate)
	}
}

// A split-parallel epoch publishes the same epoch gauges, so /metricsz
// names the K a multi-device run planned and the peak it reached.
func TestMultiDeviceEpochGauges(t *testing.T) {
	s, r := obsSetup(t, false)
	md := &MultiDevice{Engine: s.Engine, Devices: []*device.Device{
		device.New(device.GiB, device.DefaultCostModel()),
		device.New(device.GiB, device.DefaultCostModel()),
	}}
	st, err := md.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	checkEpochGauges(t, r, st.EpochStats)
}

// The fake clock makes span timings a pure function of the call sequence:
// two identically-built instrumented epochs export identical bytes.
func TestInstrumentedEpochDeterministic(t *testing.T) {
	run := func() []string {
		s, r := obsSetup(t, true)
		if _, err := s.Engine.TrainEpochMicro(); err != nil {
			t.Fatal(err)
		}
		return r.Records()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// Detaching the registry must stop all recording (the SetObs(nil) path the
// CLIs rely on when -metrics is absent).
func TestSetObsNilDisables(t *testing.T) {
	s, r := obsSetup(t, true)
	s.Engine.SetObs(nil)
	if _, err := s.Engine.TrainEpochMicro(); err != nil {
		t.Fatal(err)
	}
	if len(r.Spans()) != 0 {
		t.Fatalf("detached registry recorded %d spans", len(r.Spans()))
	}
	if got := r.CounterValue("train.steps"); got != 0 {
		t.Fatalf("detached registry counted %d steps", got)
	}
}

// Planning costs one REG build per batch and only the attempts that can
// fit: on the benchmark's train_planned batch (ogbn-arxiv at scale 0.25,
// fanouts [10,25], hidden 64) and a 10 MiB device the search starts at its
// lower bound, reaches K = 4 in at most three attempts, and every attempt
// shares one reg_build span — three builds and four attempts before the
// prepare/partition split. (The benchmark's own 18.75 MiB device fits the
// batch whole, K = 1, since the SAGE layer stopped copying its self rows
// and their concatenation with the aggregate.)
func TestPlannedEpochBuildsOneREG(t *testing.T) {
	ds, err := dataset.LoadScaled("ogbn-arxiv", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(10*device.MiB, device.DefaultCostModel())
	s, err := BuildSAGE(ds, Options{Seed: 1, Fanouts: []int{10, 25}, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	r := obs.New(obs.NewFakeClock(0, 1000))
	r.SetTracing(true)
	s.Engine.SetObs(r)
	st, err := s.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 4 {
		t.Fatalf("planner chose K=%d, want 4", st.K)
	}
	bound, ok := r.GaugeValue("plan.lower_bound_k")
	if !ok || bound < 2 || bound > 4 {
		t.Fatalf("plan.lower_bound_k = %d,%v, want within [2,4]", bound, ok)
	}
	attempts := r.CounterValue("plan.attempts")
	if attempts > 3 || attempts != int64(st.K)-bound+1 || attempts != int64(st.PlanAttempts) {
		t.Fatalf("plan.attempts = %d (stats %d), want K-bound+1 = %d and at most 3", attempts, st.PlanAttempts, int64(st.K)-bound+1)
	}
	if got := r.CounterValue("plan.reg_builds"); got != 1 {
		t.Fatalf("plan.reg_builds = %d, want 1", got)
	}
	builds, ks := 0, map[string][]int64{}
	for _, sp := range r.Spans() {
		switch sp.Phase {
		case obs.PhaseRegBuild:
			builds++
		case obs.PhasePartition, obs.PhaseEstimate:
			k := int64(-1)
			for _, f := range sp.Fields {
				if f.Key == "k" {
					k = f.Val
				}
			}
			if k < 0 {
				t.Fatalf("%s span without k: %+v", sp.Phase, sp)
			}
			ks[sp.Phase] = append(ks[sp.Phase], k)
		}
	}
	t.Logf("K=%d lower bound=%d attempts=%d reg_build spans=%d", st.K, bound, attempts, builds)
	if builds != 1 {
		t.Fatalf("%d reg_build spans in one planned epoch, want 1", builds)
	}
	for _, ph := range []string{obs.PhasePartition, obs.PhaseEstimate} {
		if int64(len(ks[ph])) != attempts || ks[ph][0] != bound || ks[ph][len(ks[ph])-1] != int64(st.K) {
			t.Fatalf("%s spans carry k=%v, want %d..%d", ph, ks[ph], bound, st.K)
		}
	}
}
