package serve

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"betty/internal/checkpoint"
	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/embcache"
	"betty/internal/obs"
)

// The serving-side embedding-cache suite (DESIGN.md §16): cross-batch
// exact verification, checkpoint-swap invalidation end to end, the hit
// rate under skewed repeat traffic, the shared-ledger budget invariant,
// and the graceful-drain pin for the Start/Close race fix.

// Cross-batch exact mode is only sound because serving samples node-wise:
// a node's layer-1 row is a pure function of (seed, node, weights), never
// of its batch, so a later batch recomputing a cached node must reproduce
// it bitwise. Three overlapping requests on one server exercise exactly
// that verify path — and each response must still be bitwise what the
// request would have gotten alone.
func TestExactModeCrossBatchOverlap(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	reg := obs.New(obs.NewFakeClock(0, 1))
	cfg := testConfig(obs.NewFakeClock(0, 1), reg)
	cfg.EmbMode = embcache.ModeExact
	s := newTestServer(t, d, model, cfg)
	s.Start()
	defer s.Close()

	soloCfg := cfg
	soloCfg.Obs = obs.New(obs.NewFakeClock(0, 1))
	for _, nodes := range [][]int32{
		{3, 8, 120, 700},
		{8, 3, 200, 305}, // overlaps batch 0: its rows get re-verified
		{700, 305, 9, 42},
	} {
		got, err := s.Predict(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(got, soloScores(t, d, model, soloCfg, nodes)) {
			t.Fatalf("coalesced response for %v diverged from solo", nodes)
		}
	}
	if v := reg.CounterValue("embcache.verify_failures"); v != 0 {
		t.Fatalf("cross-batch exact verify failed %d times", v)
	}
	if v, ok := reg.GaugeValue("embcache.resident_rows"); !ok || v == 0 {
		t.Fatal("exact mode never populated the cache")
	}
}

// The invalidation-on-checkpoint-swap end-to-end: train → save A → train →
// save B, serve A in reuse mode, warm the cache, swap to B through
// LoadFileAndInvalidate, and the very next predictions must be bitwise a
// fresh B server's — no stale layer-1 row survives. The negative control
// (same swap without Invalidate) proves the invalidation is load-bearing.
func TestCheckpointSwapInvalidation(t *testing.T) {
	d := testData(t)
	tr, err := core.BuildSAGE(d, core.Options{
		Seed: 50, Hidden: 16, Fanouts: []int{4, 6}, FixedK: 2, LR: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	train := func(epochs int) {
		for i := 0; i < epochs; i++ {
			if _, err := tr.Engine.TrainEpochMicro(); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	ckptA := filepath.Join(dir, "a.ckpt")
	ckptB := filepath.Join(dir, "b.ckpt")
	train(2)
	if err := checkpoint.SaveFile(ckptA, tr.Model, nil); err != nil {
		t.Fatal(err)
	}
	train(2)
	if err := checkpoint.SaveFile(ckptB, tr.Model, nil); err != nil {
		t.Fatal(err)
	}

	loaded := func(path string) *core.Setup {
		su, err := core.BuildSAGE(d, core.Options{Seed: 1, Hidden: 16, Fanouts: []int{4, 6}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkpoint.LoadFile(path, su.Model); err != nil {
			t.Fatal(err)
		}
		return su
	}
	nodes := []int32{3, 8, 120, 700, 41, 5}
	offCfg := testConfig(obs.NewFakeClock(0, 1), obs.New(nil))
	offCfg.EmbMode = embcache.ModeOff
	groundA := soloScores(t, d, loaded(ckptA).Model, offCfg, nodes)
	groundB := soloScores(t, d, loaded(ckptB).Model, offCfg, nodes)
	if bitwiseEqual(groundA, groundB) {
		t.Fatal("checkpoints A and B score identically — training never moved the weights")
	}

	su := loaded(ckptA)
	reg := obs.New(obs.NewFakeClock(0, 1))
	cfg := testConfig(obs.NewFakeClock(0, 1), reg)
	cfg.EmbMode = embcache.ModeReuse
	s := newTestServer(t, d, su.Model, cfg)
	s.Start()
	defer s.Close()
	for pass := 0; pass < 2; pass++ { // second pass serves warm layer-1 hits
		got, err := s.Predict(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(got, groundA) {
			t.Fatalf("pass %d under checkpoint A diverged from ground truth", pass)
		}
	}
	if st := s.StatsSnapshot(); st.EmbHits == 0 {
		t.Fatal("warm pass produced no reuse hits")
	}

	// The swap: weights replaced, then the server (a checkpoint.Invalidator)
	// marks every cached row stale before any request can read it.
	if _, err := checkpoint.LoadFileAndInvalidate(ckptB, su.Model, s); err != nil {
		t.Fatal(err)
	}
	got, err := s.Predict(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(got, groundB) {
		t.Fatal("post-swap predictions reused stale embeddings")
	}
	if reg.CounterValue("embcache.invalidations") != 1 {
		t.Fatal("checkpoint swap did not invalidate the cache")
	}
	if reg.CounterValue("embcache.stale_drops") == 0 {
		t.Fatal("invalidated rows were never dropped at lookup")
	}

	// Negative control: the same warm-then-swap without Invalidate keeps
	// serving the stale rows, so its output must NOT match fresh B.
	su2 := loaded(ckptA)
	cfg2 := testConfig(obs.NewFakeClock(0, 1), obs.New(obs.NewFakeClock(0, 1)))
	cfg2.EmbMode = embcache.ModeReuse
	s2 := newTestServer(t, d, su2.Model, cfg2)
	s2.Start()
	defer s2.Close()
	if _, err := s2.Predict(nodes, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.LoadFile(ckptB, su2.Model); err != nil {
		t.Fatal(err)
	}
	got2, err := s2.Predict(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bitwiseEqual(got2, groundB) {
		t.Fatal("control is vacuous: stale reuse matched fresh weights without invalidation")
	}
}

// Skewed repeat traffic is the workload the reuse mode exists for: with a
// power-law node distribution and a repeated trace, at least 30% of
// layer-1 destinations must be served from the cache (the ISSUE's
// acceptance floor), and the frontier meter must see the same locality.
func TestEmbcacheSkewedHitRate(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	reg := obs.New(nil)
	cfg := testConfig(nil, reg) // real clock: runLoad measures wall time
	cfg.EmbMode = embcache.ModeReuse
	cfg.QueueDepth = 256
	s := newTestServer(t, d, model, cfg)
	s.Start()
	defer s.Close()

	lc := loadConfig{Requests: 150, NodesPerRequest: 8, Seed: 7, Skew: 3}
	for pass := 0; pass < 2; pass++ {
		rep, err := runLoad(s, lc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("pass %d: %d load errors", pass, rep.Errors)
		}
	}
	st := s.StatsSnapshot()
	total := st.EmbHits + st.EmbMisses
	if total == 0 {
		t.Fatal("load run performed no layer-1 cache lookups")
	}
	if rate := float64(st.EmbHits) / float64(total); rate < 0.30 {
		t.Fatalf("reuse hit rate %.2f under skewed repeat load, want >= 0.30", rate)
	}
	if reg.CounterValue("sample.frontier.reuse_nodes") == 0 {
		t.Fatal("frontier meter saw no cross-batch overlap on a skewed trace")
	}
}

// The budget invariant under pressure: a graph whose frontier wants more
// rows than the 1 MiB embedding budget holds must evict — never exceed —
// and the shared cache ledger's peak stays at or under its capacity. With
// SERVE_E2E_LEDGER set, the run's full metric ledger is written as NDJSON
// (the CI audit artifact).
func TestEmbcacheLedgerE2E(t *testing.T) {
	d, err := dataset.Generate(dataset.GenConfig{
		Name: "t4k", Nodes: 4096, AvgDegree: 10, FeatureDim: 24,
		NumClasses: 5, Homophily: 0.8, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	su, err := core.BuildSAGE(d, core.Options{Seed: 50, Hidden: 16, Fanouts: []int{4, 6}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New(nil)
	cfg := testConfig(nil, reg)
	cfg.EmbMode = embcache.ModeReuse
	cfg.embBudgetBytes = device.MiB
	cfg.QueueDepth = 512
	s := newTestServer(t, d, su.Model, cfg)
	s.Start()

	rep, err := runLoad(s, loadConfig{Requests: 400, NodesPerRequest: 8, Seed: 11, Skew: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d load errors", rep.Errors)
	}

	// Mid-life invariants, read while the cache is still resident.
	budget, ok := reg.GaugeValue("embcache.budget_bytes")
	if !ok || budget <= 0 {
		t.Fatal("embedding budget gauge missing")
	}
	if res, ok := reg.GaugeValue("embcache.resident_bytes"); !ok || res > budget {
		t.Fatalf("resident %d bytes exceeds the %d-byte budget", res, budget)
	}
	if reg.CounterValue("embcache.evictions") == 0 {
		t.Fatal("a frontier larger than the budget never evicted")
	}
	if st := s.StatsSnapshot(); st.EmbHits == 0 {
		t.Fatal("skewed load produced no reuse hits")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	capacity, ok := reg.GaugeValue("serve.cache_ledger_capacity_bytes")
	if !ok || capacity <= 0 {
		t.Fatal("cache ledger capacity gauge missing")
	}
	if peak, ok := reg.GaugeValue("serve.cache_ledger_peak_bytes"); !ok || peak > capacity {
		t.Fatalf("cache ledger peak %d exceeds capacity %d", peak, capacity)
	}
	if used, ok := reg.GaugeValue("serve.cache_ledger_bytes"); !ok || used != 0 {
		t.Fatalf("flush left %d bytes charged to the ledger", used)
	}

	if path := os.Getenv("SERVE_E2E_LEDGER"); path != "" {
		if err := reg.WriteFile(path); err != nil {
			t.Fatalf("writing ledger artifact: %v", err)
		}
	}
}

// The graceful-drain pin for the flush-on-shutdown race fix: Close racing
// in-flight Predicts must give every request exactly one terminal outcome
// (scores, or ErrClosed at admission), concurrent and repeated Close calls
// all succeed after the drain, and Start after Close stays a no-op. A
// dropped request hangs its Predict and fails the test by timeout.
func TestGracefulDrainUnderLoad(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	for round := 0; round < 3; round++ {
		reg := obs.New(nil)
		cfg := testConfig(nil, reg) // real clock
		cfg.QueueDepth = 256
		s := newTestServer(t, d, model, cfg)
		s.Start()

		const callers = 24
		var wg sync.WaitGroup
		outcomes := make([]error, callers)
		scores := make([][][]float32, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sc, err := s.Predict([]int32{int32(i), int32(i + 100), 7}, 0)
				scores[i], outcomes[i] = sc, err
			}(i)
		}
		// Widen the race window differently each round: round 0 closes
		// immediately, later rounds close mid-drain.
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		closeErrs := make(chan error, 2)
		go func() { closeErrs <- s.Close() }()
		go func() { closeErrs <- s.Close() }()
		wg.Wait()
		for i := 0; i < 2; i++ {
			if err := <-closeErrs; err != nil {
				t.Fatalf("round %d: Close: %v", round, err)
			}
		}
		for i, err := range outcomes {
			switch {
			case err == nil:
				if len(scores[i]) != 3 {
					t.Fatalf("round %d request %d: %d score rows for 3 nodes", round, i, len(scores[i]))
				}
			case errors.Is(err, ErrClosed):
			default:
				t.Fatalf("round %d request %d: unexpected terminal error %v", round, i, err)
			}
		}
		// Once drained, the server stays closed: Start is a no-op and new
		// admissions are rejected, not silently dropped.
		s.Start()
		if _, err := s.Predict([]int32{1}, 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: Predict after Close returned %v, want ErrClosed", round, err)
		}
	}
}
