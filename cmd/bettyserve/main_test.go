package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"betty/internal/checkpoint"
	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/serve"
)

// parseArgs parses a bettyserve command line without exiting on error.
func parseArgs(args ...string) (serveConfig, error) {
	var cfg serveConfig
	fs := flags(&cfg)
	fs.Init("bettyserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	return cfg, err
}

// baseArgs is the e2e server shape shared by the tests: a small cora model
// on a random port, no warm-up training (weights are deterministic in the
// seed, so an in-process Build with the same settings is bitwise the served
// model).
var baseArgs = []string{"-addr", "127.0.0.1:0", "-dataset", "cora", "-scale", "0.5", "-hidden", "16",
	"-fanouts", "4,6", "-epochs", "0", "-seed", "5"}

func baseConfig() serveConfig {
	cfg, err := parseArgs(baseArgs...)
	if err != nil {
		panic(err)
	}
	return cfg
}

// startServer runs cfg in a goroutine and returns its base URL and a stop
// function that shuts it down and propagates any run error.
func startServer(t *testing.T, cfg serveConfig) (string, func()) {
	t.Helper()
	ready := make(chan string, 1)
	shutdown := make(chan struct{})
	errc := make(chan error, 1)
	cfg.ready = ready
	cfg.shutdown = shutdown
	cfg.out = testWriter{t}
	go func() { errc <- run(cfg) }()
	select {
	case addr := <-ready:
		return "http://" + addr, func() {
			close(shutdown)
			if err := <-errc; err != nil {
				t.Errorf("server exited with error: %v", err)
			}
		}
	case err := <-errc:
		t.Fatalf("server failed to start: %v", err)
		return "", nil
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// postPredict sends one predict call, returning the status code and the
// decoded success body (zero on failure statuses).
func postPredict(t *testing.T, base, body string) (int, serve.PredictResponse) {
	t.Helper()
	resp, err := http.Post(base+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// metrics fetches /metricsz and returns every counter and gauge by name.
func metrics(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line struct {
			Type  string `json:"type"`
			Name  string `json:"name"`
			Value int64  `json:"value"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("metricsz line: %v", err)
		}
		if line.Type == "counter" || line.Type == "gauge" {
			out[line.Name] = line.Value
		}
	}
	return out
}

// waitMetric polls until the named metric satisfies ok, or fails after 10s.
func waitMetric(t *testing.T, base, name string, ok func(int64) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ok(metrics(t, base)[name]) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached the expected state", name)
}

// soloReference serves each trace alone on an in-process server built with
// the same dataset, weights, and serving seed as the e2e server.
func soloReference(t *testing.T, cfg serveConfig, model any, traces [][]int32) [][][]float32 {
	t.Helper()
	ds, err := dataset.LoadScaled(cfg.dataset, cfg.scale)
	if err != nil {
		t.Fatal(err)
	}
	fanouts, err := core.ParseFanouts(cfg.fanouts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][]float32, len(traces))
	for i, nodes := range traces {
		scfg := serve.Defaults()
		scfg.Fanouts = fanouts
		scfg.Seed = cfg.seed
		s, err := serve.New(ds, model, scfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		scores, err := s.Predict(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		out[i] = scores
	}
	return out
}

// buildReferenceModel constructs the exact model run(cfg) serves (same
// dataset, knobs, and seed — weight init is deterministic).
func buildReferenceModel(t *testing.T, cfg serveConfig) any {
	t.Helper()
	ds, err := dataset.LoadScaled(cfg.dataset, cfg.scale)
	if err != nil {
		t.Fatal(err)
	}
	fanouts, err := core.ParseFanouts(cfg.fanouts)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := buildModel(ds, cfg, fanouts)
	if err != nil {
		t.Fatal(err)
	}
	return setup.Model
}

func bitwiseEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func nodesJSON(nodes []int32) string {
	parts := make([]string, len(nodes))
	for i, v := range nodes {
		parts[i] = fmt.Sprint(v)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// The headline e2e: concurrent clients against a random port must
// coalesce into fewer batches, every response must be bitwise the
// single-request answer, and the planner's estimated peak must respect
// the configured budget.
func TestE2ECoalescingAndExactness(t *testing.T) {
	cfg := baseConfig()
	const capacityMiB = 64
	cfg.capacityMiB = capacityMiB
	base, stop := startServer(t, cfg)
	defer stop()

	traces := [][]int32{
		{3, 8, 120}, {8, 700, 3}, {41, 5}, {700, 701, 702},
		{1, 2, 3, 4}, {120, 5, 9},
	}
	model := buildReferenceModel(t, cfg)
	want := soloReference(t, cfg, model, traces)
	// Six closed-loop clients keep the one worker busy, so requests queue
	// behind the executing batch and the next batch takes them together:
	// coalescing comes from load, not from a hold timer. How soon two
	// requests overlap is the scheduler's business (on one CPU the worker
	// often finishes a batch before the next client runs), so rounds
	// repeat until they do; only never coalescing fails, at the 10s cap.
	var m map[string]int64
	for deadline := time.Now().Add(10 * time.Second); ; {
		var wg sync.WaitGroup
		for i, nodes := range traces {
			wg.Add(1)
			go func(i int, nodes []int32) {
				defer wg.Done()
				for r := 0; r < 10; r++ {
					code, resp := postPredict(t, base, `{"nodes":`+nodesJSON(nodes)+`}`)
					if code != http.StatusOK {
						t.Errorf("client %d: status %d", i, code)
						return
					}
					if !bitwiseEqual(resp.Scores, want[i]) {
						t.Errorf("client %d: coalesced HTTP response differs from solo inference", i)
						return
					}
				}
			}(i, nodes)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		m = metrics(t, base)
		if m["serve.batches"] < m["serve.requests"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no coalescing: %d batches for %d requests", m["serve.batches"], m["serve.requests"])
		}
	}
	if m["serve.batched_requests"] != m["serve.requests"] {
		t.Fatalf("admitted %d requests, batched %d", m["serve.requests"], m["serve.batched_requests"])
	}
	if peak := m["serve.max_est_peak_bytes"]; peak <= 0 || peak > capacityMiB<<20 {
		t.Fatalf("planned peak %d outside the %d MiB budget", peak, capacityMiB)
	}
}

// Backpressure e2e: with a one-deep queue and a slow in-flight batch, the
// overflow request gets 429 and the queued-but-expired request gets 504.
func TestE2EBackpressureAndDeadline(t *testing.T) {
	cfg := baseConfig()
	cfg.dataset = "ogbn-arxiv"
	cfg.scale = 0.2
	cfg.hidden = 64
	cfg.fanouts = "-1,-1" // full neighborhoods: the big request is genuinely slow
	cfg.maxBatch, cfg.queueDepth, cfg.maxRequestNodes = 1, 1, 1000000
	cfg.capacityMiB, cfg.timeout = 8192, 0
	base, stop := startServer(t, cfg)
	defer stop()

	ds, err := dataset.LoadScaled(cfg.dataset, cfg.scale)
	if err != nil {
		t.Fatal(err)
	}
	heavy := make([]int32, ds.Graph.NumNodes())
	for i := range heavy {
		heavy[i] = int32(i)
	}

	heavyBody := `{"nodes":` + nodesJSON(heavy) + `}`

	type result struct {
		code int
	}
	slow := make(chan result, 1)
	go func() {
		code, _ := postPredict(t, base, heavyBody)
		slow <- result{code}
	}()
	// Wait until the heavy request is being executed (dequeued, in
	// flight) so the queue is empty for the next arrival.
	waitMetric(t, base, "serve.inflight_requests", func(v int64) bool { return v == 1 })

	queued := make(chan result, 1)
	go func() {
		code, _ := postPredict(t, base, `{"nodes":[1],"timeout_ms":1}`)
		queued <- result{code}
	}()
	// Wait until it occupies the queue's only slot. Its 1ms deadline
	// expires while the heavy batch runs, so the next batch boundary
	// must reject it with 504 — that assertion is unconditional below.
	waitMetric(t, base, "serve.queue_depth", func(v int64) bool { return v == 1 })

	// The 429 path: a single probe races with the heavy batch finishing,
	// so saturate instead — two feeders keep heavy requests arriving
	// while probes retry. While saturated, either the queue is full
	// (probe → 429) or the probe takes the only slot and the next probe
	// bounces, so a 429 must surface; only its absence would hang the
	// loop, and the 10s cap turns that into a failure.
	stopFeed := make(chan struct{})
	var feeders sync.WaitGroup
	for i := 0; i < 2; i++ {
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			for {
				select {
				case <-stopFeed:
					return
				default:
				}
				resp, err := http.Post(base+"/v1/predict", "application/json", strings.NewReader(heavyBody))
				if err != nil {
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	got429 := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Post(base+"/v1/predict", "application/json", strings.NewReader(`{"nodes":[2]}`))
		if err != nil {
			t.Fatal(err)
		}
		var fail struct {
			Error string `json:"error"`
		}
		code := resp.StatusCode
		if code == http.StatusTooManyRequests {
			if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if code == http.StatusTooManyRequests {
			if !strings.Contains(fail.Error, "queue") {
				t.Fatalf("429 body %q does not name the queue", fail.Error)
			}
			got429 = true
			break
		}
	}
	close(stopFeed)
	feeders.Wait()
	if !got429 {
		t.Fatal("never observed a 429 while saturated")
	}

	if r := <-queued; r.code != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status %d, want 504", r.code)
	}
	if r := <-slow; r.code != http.StatusOK {
		t.Fatalf("heavy request: status %d, want 200", r.code)
	}
	m := metrics(t, base)
	if m["serve.rejected_queue_full"] < 1 || m["serve.deadline_exceeded"] != 1 {
		t.Fatalf("rejection counters: %+v", m)
	}
}

// Checkpoint round trip: a model trained one epoch, checkpointed, and
// loaded by the server must answer bitwise identically to the in-process
// trained model.
func TestE2ECheckpointRoundTrip(t *testing.T) {
	cfg := baseConfig()
	cfg.seed = 9

	ds, err := dataset.LoadScaled(cfg.dataset, cfg.scale)
	if err != nil {
		t.Fatal(err)
	}
	fanouts, err := core.ParseFanouts(cfg.fanouts)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := buildModel(ds, cfg, fanouts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Engine.TrainEpochMicro(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	if err := checkpoint.SaveFile(ckpt, setup.Model, map[string]string{"epochs": "1"}); err != nil {
		t.Fatal(err)
	}

	cfg.ckpt = ckpt
	base, stop := startServer(t, cfg)
	defer stop()

	traces := [][]int32{{3, 8, 120}, {700, 41, 5}}
	want := soloReference(t, cfg, setup.Model, traces)
	for i, nodes := range traces {
		code, resp := postPredict(t, base, `{"nodes":`+nodesJSON(nodes)+`}`)
		if code != http.StatusOK {
			t.Fatalf("predict status %d", code)
		}
		if !bitwiseEqual(resp.Scores, want[i]) {
			t.Fatalf("request %d: checkpoint-loaded server differs from in-process model", i)
		}
	}
}

// Every serving-policy flag reaches the serve.Config the server runs
// under, and with none given the config is serve.Defaults().
func TestFlagsReachServeConfig(t *testing.T) {
	fanouts := []int{4, 6}
	cfg, err := parseArgs("-seed", "5", "-max-batch", "32", "-queue-depth", "7", "-timeout", "250ms",
		"-max-request-nodes", "9", "-capacity", "64")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cfg.policy(fanouts)
	if err != nil {
		t.Fatal(err)
	}
	want := serve.Defaults()
	want.Fanouts, want.Seed = fanouts, 5
	want.MaxBatch, want.QueueDepth, want.DefaultTimeout = 32, 7, 250*time.Millisecond
	want.MaxRequestNodes, want.CapacityBytes = 9, 64<<20
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags gave %+v, want %+v", got, want)
	}

	cfg, err = parseArgs()
	if err != nil {
		t.Fatal(err)
	}
	if got, err = cfg.policy(fanouts); err != nil {
		t.Fatal(err)
	}
	want = serve.Defaults()
	want.Fanouts, want.Seed = fanouts, 1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("no flags gave %+v, want serve.Defaults() %+v", got, want)
	}
}

// A malformed or out-of-range flag aborts startup before any dataset is
// loaded, with an error naming the flag (flag parsing, knobs.MiBBytes) or
// the serve.Config field it sets (Validate). The deleted -embcache flag is
// refused by name, whatever its value.
func TestBadFlagsFailLoudly(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-max-batch", "zero", "-max-batch"},
		{"-max-batch", "0", "MaxBatch"},
		{"-max-batch", "-3", "MaxBatch"},
		{"-queue-depth", "0", "QueueDepth"},
		{"-timeout", "soon", "-timeout"},
		{"-timeout", "-1s", "DefaultTimeout"},
		{"-timeout", "18446744073710ms", "-timeout"}, // overflows a Duration
		{"-max-request-nodes", "0", "MaxRequestNodes"},
		{"-capacity", "0", "-capacity"},
		{"-capacity", "-5", "-capacity"},
		{"-capacity", "17592186044417", "-capacity"}, // 2^44+1 MiB: << 20 would wrap to 1 MiB
		{"-embcache", "reuse", "-embcache"},
		{"-store-budget", "0", "-store-budget"},
		{"-store-budget", "17592186044417", "-store-budget"},
		{"-epochs", "-1", "-epochs"},
		{"-lr", "0", "-lr"},
		{"-lr", "-1", "-lr"},
		{"-lr", "NaN", "-lr"},
		{"-lr", "+Inf", "-lr"},
	} {
		// -epochs 1: a check that ran after the warm-up would log it.
		cfg, err := parseArgs(append(baseArgs, "-epochs", "1", c.flag, c.value)...)
		var out bytes.Buffer
		if err == nil {
			// A run the flags fail to stop shuts down as soon as it serves.
			stop := make(chan struct{})
			close(stop)
			cfg.out, cfg.shutdown = &out, stop
			err = run(cfg)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %s: got %v, want an error naming %s", c.flag, c.value, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s %s: refused run logged %q", c.flag, c.value, out.String())
		}
	}
}

// Every setting is a flag: any set BETTY_* variable — a retired knob
// (BETTY_WORKERS; int8 serving and the feature cache are gone) or a
// misspelt one — must not start as if the operator had set nothing.
func TestEnvFailsLoudlyAtStartup(t *testing.T) {
	for name, val := range map[string]string{
		"BETTY_QUANT":             "int8",
		"BETTY_SERVE_CACHE_NODES": "4096",
		"BETTY_WORKER":            "2",
		"BETTY_WORKERS":           "4",
	} {
		t.Run(name, func(t *testing.T) {
			t.Setenv(name, val)
			if err := run(baseConfig()); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("%s set: run returned %v, want an error naming it", name, err)
			}
		})
	}

	cfg := baseConfig()
	cfg.fanouts = "0,5"
	if err := run(cfg); err == nil {
		t.Fatal("bad fanouts accepted")
	}
	cfg = baseConfig()
	cfg.model = "transformer"
	if err := run(cfg); err == nil {
		t.Fatal("unknown model accepted")
	}
	cfg = baseConfig()
	cfg.ckpt = filepath.Join(t.TempDir(), "missing.ckpt")
	if err := run(cfg); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// TrainThenServe covers the warm-up path of run itself.
func TestE2EWarmupTraining(t *testing.T) {
	cfg := baseConfig()
	cfg.epochs = 1
	base, stop := startServer(t, cfg)
	defer stop()
	if code, resp := postPredict(t, base, `{"nodes":[1,2]}`); code != http.StatusOK || len(resp.Scores) != 2 {
		t.Fatalf("warm-up server predict failed: %d", code)
	}
	// GCN and GAT builds must serve too.
	for _, model := range []string{"gcn", "gat"} {
		c := baseConfig()
		c.model = model
		c.hidden = 8
		c.heads = 2
		b, s := startServer(t, c)
		if code, _ := postPredict(t, b, `{"nodes":[5,7]}`); code != http.StatusOK {
			t.Fatalf("%s predict status %d", model, code)
		}
		s()
	}
}
