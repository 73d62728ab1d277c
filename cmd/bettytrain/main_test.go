package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"betty/internal/checkpoint"
	"betty/internal/core"
	"betty/internal/dataset"
)

// parseArgs parses a bettytrain command line without exiting on error.
func parseArgs(args ...string) (runConfig, error) {
	var cfg runConfig
	fs := flags(&cfg)
	fs.Init("bettytrain", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	cfg.out = &bytes.Buffer{}
	return cfg, err
}

// smallArgs is a fast cora run used by every CLI test.
var smallArgs = []string{"-dataset", "cora", "-scale", "0.2", "-hidden", "8", "-heads", "2", "-fanouts", "3,3", "-epochs", "3"}

func smallConfig() runConfig {
	cfg, err := parseArgs(smallArgs...)
	if err != nil {
		panic(err)
	}
	return cfg
}

// parseNDJSON decodes every line of an NDJSON file and returns the set of
// "type" discriminators and phase names seen.
func parseNDJSON(t *testing.T, path string) (types, phases map[string]int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	types = make(map[string]int)
	phases = make(map[string]int)
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Type  string `json:"type"`
			Phase string `json:"phase"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		types[rec.Type]++
		if rec.Phase != "" {
			phases[rec.Phase]++
		}
	}
	return types, phases
}

// A run that fails mid-training must still flush the metrics NDJSON and the
// checkpoint, keeping everything recorded up to the failure readable.
func TestRunFlushesMetricsAndCheckpointOnError(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.metrics = filepath.Join(dir, "run.ndjson")
	cfg.trace = true
	cfg.ckpt = filepath.Join(dir, "model.ckpt")
	injected := errors.New("injected mid-epoch failure")
	cfg.hook = func(epoch int) error {
		if epoch == 2 {
			return injected
		}
		return nil
	}

	err := run(cfg)
	if !errors.Is(err, injected) {
		t.Fatalf("run returned %v, want the injected error", err)
	}

	types, phases := parseNDJSON(t, cfg.metrics)
	if types["meta"] != 1 {
		t.Fatalf("meta lines = %d, want 1", types["meta"])
	}
	if types["span"] == 0 || types["counter"] == 0 || types["hist"] == 0 {
		t.Fatalf("flushed NDJSON missing record kinds: %v", types)
	}
	for _, ph := range []string{"sample", "forward", "backward", "step"} {
		if phases[ph] == 0 {
			t.Fatalf("no %q span in flushed trace (phases: %v)", ph, phases)
		}
	}

	// The checkpoint must hold the weights of the 2 completed epochs and
	// load back into a same-architecture model.
	ds, err := dataset.LoadScaled(cfg.dataset, cfg.scale)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := core.BuildSAGE(ds, core.Options{Hidden: cfg.hidden, Fanouts: []int{3, 3}, Seed: cfg.seed})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := checkpoint.LoadFile(cfg.ckpt, setup.Model)
	if err != nil {
		t.Fatalf("checkpoint unreadable after failed run: %v", err)
	}
	if meta["completed_epochs"] != "2" {
		t.Fatalf("completed_epochs = %q, want \"2\"", meta["completed_epochs"])
	}
}

// A clean run emits spans for every pipeline phase of every micro-batch,
// including the planner and evaluation phases.
func TestRunEmitsAllPhases(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.metrics = filepath.Join(dir, "run.ndjson")
	cfg.trace = true
	cfg.k = 2 // force partitioning so partition/reg_build phases appear
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	_, phases := parseNDJSON(t, cfg.metrics)
	for _, ph := range []string{"sample", "reg_build", "partition", "estimate",
		"forward", "backward", "step", "eval"} {
		if phases[ph] == 0 {
			t.Fatalf("no %q span in trace (phases: %v)", ph, phases)
		}
	}
	// 3 epochs x K=2 micro-batches
	if phases["forward"] < 6 {
		t.Fatalf("forward spans = %d, want >= 6", phases["forward"])
	}
}

// -metrics without -trace still writes counters and histograms (no spans),
// and the h2d phase appears once a device capacity is simulated.
func TestRunMetricsOnlyWithDevice(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.metrics = filepath.Join(dir, "run.ndjson")
	cfg.capacityMiB = 256
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	types, phases := parseNDJSON(t, cfg.metrics)
	if types["span"] != 0 {
		t.Fatalf("span records present without -trace: %v", types)
	}
	if types["counter"] == 0 || types["gauge"] == 0 || types["hist"] == 0 {
		t.Fatalf("metrics-only NDJSON missing record kinds: %v", types)
	}
	if len(phases) != 0 {
		t.Fatalf("unexpected phases without tracing: %v", phases)
	}
	// h2d durations still land in the phase histogram.
	data, err := os.ReadFile(cfg.metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"span.h2d_ns"`)) {
		t.Fatal("no span.h2d_ns histogram in metrics output")
	}
}

// -devices 2 trains split-parallel: the same loss and train accuracy, epoch
// by epoch, as one device, and both paths print a measured epoch time.
func TestRunDevicesMatchesSingle(t *testing.T) {
	columns := func(devices int) []string {
		var out bytes.Buffer
		cfg := smallConfig()
		cfg.devices = devices
		cfg.out = &out
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) == 7 && f[0] != "epoch" {
				if ms, err := strconv.ParseFloat(f[5], 64); err != nil || ms <= 0 {
					t.Fatalf("%d devices: epoch ms %q is not a positive number: %q", devices, f[5], line)
				}
				rows = append(rows, f[2]+" "+f[3])
			}
		}
		if len(rows) != cfg.epochs {
			t.Fatalf("%d devices: %d epoch rows, want %d:\n%s", devices, len(rows), cfg.epochs, out.String())
		}
		return rows
	}
	single, split := columns(1), columns(2)
	if strings.Join(single, "\n") != strings.Join(split, "\n") {
		t.Fatalf("loss / train acc per epoch: 1 device %v, 2 devices %v", single, split)
	}
}

// ExampleParseFanouts-style sanity: bad flags fail before any training.
func TestRunRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.partitioner = "nope"
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "unknown partitioner") {
		t.Fatalf("err = %v, want unknown partitioner", err)
	}
	cfg = smallConfig()
	cfg.fanouts = "0"
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "bad fanout") {
		t.Fatalf("err = %v, want bad fanout", err)
	}
	cfg = smallConfig()
	cfg.model = "mlp"
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("err = %v, want unknown model", err)
	}
}

// Every numeric flag is range-checked before any work: a bad value is an
// error naming the flag, from flag parsing or from run, and nothing trains.
func TestBadFlagsFailLoudly(t *testing.T) {
	for _, bad := range [][2]string{
		{"-capacity", "-5"},
		{"-capacity", "17592186044417"}, // 2^44+1 MiB: << 20 would wrap to 1 MiB
		{"-capacity", "many"},
		{"-k", "-3"},
		{"-devices", "0"},
		{"-devices", "-2"},
		{"-store-budget", "0"},
		{"-store-budget", "-1"},
		{"-store-budget", "17592186044417"},
		{"-shard-rows", "0"},
		{"-shard-rows", "x"},
		{"-epochs", "0"},
		{"-epochs", "-3"},
		{"-lr", "0"},
		{"-lr", "-1"},
		{"-lr", "NaN"},
		{"-lr", "+Inf"},
	} {
		cfg, err := parseArgs(append(smallArgs, bad[:]...)...)
		if err == nil {
			err = run(cfg)
		}
		if err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("%s %s: got %v, want an error naming %s", bad[0], bad[1], err, bad[0])
		}
		if out := cfg.out.(*bytes.Buffer); out.Len() != 0 {
			t.Errorf("%s %s: refused run logged %q", bad[0], bad[1], out.String())
		}
	}
}

// Every setting is a flag: any set BETTY_* variable — a retired knob
// (BETTY_WORKERS, BETTY_EMBCACHE; int8 serving is gone) or a misspelt one —
// aborts before any training, naming the variable.
func TestEnvFailsLoudlyAtStartup(t *testing.T) {
	for name, val := range map[string]string{"BETTY_QUANT": "int8", "BETTY_WORKER": "2", "BETTY_WORKERS": "4", "BETTY_EMBCACHE": "off"} {
		t.Run(name, func(t *testing.T) {
			t.Setenv(name, val)
			cfg := smallConfig()
			if err := run(cfg); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("%s=%s: run returned %v, want an error naming it", name, val, err)
			}
			if out := cfg.out.(*bytes.Buffer); out.Len() != 0 {
				t.Fatalf("%s=%s: refused run logged %q", name, val, out.String())
			}
		})
	}
}

// Training has no embedding cache: the default run is the plain one.
func TestDefaultsArePlainPath(t *testing.T) {
	var out bytes.Buffer
	cfg := smallConfig()
	cfg.out = &out
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "embedding cache") {
		t.Fatalf("default run mentions an embedding cache:\n%s", out.String())
	}
}

// At 1 MiB per device single-device planning fits this run, and -devices 8
// must fit too. A K chosen by the redundancy-free floor of a device's share
// overflows a device here, since each shard holds every input its outputs
// reach; planning the shards that will run does not.
func TestRunDevicesFitWherePlanned(t *testing.T) {
	for _, devices := range []int{1, 8} {
		cfg := smallConfig()
		cfg.dataset, cfg.scale, cfg.epochs = "ogbn-arxiv", 0.05, 1
		cfg.capacityMiB, cfg.devices = 1, devices
		if err := run(cfg); err != nil {
			t.Fatalf("%d devices at 1 MiB: %v", devices, err)
		}
	}
}
