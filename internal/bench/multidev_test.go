package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestMultiDevBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multidev bench smoke skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "BENCH_multidev.json")
	rep, err := WriteMultiDevBench(path, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Cells), 4*len(rep.Devices); got != want {
		t.Fatalf("%d cells, want %d", got, want)
	}
	for name, b := range rep.RegBoundary {
		if b <= 0 {
			t.Fatalf("REG boundary for %s is %d", name, b)
		}
	}
	for _, c := range rep.Cells {
		if c.Devices == 1 && c.HaloMiB != 0 {
			t.Fatalf("1-device cell has halo traffic: %+v", c)
		}
		if c.Devices > 1 && c.HaloMiB <= 0 {
			t.Fatalf("cell %s x%d missing halo: %+v", c.Partitioner, c.Devices, c)
		}
		// Numerics are device-count and shard-partitioner independent:
		// every cell trains to the same loss, bitwise.
		if math.Float64bits(c.Loss) != math.Float64bits(rep.Cells[0].Loss) {
			t.Fatalf("cell %s x%d loss %v differs from %v",
				c.Partitioner, c.Devices, c.Loss, rep.Cells[0].Loss)
		}
	}
	// Redundancy-aware splits move the least: betty < metis < range and
	// random, in halo traffic at every device count and in the static REG
	// boundary predictor alike.
	ranked := func(what string, v map[string]float64) {
		t.Helper()
		if !(v["betty"] < v["metis"] && v["metis"] < math.Min(v["range"], v["random"])) {
			t.Fatalf("%s not ranked betty < metis < min(range, random): %v", what, v)
		}
	}
	boundary := map[string]float64{}
	for name, b := range rep.RegBoundary {
		boundary[name] = float64(b)
	}
	ranked("reg_boundary", boundary)
	halo := map[int]map[string]float64{}
	prevPeak := map[string]float64{}
	for _, c := range rep.Cells {
		if halo[c.Devices] == nil {
			halo[c.Devices] = map[string]float64{}
		}
		halo[c.Devices][c.Partitioner] = c.HaloMiB
		// Each device holds less as devices are added.
		if prev, ok := prevPeak[c.Partitioner]; ok && c.MaxPeakMiB >= prev {
			t.Fatalf("%s: max per-device peak %.3f MiB at %d devices, not below %.3f MiB with fewer",
				c.Partitioner, c.MaxPeakMiB, c.Devices, prev)
		}
		prevPeak[c.Partitioner] = c.MaxPeakMiB
	}
	for _, n := range rep.Devices[1:] {
		ranked(fmt.Sprintf("halo MiB at %d devices", n), halo[n])
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded MultiDevBenchReport
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
}
