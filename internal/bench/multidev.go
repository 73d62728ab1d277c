package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/partition"
	"betty/internal/reg"
	"betty/internal/sample"
)

// The multidev benchmark sweeps split-parallel training over device counts
// and shard partitioners and reports what GSplit-style execution can show
// in exact counts: halo traffic per partitioner (Betty's REG partitioning
// should move the least) and the per-device memory relief. Its output is
// BENCH_multidev.json.

// MultiDevBenchCell is one (partitioner, device count) cell of the sweep.
type MultiDevBenchCell struct {
	// Partitioner names the shard partitioner splitting each micro-batch.
	Partitioner string `json:"partitioner"`
	// Devices is the simulated device count.
	Devices int `json:"devices"`
	// HaloMiB is the boundary feature traffic between devices.
	HaloMiB float64 `json:"halo_mib"`
	// OwnedMiB is the host-loaded input feature traffic (constant across
	// device counts: every distinct input is loaded exactly once).
	OwnedMiB float64 `json:"owned_mib"`
	// MaxPeakMiB is the largest per-device memory peak.
	MaxPeakMiB float64 `json:"max_peak_mib"`
	// Loss is the epoch loss; identical across every cell by the bitwise
	// determinism contract, so the report doubles as evidence.
	Loss float64 `json:"loss"`
}

// MultiDevBenchReport is the schema of BENCH_multidev.json.
type MultiDevBenchReport struct {
	// Dataset and Model describe the benchmarked workload.
	Dataset string `json:"dataset"`
	Model   string `json:"model"`
	// Seeds is the epoch's labeled seed count, K the micro-batch count.
	Seeds int `json:"seeds"`
	K     int `json:"k"`
	// Devices lists the swept device counts.
	Devices []int `json:"devices"`
	// RegBoundary maps partitioner name to the boundary-node count of the
	// full batch's REG under that partitioner's k = max devices split — the
	// static predictor of halo traffic that the dynamic HaloMiB columns
	// validate.
	RegBoundary map[string]int `json:"reg_boundary"`
	// Cells holds the measured sweep.
	Cells []MultiDevBenchCell `json:"cells"`
}

// multidevPartitioners returns the swept shard partitioners in report order.
func multidevPartitioners() []reg.BatchPartitioner {
	return []reg.BatchPartitioner{
		reg.RangeBatch{},
		reg.RandomBatch{Seed: 1},
		reg.MetisBatch{Seed: 1},
		reg.BettyBatch{Seed: 1},
	}
}

// RunMultiDevBench sweeps {1, 2, 4, 8} devices x shard partitioners over
// one split-parallel epoch each and returns the report.
func RunMultiDevBench(scale float64) (*MultiDevBenchReport, error) {
	ds, err := dataset.LoadScaled("ogbn-products", scale)
	if err != nil {
		return nil, err
	}
	seeds := ds.TrainIdx
	if len(seeds) > 1024 {
		seeds = seeds[:1024]
	}
	deviceCounts := []int{1, 2, 4, 8}
	rep := &MultiDevBenchReport{
		Dataset:     "ogbn-products",
		Model:       "GraphSAGE-2L-Mean-h64",
		Seeds:       len(seeds),
		Devices:     deviceCounts,
		RegBoundary: map[string]int{},
	}

	// Static predictor: boundary nodes of the full batch's REG under each
	// shard partitioner's own k = max devices split of its outputs. Every
	// row scores the same REG, so the column is comparable across rows.
	blocks, err := sample.New([]int{5, 10}, 1).Sample(ds.Graph, seeds)
	if err != nil {
		return nil, err
	}
	last := blocks[len(blocks)-1]
	regGraph, err := reg.BuildREGFast(last)
	if err != nil {
		return nil, err
	}
	maxDev := deviceCounts[len(deviceCounts)-1]
	for _, p := range multidevPartitioners() {
		groups, err := p.PartitionBatch(last, maxDev)
		if err != nil {
			return nil, err
		}
		parts := make([]int32, regGraph.N)
		for g, outs := range groups {
			for _, o := range outs {
				parts[o] = int32(g)
			}
		}
		rep.RegBoundary[p.Name()] = partition.Boundary(regGraph, parts)
	}

	for _, shardP := range multidevPartitioners() {
		for _, nDev := range deviceCounts {
			s, err := core.BuildSAGE(ds, core.Options{
				Seed: 1, Hidden: 64, Fanouts: []int{5, 10}, FixedK: 8,
			})
			if err != nil {
				return nil, err
			}
			s.Engine.Runner.Data.TrainIdx = seeds
			devs := make([]*device.Device, nDev)
			for i := range devs {
				devs[i] = device.New(device.GiB, device.DefaultCostModel())
			}
			md := &core.MultiDevice{
				Engine: s.Engine, Devices: devs, ShardPartitioner: shardP,
			}
			st, err := md.TrainEpoch()
			if err != nil {
				return nil, fmt.Errorf("bench: %s x %d devices: %w", shardP.Name(), nDev, err)
			}
			var owned int64
			for _, l := range st.PerDevice {
				owned += l.OwnedBytes
			}
			rep.Cells = append(rep.Cells, MultiDevBenchCell{
				Partitioner: shardP.Name(),
				Devices:     nDev,
				HaloMiB:     float64(st.HaloBytes) / (1 << 20),
				OwnedMiB:    float64(owned) / (1 << 20),
				MaxPeakMiB:  float64(st.PeakBytes) / (1 << 20),
				Loss:        st.Loss,
			})
		}
	}
	rep.K = 8
	return rep, nil
}

// WriteMultiDevBench runs the sweep and writes the JSON report to path.
func WriteMultiDevBench(path string, scale float64) (*MultiDevBenchReport, error) {
	rep, err := RunMultiDevBench(scale)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(path, append(data, '\n'), 0o644)
}
