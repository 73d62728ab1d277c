package serve

import (
	"testing"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/memory"
	"betty/internal/rng"
)

// The served forward fits its plan to the byte (DESIGN.md §11). Coalesced
// unions, sampled node-wise on a small ogbn-arxiv, are split by the
// server's own planner into the room a ledger of CapacityBytes has beside
// the parameters — Capacity − Used + RoundAlloc(params), as evaluation
// plans — and run through core.PlannedForward on that ledger. Every
// batch's peak is then the resident bytes plus its largest planned
// ForwardPeak minus the parameters, exactly, and no batch runs out of
// memory. The server itself is not charged: its cache ledger's peak is
// what benchmark/ reports as serving's peak_device_bytes.
func TestServedForwardFitsPlan(t *testing.T) {
	d, err := dataset.LoadScaled("ogbn-arxiv", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(nil, nil)
	cfg.CapacityBytes = 256 << 10 // a lone union forwards in about 600 KiB
	s := newTestServer(t, d, testModel(t, d), cfg)
	dev := device.New(cfg.CapacityBytes, device.CostModel{})
	params, err := memory.AllocResident(dev, s.model, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer memory.Free(dev, params)
	paramBytes := device.RoundAlloc(int64(s.spec.Params) * memory.BytesPerValue)

	// Each batch coalesces three 8-node requests, the first of which
	// repeats half of the previous batch's first request, deduplicated in
	// first-occurrence order as runBatch does.
	r := rng.New(11)
	var stage dataset.Stage
	var prev []int32
	for batch := int64(0); batch < 6; batch++ {
		var union []int32
		seen := map[int32]bool{}
		for req := 0; req < 3; req++ {
			for i := 0; i < 8; i++ {
				v := int32(r.Intn(int(d.Graph.NumNodes())))
				if req == 0 && i < len(prev)/2 {
					v = prev[i]
				}
				if !seen[v] {
					seen[v] = true
					union = append(union, v)
				}
			}
		}
		prev = union
		blocks, err := s.sampler.Sample(d.Graph, union)
		if err != nil {
			t.Fatal(err)
		}
		pl := s.planner()
		pl.Capacity = dev.Capacity() - dev.Used() + paramBytes
		dev.ResetPeak()
		plan, err := core.PlannedForward(pl, blocks, s.model, d.FeatureSource(), &stage, dev, batch, func(int, []float32) {})
		if err != nil {
			t.Fatalf("batch %d (%d seeds): %v", batch, len(union), err)
		}

		if plan.K < 2 {
			t.Fatalf("batch %d: K = %d; the capacity should force a split", batch, plan.K)
		}
		if got, want := dev.Peak(), dev.Used()-paramBytes+plan.MaxPeak; got != want {
			t.Errorf("batch %d (K = %d): ledger peak %d B, planned %d B", batch, plan.K, got, want)
		}
		if dev.Used() != paramBytes {
			t.Fatalf("batch %d left %d B charged beside the %d B of parameters", batch, dev.Used()-paramBytes, paramBytes)
		}
	}
}
