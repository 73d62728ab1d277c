package core

import (
	"math"
	"slices"
	"testing"

	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/tensor"
	"betty/internal/train"
)

func multiSetup(t *testing.T, numDevices, k int) (*Setup, *MultiDevice) {
	t.Helper()
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 20, Hidden: 16, Fanouts: []int{5, 5}, FixedK: k})
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*device.Device, numDevices)
	for i := range devs {
		devs[i] = device.New(device.GiB, device.DefaultCostModel())
	}
	return s, &MultiDevice{Engine: s.Engine, Devices: devs}
}

// maskedCoreData is the masked-label fixture: every third node is
// unlabeled (label < 0), mirroring the train-package fixture.
func maskedCoreData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := testData(t)
	for i := range d.Labels {
		if i%3 == 0 {
			d.Labels[i] = -1
		}
	}
	return d
}

// recordingOpt wraps an optimizer and snapshots every parameter gradient
// at Step time — the merged gradient every replica would hold, immediately
// before the update is applied.
type recordingOpt struct {
	nn.Optimizer
	params []*tensor.Var
	grads  [][]float32
}

func (r *recordingOpt) Step() {
	var snap []float32
	for _, p := range r.params {
		if p.Grad != nil {
			snap = append(snap, p.Grad.Data...)
		}
	}
	r.grads = append(r.grads, snap)
	r.Optimizer.Step()
}

func recordGrads(s *Setup) *recordingOpt {
	ro := &recordingOpt{Optimizer: s.Engine.Runner.Opt, params: s.Model.Params()}
	s.Engine.Runner.Opt = ro
	return ro
}

func TestMultiDeviceBasics(t *testing.T) {
	_, md := multiSetup(t, 2, 8)
	st, err := md.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 8 {
		t.Fatalf("K = %d", st.K)
	}
	if st.Devices != 2 || len(st.PerDevice) != 2 {
		t.Fatal("missing per-device loads")
	}
	for d, l := range st.PerDevice {
		// Split-parallelism: every device executes one shard of every
		// micro-batch.
		if l.Batches != 8 {
			t.Fatalf("device %d executed %d of 8 shards", d, l.Batches)
		}
		if l.PeakBytes == 0 {
			t.Fatalf("device %d executed shards but recorded no peak", d)
		}
		if l.OwnedBytes <= 0 {
			t.Fatalf("device %d loaded no inputs: %+v", d, l)
		}
	}
	if st.HaloBytes <= 0 {
		t.Fatal("split-parallel epoch exchanged no halo features")
	}
	// The canonical execution moves the same batches a single-device epoch
	// over the same plan does.
	single, err := BuildSAGE(testData(t), Options{
		Seed: 20, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 8,
		Device: device.New(device.GiB, device.DefaultCostModel()),
	})
	if err != nil {
		t.Fatal(err)
	}
	one, err := single.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatal(err)
	}
	if st.H2DBytes <= 0 || st.H2DBytes != one.H2DBytes {
		t.Fatalf("split-parallel H2DBytes %d, single-device %d", st.H2DBytes, one.H2DBytes)
	}
}

func TestMultiDeviceNeedsDevices(t *testing.T) {
	s, _ := multiSetup(t, 1, 4)
	md := &MultiDevice{Engine: s.Engine}
	if _, err := md.TrainEpoch(); err == nil {
		t.Fatal("empty device list accepted")
	}
}

// Splitting each micro-batch across four devices must relieve every one of
// them: the largest per-device peak falls below the one-device peak, while
// the host still loads each micro-batch's distinct inputs exactly once.
func TestMultiDevicePeakFalls(t *testing.T) {
	_, md1 := multiSetup(t, 1, 8)
	st1, err := md1.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	_, md4 := multiSetup(t, 4, 8)
	st4, err := md4.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st4.PeakBytes >= st1.PeakBytes {
		t.Fatalf("4-device max peak %d not below 1-device peak %d", st4.PeakBytes, st1.PeakBytes)
	}
	if st1.PerDevice[0].OwnedBytes != ownedBytes(st4) {
		t.Fatalf("owned bytes: 1 device %d, 4 devices %d", st1.PerDevice[0].OwnedBytes, ownedBytes(st4))
	}
}

// ownedBytes sums the host-loaded input bytes over every device.
func ownedBytes(st MultiEpochStats) int64 {
	var owned int64
	for _, l := range st.PerDevice {
		owned += l.OwnedBytes
	}
	return owned
}

// multiTrace runs two multi-device epochs over n devices and returns the
// per-epoch loss/accuracy scalars, every recorded merged gradient, and the
// final parameters.
func multiTrace(t *testing.T, n int) ([]float64, [][]float32, []float32) {
	t.Helper()
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 21, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 6})
	if err != nil {
		t.Fatal(err)
	}
	ro := recordGrads(s)
	devs := make([]*device.Device, n)
	for i := range devs {
		devs[i] = device.New(device.GiB, device.DefaultCostModel())
	}
	md := &MultiDevice{Engine: s.Engine, Devices: devs}
	var scalars []float64
	for e := 0; e < 2; e++ {
		st, err := md.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		scalars = append(scalars, st.Loss, st.TrainAcc)
	}
	var params []float32
	for _, p := range s.Model.Params() {
		params = append(params, p.Value.Data...)
	}
	return scalars, ro.grads, params
}

// singleTrace is the reference: the same model trained by the plain
// single-device micro-batch epoch.
func singleTrace(t *testing.T) ([]float64, [][]float32, []float32) {
	t.Helper()
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 21, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 6})
	if err != nil {
		t.Fatal(err)
	}
	ro := recordGrads(s)
	var scalars []float64
	for e := 0; e < 2; e++ {
		st, err := s.Engine.TrainEpochMicro()
		if err != nil {
			t.Fatal(err)
		}
		scalars = append(scalars, st.Loss, st.TrainAcc)
	}
	var params []float32
	for _, p := range s.Model.Params() {
		params = append(params, p.Value.Data...)
	}
	return scalars, ro.grads, params
}

func compareGradTraces(t *testing.T, label string, g1, g2 [][]float32) {
	t.Helper()
	if len(g1) != len(g2) {
		t.Fatalf("%s: %d vs %d optimizer steps", label, len(g1), len(g2))
	}
	for s := range g1 {
		if len(g1[s]) != len(g2[s]) {
			t.Fatalf("%s: step %d gradient sizes differ", label, s)
		}
		for i := range g1[s] {
			if math.Float32bits(g1[s][i]) != math.Float32bits(g2[s][i]) {
				t.Fatalf("%s: step %d gradient %d differs: %v vs %v",
					label, s, i, g1[s][i], g2[s][i])
			}
		}
	}
}

// TestMultiDeviceBitwiseIdentical pins the split-parallel determinism
// claim: at every tested device count the per-epoch losses and accuracies,
// the merged gradients, and the post-step parameters
// are bitwise identical to single-device micro-batch training.
func TestMultiDeviceBitwiseIdentical(t *testing.T) {
	sRef, gRef, pRef := singleTrace(t)
	for _, n := range []int{1, 2, 4, 8} {
		sN, gN, pN := multiTrace(t, n)
		label := "single vs " + string(rune('0'+n)) + " devices"
		compareTraces(t, label, sRef, sN, pRef, pN)
		compareGradTraces(t, label, gRef, gN)
	}
}

// TestMultiDeviceMaskedAccuracy is the masked-label fixture for the
// accuracy-accounting fix: with a third of the nodes unlabeled, the
// multi-device epoch accuracy must equal the single-device accuracy
// bitwise — both divide by the labeled-output count. The pre-fix code
// divided by the full seed count (and weighted micro losses by raw
// destination counts), so it fails this test.
func TestMultiDeviceMaskedAccuracy(t *testing.T) {
	d := maskedCoreData(t)
	single, err := BuildSAGE(d, Options{Seed: 23, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4})
	if err != nil {
		t.Fatal(err)
	}
	stS, err := single.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatal(err)
	}
	multi, err := BuildSAGE(d, Options{Seed: 23, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4})
	if err != nil {
		t.Fatal(err)
	}
	devs := []*device.Device{
		device.New(device.GiB, device.DefaultCostModel()),
		device.New(device.GiB, device.DefaultCostModel()),
	}
	md := &MultiDevice{Engine: multi.Engine, Devices: devs}
	stM, err := md.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stM.TrainAcc <= 0 || stM.TrainAcc > 1 {
		t.Fatalf("masked multi-device accuracy %v outside (0, 1]", stM.TrainAcc)
	}
	if math.Float64bits(stM.TrainAcc) != math.Float64bits(stS.TrainAcc) {
		t.Fatalf("masked accuracy: multi %v vs single %v", stM.TrainAcc, stS.TrainAcc)
	}
	if math.Float64bits(stM.Loss) != math.Float64bits(stS.Loss) {
		t.Fatalf("masked loss: multi %v vs single %v", stM.Loss, stS.Loss)
	}
}

// Each device holds exactly one model replica between epochs, and the
// engine's own runner keeps its device and resident set untouched.
func TestMultiDeviceNoReplicaLeak(t *testing.T) {
	own := device.New(device.GiB, device.DefaultCostModel())
	s, err := BuildSAGE(testData(t), Options{Seed: 20, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4, Device: own})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine.TrainEpochMicro(); err != nil {
		t.Fatal(err)
	}
	ownLive, ownUsed := own.LiveBuffers(), own.Used()
	if len(ownLive) == 0 {
		t.Fatal("runner allocated no resident set")
	}
	params := int64(nn.ParamCount(s.Model)) * 4
	replica := 2*device.RoundAlloc(params) + device.RoundAlloc(params*int64(s.Opt.StateSize()))
	md := &MultiDevice{Engine: s.Engine, Devices: []*device.Device{
		device.New(device.GiB, device.DefaultCostModel()),
		device.New(device.GiB, device.DefaultCostModel()),
	}}
	for e := 1; e <= 3; e++ {
		if _, err := md.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		for d, dev := range md.Devices {
			if dev.Used() != replica {
				t.Fatalf("epoch %d: device %d holds %d bytes, want one replica of %d", e, d, dev.Used(), replica)
			}
		}
		if s.Runner.Dev != own || !slices.Equal(own.LiveBuffers(), ownLive) {
			t.Fatalf("epoch %d: the runner's device or resident set changed", e)
		}
	}
	// The runner still holds its resident set, so its next epoch allocates
	// no new one.
	if _, err := s.Engine.TrainEpochMicro(); err != nil {
		t.Fatal(err)
	}
	if own.Used() != ownUsed {
		t.Fatalf("runner device holds %d bytes after another epoch, had %d", own.Used(), ownUsed)
	}
}

// A device too small for its share must surface the OOM.
func TestMultiDeviceOOM(t *testing.T) {
	s, _ := multiSetup(t, 1, 2)
	tiny := device.New(64*device.KiB, device.DefaultCostModel())
	md := &MultiDevice{Engine: s.Engine, Devices: []*device.Device{tiny}}
	if _, err := md.TrainEpoch(); err == nil {
		t.Fatal("tiny device did not OOM")
	}
}

// Every halo byte received by one device was sent by another: the in/out
// tallies must agree with each other and with the epoch total, and the
// host loads must cover each micro-batch's distinct inputs exactly once.
func TestMultiDeviceHaloConservation(t *testing.T) {
	_, md := multiSetup(t, 4, 8)
	st, err := md.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	var in, out int64
	for _, l := range st.PerDevice {
		in += l.HaloInBytes
		out += l.HaloOutBytes
	}
	if in != out || in != st.HaloBytes {
		t.Fatalf("halo bytes: in %d, out %d, total %d", in, out, st.HaloBytes)
	}
	if st.HaloBytes <= 0 {
		t.Fatal("4-device split-parallel epoch exchanged no halo")
	}
	owned := ownedBytes(st)
	featBytes := int64(md.Engine.Runner.Data.FeatureDim()) * 4
	want := int64(st.InputNodes) * featBytes
	if owned != want {
		t.Fatalf("owned host loads %d, want %d (distinct inputs once each)", owned, want)
	}
}

// The plan says what each device will hold. Every device's ledger peak
// exceeds the planned peak by at most what Breakdown.Peak leaves out — the
// gradients, which the replica holds all run, and the loss value — plus
// allocator rounding of the seven buffers (three resident, four per
// shard).
func TestMultiDevicePeakWithinPlan(t *testing.T) {
	for _, arch := range []string{"sage", "gcn", "gat"} {
		for _, k := range []int{2, 4} {
			for _, n := range []int{1, 2, 4, 8} {
				s, err := Build(testData(t), arch, "mean", Options{Seed: 20, Hidden: 16, Fanouts: []int{5, 5}, FixedK: k})
				if err != nil {
					t.Fatal(err)
				}
				devs := make([]*device.Device, n)
				for i := range devs {
					devs[i] = device.New(device.GiB, device.DefaultCostModel())
				}
				st, err := (&MultiDevice{Engine: s.Engine, Devices: devs}).TrainEpoch()
				if err != nil {
					t.Fatal(err)
				}
				slack := int64(nn.ParamCount(s.Model))*memory.BytesPerValue + memory.BytesPerValue +
					7*(device.AllocGranularity-1)
				for d, l := range st.PerDevice {
					if l.PeakBytes-st.MaxEstimate > slack {
						t.Errorf("%s K=%d D=%d: device %d peak %d, plan %d: %d over, slack %d",
							arch, k, n, d, l.PeakBytes, st.MaxEstimate, l.PeakBytes-st.MaxEstimate, slack)
					}
				}
			}
		}
	}
}

// The replay charges the shards the plan holds, not a re-split: with every
// micro-batch's shards handed to the devices in reverse, device g's peak is
// that of the shards now at index g.
func TestMultiDeviceChargesPlannedShards(t *testing.T) {
	s, md := multiSetup(t, 4, 4)
	e := s.Engine
	_, plan, err := e.planEpoch(e.Runner.Data.TrainIdx, e.FixedK, md.minCapacity(), &memory.Split{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := md.ensureReplicas(); err != nil {
		t.Fatal(err)
	}
	resident := md.Devices[0].Used()
	// peaks predicts each device's ledger peak from plan.Shards.
	peaks := func() []int64 {
		want := make([]int64, len(md.Devices))
		for _, shards := range plan.Shards {
			for g, shard := range shards {
				est, err := memory.Estimate(shard, e.Spec)
				if err != nil {
					t.Fatal(err)
				}
				used := resident
				for _, c := range train.BatchCharges(shard, s.Dataset.FeatureDim(), est.Hidden+est.Aggregator+memory.BytesPerValue) {
					used += device.RoundAlloc(c.Bytes)
				}
				want[g] = max(want[g], used)
			}
		}
		return want
	}
	planned := peaks()
	for _, shards := range plan.Shards {
		slices.Reverse(shards)
	}
	want := peaks()
	if slices.Equal(planned, want) {
		t.Fatalf("reversing the shards leaves every device peak at %v; the check cannot tell them apart", want)
	}
	for _, dev := range md.Devices {
		dev.ResetPeak()
	}
	st := MultiEpochStats{PerDevice: make([]DeviceLoad, len(md.Devices))}
	if err := md.simulateSplitParallel(plan, &st); err != nil {
		t.Fatal(err)
	}
	for g, dev := range md.Devices {
		if dev.Peak() != want[g] {
			t.Errorf("device %d peak %d, want %d from the plan's shards (%d in planned order)", g, dev.Peak(), want[g], planned[g])
		}
	}
}
