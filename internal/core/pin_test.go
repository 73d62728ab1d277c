package core

import (
	"fmt"
	"math"
	"testing"

	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/memory"
)

// epochPin is the part of EpochStats every epoch strategy must reproduce
// exactly: loss and accuracy bits, the device peak, the moved bytes, the
// loaded inputs and the batch count.
type epochPin struct {
	name            string
	loss, acc       uint64
	peak, h2d       int64
	inputs, batches int
}

func pinOf(name string, st EpochStats) epochPin {
	return epochPin{
		name: name, loss: math.Float64bits(st.Loss), acc: math.Float64bits(st.TrainAcc),
		peak: st.PeakBytes, h2d: st.H2DBytes, inputs: st.InputNodes, batches: st.K,
	}
}

func (p epochPin) String() string {
	return fmt.Sprintf("{%q, 0x%016x, 0x%016x, %d, %d, %d, %d}",
		p.name, p.loss, p.acc, p.peak, p.h2d, p.inputs, p.batches)
}

// pinData is testData with every fourth label masked, so the pins cover the
// labeled-count loss and accuracy conventions.
func pinData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := testData(t)
	for i := range d.Labels {
		if i%4 == 0 {
			d.Labels[i] = -1
		}
	}
	return d
}

// pinSetup builds arch over pinData on a 1 GiB device.
func pinSetup(t *testing.T, arch string, fixedK int) *Setup {
	t.Helper()
	s, err := Build(pinData(t), arch, "mean", Options{
		Seed: 60, Hidden: 16, Fanouts: []int{5, 5}, FixedK: fixedK,
		Device: device.New(device.GiB, device.DefaultCostModel()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The epoch strategies share one batch fold; these are the exact stats each
// produced before they did, and must keep producing.
func TestEpochStatsPinned(t *testing.T) {
	want := []epochPin{
		{"mini-1", 0x3ff5d14e59d5799f, 0x3fda93fc9916f6a5, 387584, 328576, 2280, 3},
		{"mini-2", 0x3fe58a987b37484b, 0x3fea78c550cc1e9e, 382464, 329212, 2289, 3},
		{"full", 0x3ffbbe2e00000000, 0x3fcc7ddfae5a271f, 608768, 144952, 796, 1},
		{"multidev-2", 0x3ffbbe2df49fe4c9, 0x3fcc7ddfae5a271f, 180224, 311380, 2294, 4},
		{"micro-sage", 0x3ffbbe2df49fe4c9, 0x3fcc7ddfae5a271f, 268288, 311380, 2294, 4},
		{"micro-gcn", 0x3ff8ef2b5e4c8b7b, 0x3fdd5799f0b0e756, 338432, 311380, 2294, 4},
		{"micro-gat", 0x3ff81a2b761ceabd, 0x3fd2492492492492, 1717760, 311380, 2294, 4},
	}
	var got []epochPin
	check := func(name string, st EpochStats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, pinOf(name, st))
	}

	s := pinSetup(t, "sage", 0)
	st, err := s.Engine.TrainEpochMini(3, 7)
	check("mini-1", st, err)
	st, err = s.Engine.TrainEpochMini(3, 8)
	check("mini-2", st, err)

	st, err = pinSetup(t, "sage", 0).Engine.TrainEpochFull()
	check("full", st, err)

	s = pinSetup(t, "sage", 4)
	md := &MultiDevice{Engine: s.Engine, Devices: []*device.Device{
		device.New(device.GiB, device.DefaultCostModel()),
		device.New(device.GiB, device.DefaultCostModel()),
	}}
	mst, err := md.TrainEpoch()
	check("multidev-2", mst.EpochStats, err)

	for _, arch := range []string{"sage", "gcn", "gat"} {
		st, err = pinSetup(t, arch, 4).Engine.TrainEpochMicro()
		check("micro-"+arch, st, err)
	}

	if len(got) != len(want) {
		t.Fatalf("%d pins, want %d; got:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got  %v\nwant %v", got[i], want[i])
		}
	}
}

// The buffers a training step puts on a device are the estimator's charge
// list: for every micro-batch of every architecture and SAGE aggregator,
// the runner's batch charges equal the last four charges of the
// micro-batch's estimate to the byte, its resident state the first three,
// and so its ledger peak the estimate's Peak.
func TestBatchChargesMatchEstimate(t *testing.T) {
	for _, m := range [][2]string{{"sage", "mean"}, {"sage", "sum"}, {"sage", "pool"}, {"sage", "lstm"}, {"gcn", "mean"}, {"gat", "mean"}} {
		s, err := Build(pinData(t), m[0], m[1], Options{
			Seed: 60, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4,
			Device: device.New(device.GiB, device.DefaultCostModel()),
		})
		if err != nil {
			t.Fatal(err)
		}
		_, plan, err := s.Engine.PlanEpoch(s.Dataset.TrainIdx)
		if err != nil {
			t.Fatal(err)
		}
		dev := s.Runner.Dev
		for i, micro := range plan.Micro {
			want := plan.Estimates[i].Charges()
			dev.ResetPeak()
			res, err := s.Runner.RunMicroBatch(micro, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := memory.BatchCharges(micro, s.Dataset.FeatureDim(), res.ActivationBytes); got != [4]memory.Charge(want[3:]) {
				t.Fatalf("%s-%s micro %d: runner charged %v, estimate lists %v", m[0], m[1], i, got, want[3:])
			}
			resident := map[string]int64{}
			for _, b := range dev.LiveBuffers() {
				resident[b.Label()] = b.Bytes()
			}
			for _, c := range want[:3] {
				if len(resident) != 3 || resident[c.Label] != device.RoundAlloc(c.Bytes) {
					t.Fatalf("%s-%s: resident %v, estimate lists %v", m[0], m[1], resident, want[:3])
				}
			}
			if res.PeakBytes != plan.Estimates[i].Peak() {
				t.Fatalf("%s-%s micro %d: ledger peak %d, estimate %d", m[0], m[1], i, res.PeakBytes, plan.Estimates[i].Peak())
			}
		}
	}
}
