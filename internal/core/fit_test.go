package core

import (
	"errors"
	"fmt"
	"testing"

	"betty/internal/device"
	"betty/internal/memory"
)

// A planned epoch never runs out of memory. Over a sweep of device
// capacities every plan either returns ErrCannotFit or runs on devices of
// exactly that capacity, and the largest ledger peak equals the plan's
// MaxPeak to the byte — on one device and split across four. A plan is a
// function of K, so each distinct K runs once, at the smallest capacity
// that planned it. On one device the trained model is then evaluated on
// the same device, which must fit or be refused too (checkEvaluationFits).
func TestPlannedEpochFits(t *testing.T) {
	for _, m := range [][2]string{{"sage", "mean"}, {"sage", "lstm"}, {"gcn", "mean"}, {"gat", "mean"}} {
		for _, devices := range []int{1, 4} {
			d := testData(t)
			// Keep the sweep's 100 plans and the evaluations cheap.
			d.TrainIdx, d.TestIdx = d.TrainIdx[:48], d.TestIdx[:48]
			s, err := Build(d, m[0], m[1], Options{Seed: 20, Hidden: 8, Fanouts: []int{5, 5}})
			if err != nil {
				t.Fatal(err)
			}
			e := s.Engine
			seeds := s.Dataset.TrainIdx
			var split *memory.Split
			if devices > 1 {
				split = &memory.Split{Devices: devices}
			}
			_, whole, err := e.planEpoch(seeds, 1, e.capacity(), nil)
			if err != nil {
				t.Fatal(err)
			}
			smallest := map[int]int64{} // K -> the smallest capacity that planned it
			for i := int64(1); i <= 100; i++ {
				capacity := whole.MaxPeak * i / 100
				_, plan, err := e.planEpoch(seeds, 0, capacity, split)
				if errors.Is(err, memory.ErrCannotFit) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := smallest[plan.K]; !ok {
					smallest[plan.K] = capacity
				}
			}
			if len(smallest) < 3 {
				t.Fatalf("%s-%s D=%d: the sweep planned only K in %v", m[0], m[1], devices, smallest)
			}
			for k, capacity := range smallest {
				devs := make([]*device.Device, devices)
				for d := range devs {
					devs[d] = device.New(capacity, device.DefaultCostModel())
				}
				var st EpochStats
				if devices == 1 {
					s.Runner.ReleaseResident()
					s.Runner.Dev = devs[0]
					st, err = e.TrainEpochMicro()
				} else {
					var mst MultiEpochStats
					mst, err = (&MultiDevice{Engine: e, Devices: devs}).TrainEpoch()
					st = mst.EpochStats
				}
				if err != nil {
					t.Fatalf("%s-%s D=%d K=%d at %d bytes: %v", m[0], m[1], devices, k, capacity, err)
				}
				if st.K != k || st.PeakBytes != st.MaxEstimate {
					t.Errorf("%s-%s D=%d at %d bytes: K=%d (planned %d), ledger peak %d, plan %d",
						m[0], m[1], devices, capacity, st.K, k, st.PeakBytes, st.MaxEstimate)
				}
				if devices == 1 {
					checkEvaluationFits(t, s, devs[0], fmt.Sprintf("%s-%s at %d bytes", m[0], m[1], capacity))
				}
			}
		}
	}
}
