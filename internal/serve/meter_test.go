package serve

import (
	"testing"

	"betty/internal/obs"
)

func TestMeter(t *testing.T) {
	reg := obs.New(nil)
	m := newFrontierMeter(reg)
	m.Observe([]int32{1, 2, 3})
	m.Observe([]int32{2, 3, 4})
	if got := reg.CounterValue("sample.frontier.reuse_nodes"); got != 2 {
		t.Fatalf("reuse_nodes = %d, want 2", got)
	}
	if got := reg.CounterValue("sample.frontier.total_nodes"); got != 6 {
		t.Fatalf("total_nodes = %d, want 6", got)
	}
	frac, ok := reg.GaugeValue("sample.frontier.reuse_frac_ppm")
	if !ok || frac != 2*1_000_000/6 {
		t.Fatalf("reuse_frac_ppm = %d (ok=%v)", frac, ok)
	}
	// Disjoint frontier: no new reuse.
	m.Observe([]int32{9, 10})
	if got := reg.CounterValue("sample.frontier.reuse_nodes"); got != 2 {
		t.Fatalf("disjoint frontier counted as reuse: %d", got)
	}
	var nilMeter *frontierMeter
	nilMeter.Observe([]int32{1})
	if newFrontierMeter(nil) != nil {
		t.Fatal("a meter without a registry was built")
	}
	m.Observe(nil)
}

// TestMeterDuplicatesAndEmpty pins the meter's counts on frontiers that
// repeat nodes or are empty to the values a set of the previous frontier
// gives: a repeated node counts once per occurrence, both as reused and
// in the total, and an empty frontier changes nothing.
func TestMeterDuplicatesAndEmpty(t *testing.T) {
	reg := obs.New(nil)
	m := newFrontierMeter(reg)
	for i, step := range []struct {
		nids                []int32
		reused, total, frac int64
	}{
		{[]int32{5, 3, 5, 7}, 0, 4, 0},
		{[]int32{3, 3, 9}, 2, 7, 285714},
		{nil, 2, 7, 285714},
		{[]int32{}, 2, 7, 285714},
		{[]int32{9, 5, 5, 5}, 3, 11, 272727},
		{[]int32{1}, 3, 12, 250000},
		{[]int32{1, 1}, 5, 14, 357142},
		{[]int32{1, 0, 1}, 7, 17, 411764},
	} {
		m.Observe(step.nids)
		r := reg.CounterValue("sample.frontier.reuse_nodes")
		n := reg.CounterValue("sample.frontier.total_nodes")
		frac, _ := reg.GaugeValue("sample.frontier.reuse_frac_ppm")
		if r != step.reused || n != step.total || frac != step.frac {
			t.Fatalf("step %d %v: reuse_nodes %d total_nodes %d reuse_frac_ppm %d, want %d %d %d",
				i, step.nids, r, n, frac, step.reused, step.total, step.frac)
		}
	}
}
