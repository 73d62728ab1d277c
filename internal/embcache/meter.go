package embcache

import (
	"sync"

	"betty/internal/obs"
)

// Meter measures cross-batch frontier overlap: what fraction of each
// batch's layer-1 destination frontier was also in the previous batch's
// frontier. This is the temporal-locality signal (Cooperative
// Minibatching, PAPERS.md) that justifies the historical-embedding cache,
// published whether or not the cache is on.
type Meter struct {
	reg *obs.Registry

	mu   sync.Mutex
	prev map[int32]struct{}
}

// NewMeter builds a frontier-overlap meter reporting to reg. With no
// registry there is nothing to report to: it returns nil, whose Observe
// does nothing.
func NewMeter(reg *obs.Registry) *Meter {
	if reg == nil {
		return nil
	}
	return &Meter{reg: reg, prev: make(map[int32]struct{})}
}

// Observe records one batch frontier, emitting the overlap with the
// previous frontier as sample.frontier.reuse_nodes / total_nodes
// counters and the running fraction as the reuse_frac_ppm gauge
// (parts-per-million, the repo's integer-gauge idiom for fractions).
func (m *Meter) Observe(nids []int32) {
	if m == nil || len(nids) == 0 {
		return
	}
	m.mu.Lock()
	reused := 0
	next := make(map[int32]struct{}, len(nids))
	for _, nid := range nids {
		if _, ok := m.prev[nid]; ok {
			reused++
		}
		next[nid] = struct{}{}
	}
	m.prev = next
	m.mu.Unlock()
	m.reg.Add("sample.frontier.reuse_nodes", int64(reused))
	m.reg.Add("sample.frontier.total_nodes", int64(len(nids)))
	if total := m.reg.CounterValue("sample.frontier.total_nodes"); total > 0 {
		r := m.reg.CounterValue("sample.frontier.reuse_nodes")
		m.reg.Set("sample.frontier.reuse_frac_ppm", r*1_000_000/total)
	}
}
