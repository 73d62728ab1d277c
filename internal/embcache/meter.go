package embcache

import (
	"slices"
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

	mu sync.Mutex
	// prev is the previous frontier, sorted and deduplicated; next is the
	// buffer the following frontier is sorted into before the two swap.
	prev, next []int32
}

// NewMeter builds a frontier-overlap meter reporting to reg. With no
// registry there is nothing to report to: it returns nil, whose Observe
// does nothing.
func NewMeter(reg *obs.Registry) *Meter {
	if reg == nil {
		return nil
	}
	return &Meter{reg: reg}
}

// Observe records one batch frontier, emitting the overlap with the
// previous frontier as sample.frontier.reuse_nodes / total_nodes
// counters and the running fraction as the reuse_frac_ppm gauge
// (parts-per-million, the repo's integer-gauge idiom for fractions).
// Every element of nids counts once per occurrence; an empty frontier is
// not recorded and leaves the previous one in place.
func (m *Meter) Observe(nids []int32) {
	if m == nil || len(nids) == 0 {
		return
	}
	m.mu.Lock()
	cur := append(m.next[:0], nids...)
	slices.Sort(cur)
	reused, j := 0, 0
	for _, nid := range cur {
		for j < len(m.prev) && m.prev[j] < nid {
			j++
		}
		if j < len(m.prev) && m.prev[j] == nid {
			reused++
		}
	}
	m.prev, m.next = slices.Compact(cur), m.prev
	m.mu.Unlock()
	m.reg.Add("sample.frontier.reuse_nodes", int64(reused))
	m.reg.Add("sample.frontier.total_nodes", int64(len(nids)))
	if total := m.reg.CounterValue("sample.frontier.total_nodes"); total > 0 {
		r := m.reg.CounterValue("sample.frontier.reuse_nodes")
		m.reg.Set("sample.frontier.reuse_frac_ppm", r*1_000_000/total)
	}
}
