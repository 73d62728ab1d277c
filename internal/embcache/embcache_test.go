package embcache

import (
	"strings"
	"testing"

	"betty/internal/device"
	"betty/internal/obs"
	"betty/internal/tensor"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{
		{"", ModeOff}, {"exact", ModeExact}, {"off", ModeOff}, {"reuse", ModeReuse},
	} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseMode("fast"); err == nil || !strings.Contains(err.Error(), EnvMode) {
		t.Fatalf("malformed mode accepted or unnamed: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if c, err := New(Config{Mode: ModeOff}); c != nil || err != nil {
		t.Fatalf("off mode: %v, %v (want nil cache, nil error)", c, err)
	}
	if _, err := New(Config{Mode: ModeReuse, BudgetBytes: 1024, MaxLag: -1}); err == nil {
		t.Fatal("negative max lag accepted")
	}
	if _, err := New(Config{Mode: ModeExact}); err == nil {
		t.Fatal("zero budget accepted")
	}
	shared := device.New(device.MiB, device.CostModel{})
	if _, err := New(Config{Mode: ModeExact, Ledger: shared}); err == nil {
		t.Fatal("shared-ledger cache without a self-budget accepted")
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if c.Active() || c.Mode() != ModeOff || c.Version() != 0 || c.Dim() != 0 {
		t.Fatal("nil cache not inert")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatal("nil cache has stats")
	}
	c.BumpVersion()
	c.Invalidate()
	c.Flush()
	hit, hits := c.FetchInto([]int32{1, 2}, func(int) []float32 { return nil })
	if hits != 0 || len(hit) != 2 || hit[0] || hit[1] {
		t.Fatal("nil cache returned hits")
	}
	if err := c.Store([]int32{1}, tensor.New(1, 4)); err != nil {
		t.Fatal(err)
	}
	if c.ResidentBytes() != 0 || c.MaxObservedLag() != 0 {
		t.Fatal("nil cache holds state")
	}
}

// rows builds a tensor whose row i is vals[i].
func rows(t *testing.T, vals ...[]float32) *tensor.Tensor {
	t.Helper()
	m := tensor.New(len(vals), len(vals[0]))
	for i, v := range vals {
		copy(m.Row(i), v)
	}
	return m
}

// fetch runs FetchInto into a scratch tensor and returns the mask, hit
// count, and the scratch rows.
func fetch(c *Cache, nids []int32, dim int) ([]bool, int, *tensor.Tensor) {
	dst := tensor.New(len(nids), dim)
	hit, hits := c.FetchInto(nids, dst.Row)
	return hit, hits, dst
}

func TestReuseStalenessBound(t *testing.T) {
	reg := obs.New(nil)
	c, err := New(Config{Mode: ModeReuse, BudgetBytes: device.MiB, MaxLag: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store([]int32{7, 9}, rows(t, []float32{1, 2}, []float32{3, 4})); err != nil {
		t.Fatal(err)
	}

	// Lag 0 and lag 1 hit; the rows come back bit-for-bit.
	for lag := 0; lag <= 1; lag++ {
		hit, hits, dst := fetch(c, []int32{7, 9}, 2)
		if hits != 2 || !hit[0] || !hit[1] {
			t.Fatalf("lag %d: hits = %d, mask %v", lag, hits, hit)
		}
		if dst.Row(0)[0] != 1 || dst.Row(1)[1] != 4 {
			t.Fatalf("lag %d: wrong row data %v %v", lag, dst.Row(0), dst.Row(1))
		}
		c.BumpVersion()
	}
	if c.MaxObservedLag() != 1 {
		t.Fatalf("max observed lag = %d, want 1", c.MaxObservedLag())
	}

	// Lag 2 exceeds MaxLag: the entries miss and are dropped.
	if _, hits, _ := fetch(c, []int32{7, 9}, 2); hits != 0 {
		t.Fatalf("stale rows hit (%d)", hits)
	}
	if got := reg.CounterValue("embcache.stale_drops"); got != 2 {
		t.Fatalf("stale_drops = %d, want 2", got)
	}
	if c.ResidentBytes() != 0 {
		t.Fatalf("stale entries still resident: %d bytes", c.ResidentBytes())
	}
	if c.MaxObservedLag() > 1 {
		t.Fatalf("over-lag fetch counted as observed lag %d", c.MaxObservedLag())
	}
}

func TestExactModeNeverHits(t *testing.T) {
	reg := obs.New(nil)
	c, err := New(Config{Mode: ModeExact, BudgetBytes: device.MiB, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store([]int32{1}, rows(t, []float32{5})); err != nil {
		t.Fatal(err)
	}
	if _, hits, _ := fetch(c, []int32{1}, 1); hits != 0 {
		t.Fatal("exact mode returned a hit — compute must never be skipped")
	}
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("stats = %d/%d, want 0/1", h, m)
	}
}

func TestVerifyAndStore(t *testing.T) {
	reg := obs.New(nil)
	c, err := New(Config{Mode: ModeExact, BudgetBytes: device.MiB, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyAndStore([]int32{3}, rows(t, []float32{1, 2})); err != nil {
		t.Fatal(err)
	}
	// Same version, same bits: fine.
	if err := c.VerifyAndStore([]int32{3}, rows(t, []float32{1, 2})); err != nil {
		t.Fatal(err)
	}
	// Same version, different bits: the self-check must fire loudly.
	if err := c.VerifyAndStore([]int32{3}, rows(t, []float32{1, 2.5})); err == nil {
		t.Fatal("bitwise mismatch at the same version accepted")
	}
	if got := reg.CounterValue("embcache.verify_failures"); got != 1 {
		t.Fatalf("verify_failures = %d, want 1", got)
	}
	// After a version bump the weights legitimately changed: no verify,
	// the row is refreshed.
	c.BumpVersion()
	if err := c.VerifyAndStore([]int32{3}, rows(t, []float32{9, 9})); err != nil {
		t.Fatalf("cross-version refresh rejected: %v", err)
	}
}

func TestBudgetEvictionLRU(t *testing.T) {
	reg := obs.New(nil)
	// Two granularity-rounded rows fit the budget; the third evicts the
	// least recently used.
	c, err := New(Config{Mode: ModeReuse, BudgetBytes: 2 * device.AllocGranularity, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store([]int32{1}, rows(t, []float32{1, 1})); err != nil {
		t.Fatal(err)
	}
	if err := c.Store([]int32{2}, rows(t, []float32{2, 2})); err != nil {
		t.Fatal(err)
	}
	// Touch node 1 so node 2 is the LRU tail.
	if _, hits, _ := fetch(c, []int32{1}, 2); hits != 1 {
		t.Fatal("warm row missed")
	}
	if err := c.Store([]int32{3}, rows(t, []float32{3, 3})); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("embcache.evictions"); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	hit, hits, _ := fetch(c, []int32{1, 2, 3}, 2)
	if hits != 2 || !hit[0] || hit[1] || !hit[2] {
		t.Fatalf("LRU evicted the wrong row: mask %v", hit)
	}
	if c.ResidentBytes() > 2*device.AllocGranularity {
		t.Fatalf("resident %d exceeds budget", c.ResidentBytes())
	}
	if peak, ok := reg.GaugeValue("embcache.resident_peak_bytes"); !ok || peak > 2*device.AllocGranularity {
		t.Fatalf("published peak %d (ok=%v) exceeds budget", peak, ok)
	}
}

func TestRowLargerThanBudgetIsSkipped(t *testing.T) {
	reg := obs.New(nil)
	c, err := New(Config{Mode: ModeReuse, BudgetBytes: 100, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// 128 floats = 512 raw bytes > the 100-byte budget: never stored,
	// never partially charged.
	if err := c.Store([]int32{1}, tensor.New(1, 128)); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("embcache.budget_skips"); got != 1 {
		t.Fatalf("budget_skips = %d, want 1", got)
	}
	if c.ResidentBytes() != 0 {
		t.Fatalf("oversized row left %d resident bytes", c.ResidentBytes())
	}
}

func TestSharedLedgerPressureEvicts(t *testing.T) {
	reg := obs.New(nil)
	shared := device.New(3*device.AllocGranularity, device.CostModel{})
	// Another cache's resident charge occupies a third of the ledger.
	other, err := shared.Alloc(device.AllocGranularity, "other.cache")
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Free(other)
	c, err := New(Config{Mode: ModeReuse, BudgetBytes: device.MiB, Ledger: shared, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for nid := int32(1); nid <= 4; nid++ {
		if err := c.Store([]int32{nid}, rows(t, []float32{float32(nid)})); err != nil {
			t.Fatal(err)
		}
	}
	// The self-budget is ample; the shared ledger is what forced eviction
	// down to two resident rows.
	if got := reg.CounterValue("embcache.evictions"); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	if shared.Used() > shared.Capacity() || shared.Peak() > shared.Capacity() {
		t.Fatalf("ledger overcommitted: used %d peak %d cap %d", shared.Used(), shared.Peak(), shared.Capacity())
	}
	if _, hits, _ := fetch(c, []int32{3, 4}, 1); hits != 2 {
		t.Fatal("most-recent rows evicted instead of LRU tail")
	}
}

func TestFlushAndInvalidate(t *testing.T) {
	reg := obs.New(nil)
	c, err := New(Config{Mode: ModeReuse, BudgetBytes: device.MiB, MaxLag: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store([]int32{1, 2}, rows(t, []float32{1}, []float32{2})); err != nil {
		t.Fatal(err)
	}

	// Invalidate jumps the version past the whole lag window: every entry
	// misses on its next touch, with no eager sweep.
	c.Invalidate()
	if _, hits, _ := fetch(c, []int32{1, 2}, 1); hits != 0 {
		t.Fatal("invalidated rows still hit")
	}
	if got := reg.CounterValue("embcache.invalidations"); got != 1 {
		t.Fatalf("invalidations = %d", got)
	}

	if err := c.Store([]int32{5}, rows(t, []float32{5})); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if c.ResidentBytes() != 0 {
		t.Fatalf("flush left %d resident bytes", c.ResidentBytes())
	}
	if _, hits, _ := fetch(c, []int32{5}, 1); hits != 0 {
		t.Fatal("flushed row still hit")
	}
	if v, ok := reg.GaugeValue("embcache.resident_rows"); !ok || v != 0 {
		t.Fatalf("resident_rows gauge = %d after flush", v)
	}
}

func TestStoreShapeErrors(t *testing.T) {
	c, err := New(Config{Mode: ModeExact, BudgetBytes: device.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store([]int32{1, 2}, tensor.New(1, 4)); err == nil {
		t.Fatal("row/nid count mismatch accepted")
	}
	if err := c.Store([]int32{1}, tensor.New(1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Store([]int32{2}, tensor.New(1, 8)); err == nil {
		t.Fatal("row dim change accepted")
	}
}

func TestMeter(t *testing.T) {
	reg := obs.New(nil)
	m := NewMeter(reg)
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
	var nilMeter *Meter
	nilMeter.Observe([]int32{1})
	if NewMeter(nil) != nil {
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
	m := NewMeter(reg)
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

func TestVersionGauge(t *testing.T) {
	reg := obs.New(nil)
	c, err := New(Config{Mode: ModeReuse, BudgetBytes: device.MiB, MaxLag: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	c.BumpVersion()
	c.BumpVersion()
	if v, ok := reg.GaugeValue("embcache.version"); !ok || v != 2 {
		t.Fatalf("version gauge = %d (ok=%v), want 2", v, ok)
	}
	if c.Version() != 2 {
		t.Fatalf("Version() = %d", c.Version())
	}
	c.Invalidate()
	if c.Version() != 5 { // += maxLag+1
		t.Fatalf("post-invalidate version = %d, want 5", c.Version())
	}
}
