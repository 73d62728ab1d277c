package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"betty/internal/core"
	"betty/internal/obs"
	"betty/internal/parallel"
	"betty/internal/tensor"
)

// budgetSpy is a gateSource that, at every gather — while the gathering
// batch holds its reservation — records the least free budget it saw.
type budgetSpy struct {
	*gateSource
	s       *Server
	minFree atomic.Int64
}

func (b *budgetSpy) GatherInto(out *tensor.Tensor, nids []int32) error {
	b.s.budget.mu.Lock()
	free := b.s.budget.free
	b.s.budget.mu.Unlock()
	for cur := b.minFree.Load(); free < cur && !b.minFree.CompareAndSwap(cur, free); cur = b.minFree.Load() {
	}
	return b.gateSource.GatherInto(out, nids)
}

// logPlans returns each logged batch's K and planned peak, in log order.
func logPlans(t *testing.T, log []byte) [][2]int64 {
	t.Helper()
	var out [][2]int64
	for _, line := range bytes.Split(bytes.TrimSpace(log), []byte("\n")) {
		var rec struct {
			K    int64
			Peak int64 `json:"est_peak_bytes"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("batch log line %q: %v", line, err)
		}
		out = append(out, [2]int64{rec.K, rec.Peak})
	}
	return out
}

// Executors share one device budget. At a capacity where one batch's plan
// fits but two together do not, the second batch waits for the first to
// give its bytes back instead of failing or re-planning: it plans the K it
// plans alone. Reserved bytes never exceed CapacityBytes − params, and a
// panicking batch gives its reservation back.
func TestExecutorsShareTheBudget(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(2))
	d := testData(t)
	model := testModel(t, d)
	reqs := [][]int32{{3, 8, 120, 700}, {41, 5, 300, 9}}

	// Each request's forward peak when planned alone with room to spare.
	var probeLog bytes.Buffer
	probeCfg := testConfig(obs.NewFakeClock(0, 1), nil)
	probeCfg.BatchLog = &probeLog
	probe := newTestServer(t, d, model, probeCfg)
	probe.Start()
	for _, nodes := range reqs {
		if _, err := probe.Predict(nodes, 0); err != nil {
			t.Fatal(err)
		}
	}
	probe.Close()
	alone := logPlans(t, probeLog.Bytes())
	paramBytes := probe.cacheLedger.Capacity()
	capacity := max(alone[0][1], alone[1][1])
	room := capacity - paramBytes
	if alone[0][1]+alone[1][1]-2*paramBytes <= room {
		t.Fatalf("plans of %d and %d B fit %d B together; the test needs a capacity they overflow", alone[0][1], alone[1][1], capacity)
	}

	var log bytes.Buffer
	reg := obs.New(obs.NewFakeClock(0, 1))
	cfg := testConfig(obs.NewFakeClock(0, 1), reg)
	cfg.BatchLog = &log
	cfg.CapacityBytes = capacity
	soloCfg := cfg
	soloCfg.Obs, soloCfg.BatchLog = nil, nil
	want := [][][]float32{
		soloScores(t, d, model, soloCfg, reqs[0]),
		soloScores(t, d, model, soloCfg, reqs[1]),
	}
	gated := *d
	spy := &budgetSpy{gateSource: newGateSource(d.FeatureSource(), 1)}
	spy.minFree.Store(room)
	gated.Source = spy
	s := newTestServer(t, &gated, model, cfg)
	spy.s = s
	if s.Executors() != 2 {
		t.Fatalf("%d executors at 2 workers", s.Executors())
	}
	s.Start()
	first, err := s.enqueue(reqs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	<-spy.entered // the first batch holds its reservation in the gate
	second, err := s.enqueue(reqs[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	// The other executor takes the second batch, plans it and queues for
	// bytes behind the first.
	for deadline, waiting := time.Now().Add(10*time.Second), false; !waiting; {
		if time.Now().After(deadline) {
			t.Fatal("the second batch never queued for the budget")
		}
		s.budget.mu.Lock()
		waiting = s.budget.ticket == 2 && s.budget.turn == 1
		s.budget.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
	}
	select {
	case res := <-second.done:
		t.Fatalf("the second batch answered (err %v) while the first held the budget", res.err)
	default:
	}
	close(spy.release)
	for i, r := range []*request{first, second} {
		res := <-r.done
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		if !bitwiseEqual(res.scores, want[i]) {
			t.Fatalf("request %d: scores differ from solo inference", i)
		}
	}

	// More load through both executors, every batch under the budget.
	var wg sync.WaitGroup
	for c := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 {
				if _, err := s.Predict([]int32{int32(7*c + i), int32(100 + 11*i)}, 0); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	s.Close()
	plans := logPlans(t, log.Bytes())
	for i := range reqs {
		if plans[i][0] != alone[i][0] || plans[i][1] != alone[i][1] {
			t.Fatalf("request %d planned (K, peak) = %v beside another batch, %v alone", i, plans[i], alone[i])
		}
	}
	if got := spy.minFree.Load(); got < 0 {
		t.Fatalf("reservations overran the %d B room beside the parameters by %d B", room, -got)
	}
	if s.budget.free != room {
		t.Fatalf("%d B of %d B free after Close", s.budget.free, room)
	}
	if n := reg.HistogramWith("serve.budget_wait_ns", nil).Count(); n != int64(len(plans)) {
		t.Fatalf("budget wait observed %d times for %d batches", n, len(plans))
	}

	// A batch that panics after reserving gives its bytes back.
	bad := *d
	bad.Features = nil
	bad.Source = panicSource{dim: d.FeatureDim(), rows: int(d.Graph.NumNodes())}
	ps := newTestServer(t, &bad, model, cfg)
	ps.Start()
	if _, err := ps.Predict(reqs[0], 0); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicked batch returned %v, want a batch-panic error", err)
	}
	ps.Close()
	if ps.budget.free != room || ps.budget.ticket != ps.budget.turn {
		t.Fatalf("after a panicking batch: %d B of %d B free, tickets %d/%d", ps.budget.free, room, ps.budget.turn, ps.budget.ticket)
	}
}

// Every architecture served by 4 executors answers bitwise what it answers
// one request at a time, under concurrent clients with overlapping nodes.
func TestExecutorsServeEveryArchitectureExactly(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	d := testData(t)
	var reqs [][]int32
	for i := range int32(24) {
		reqs = append(reqs, []int32{(37 * i) % 800, (91*i + 5) % 800, 3})
	}
	for _, arch := range []struct{ model, agg string }{
		{"sage", "mean"}, {"sage", "pool"}, {"sage", "lstm"}, {"gcn", ""}, {"gat", ""},
	} {
		t.Run(arch.model+arch.agg, func(t *testing.T) {
			setup, err := core.Build(d, arch.model, arch.agg, core.Options{Seed: 50, Hidden: 16, Fanouts: []int{4, 6}})
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(nil, obs.New(nil))
			solo := newTestServer(t, d, setup.Model, cfg)
			solo.Start()
			want := make([][][]float32, len(reqs))
			for i, nodes := range reqs {
				if want[i], err = solo.Predict(nodes, 0); err != nil {
					t.Fatal(err)
				}
			}
			solo.Close()

			s := newTestServer(t, d, setup.Model, cfg)
			s.Start()
			defer s.Close()
			got := make([][][]float32, len(reqs))
			errs := make([]error, len(reqs))
			var wg sync.WaitGroup
			for c := range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := c; i < len(reqs); i += 8 {
						got[i], errs[i] = s.Predict(reqs[i], 0)
					}
				}()
			}
			wg.Wait()
			for i := range reqs {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if !bitwiseEqual(got[i], want[i]) {
					t.Fatalf("request %d %v: concurrent scores differ from solo", i, reqs[i])
				}
			}
		})
	}
}
