package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"betty/internal/rng"
)

// loadConfig parameterizes the open-loop load generator: requests are
// issued at seeded exponential inter-arrival gaps regardless of how fast
// the server answers (open-loop, so queueing delay is observed rather
// than hidden by back-to-back closed-loop issuance).
type loadConfig struct {
	// Requests is the total number of requests to issue.
	Requests int
	// NodesPerRequest is the seed-node count of each request.
	NodesPerRequest int
	// MeanGap is the mean inter-arrival gap (0 = issue back to back).
	MeanGap time.Duration
	// Timeout is the per-request deadline passed to Predict (negative =
	// server default, 0 = none).
	Timeout time.Duration
	// Seed drives node selection and the arrival process.
	Seed uint64
	// Skew shapes the node popularity distribution. <= 1 keeps the
	// uniform draw; above 1, node i is drawn with probability density
	// proportional to a power law (idx = n * u^Skew for uniform u), so a
	// small set of hot nodes dominates the trace — the temporal-locality
	// shape real serving traffic has, and what the historical-embedding
	// cache's hit rate is measured against.
	Skew float64
}

// loadReport summarizes one load run.
type loadReport struct {
	Requests int   `json:"requests"`
	Errors   int   `json:"errors"`
	DurNS    int64 `json:"dur_ns"`
	// ThroughputRPS counts successful responses per wall-clock second.
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency percentiles over successful requests, in nanoseconds.
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}

// runLoad drives s with the configured open-loop arrival trace and blocks
// until every response (or error) has arrived. The server must be
// Started. Node choices and arrival gaps are pure functions of cfg.Seed;
// wall-clock timing of course is not.
func runLoad(s *Server, cfg loadConfig) (*loadReport, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("serve: load run needs a positive request count")
	}
	if cfg.NodesPerRequest <= 0 {
		cfg.NodesPerRequest = 1
	}
	r := rng.New(cfg.Seed)
	n := int(s.ds.Graph.NumNodes())

	// Pre-draw the whole trace so issuance does no RNG work.
	traces := make([][]int32, cfg.Requests)
	gaps := make([]time.Duration, cfg.Requests)
	for i := range traces {
		nodes := make([]int32, cfg.NodesPerRequest)
		for j := range nodes {
			if cfg.Skew > 1 {
				idx := int(float64(n) * math.Pow(r.Float64(), cfg.Skew))
				if idx >= n {
					idx = n - 1
				}
				nodes[j] = int32(idx)
			} else {
				nodes[j] = int32(r.Intn(n))
			}
		}
		traces[i] = nodes
		if cfg.MeanGap > 0 {
			gaps[i] = time.Duration(-float64(cfg.MeanGap) * math.Log(1-r.Float64()))
		}
	}

	lats := make([]int64, cfg.Requests)
	errs := make([]error, cfg.Requests)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		if gaps[i] > 0 {
			time.Sleep(gaps[i])
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			_, err := s.Predict(traces[i], cfg.Timeout)
			lats[i] = time.Since(t0).Nanoseconds()
			errs[i] = err
		}(i)
	}
	wg.Wait()
	dur := time.Since(start)

	rep := &loadReport{Requests: cfg.Requests, DurNS: dur.Nanoseconds()}
	var ok []int64
	for i, err := range errs {
		if err != nil {
			rep.Errors++
			continue
		}
		ok = append(ok, lats[i])
	}
	if len(ok) > 0 && dur > 0 {
		rep.ThroughputRPS = float64(len(ok)) / dur.Seconds()
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	rep.P50NS = percentile(ok, 0.50)
	rep.P90NS = percentile(ok, 0.90)
	rep.P99NS = percentile(ok, 0.99)
	if len(ok) > 0 {
		rep.MaxNS = ok[len(ok)-1]
	}
	return rep, nil
}

// percentile returns the q-quantile of sorted (nearest-rank); 0 on empty.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
