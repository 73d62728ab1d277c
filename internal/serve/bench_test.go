package serve

import (
	"testing"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/obs"
	"betty/internal/tensor"
)

// benchServer builds an unstarted server over a graph shaped like the
// serving workloads of benchmark/: 128-wide features, fanouts [10,25],
// default config.
func benchServer(b *testing.B) *Server {
	b.Helper()
	d, err := dataset.Generate(dataset.GenConfig{
		Name: "b", Nodes: 16384, AvgDegree: 12, FeatureDim: 128,
		NumClasses: 10, Homophily: 0.8, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	fanouts := []int{10, 25}
	setup, err := core.BuildSAGE(d, core.Options{Seed: 1, Hidden: 64, Fanouts: fanouts})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Defaults()
	cfg.Fanouts = fanouts
	cfg.Seed = 1
	cfg.Obs = obs.New(obs.RealClock()) // bettyserve always serves with a registry
	s, err := New(d, setup.Model, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// The feature gather of one micro-batch, into the tape arena as
// core.PlannedForward stages it: every gather stages 750 rows (one
// request's layer-0 frontier on the serving workloads) from an id stream
// that cycles through the whole graph, so no two consecutive gathers share
// a row.
func BenchmarkServeGather(b *testing.B) {
	s := benchServer(b)
	const rows = 750
	src := s.ds.FeatureSource()
	n := int32(s.ds.Graph.NumNodes())
	nids := make([]int32, rows)
	next := int32(0)
	tp := tensor.NewTape()
	defer tp.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range nids {
			nids[j] = next
			next = (next + 1) % n
		}
		if err := src.GatherInto(tp.Alloc(rows, src.Dim()), nids); err != nil {
			b.Fatal(err)
		}
		tp.Release() // as PlannedForward does after the forward
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// One client against an idle server: the Predict round trip with nothing
// to queue behind — enqueue, dispatch at once, sample, plan, gather,
// forward, respond.
func BenchmarkServeSoloLatency(b *testing.B) {
	s := benchServer(b)
	s.Start()
	defer s.Close()
	n := int32(s.ds.Graph.NumNodes())
	nodes := make([]int32, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range nodes {
			nodes[j] = (int32(i)*131 + int32(j)*977) % n
		}
		if _, err := s.Predict(nodes, -1); err != nil {
			b.Fatal(err)
		}
	}
}
