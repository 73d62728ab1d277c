package main

import (
	"math"
	"math/rand"
)

// Everything random the benchmark feeds the program is drawn here, from
// -seed alone. The program receives the generated inputs — node lists and
// seed-node orders — and never the seed; its own seeds (weights, sampler,
// partitioner) stay at the CLIs' default so two -seed values exercise the
// same model on different inputs. math/rand's seeded generator is frozen by
// the Go 1 promise, so a trace is the same on every toolchain.

// Independent streams per input, so adding draws to one cannot shift another.
const (
	streamRequests = 0x72657175 // request node draws
	streamClients  = 0x636c6e74 // which client issues which request
	streamTrain    = 0x7472616e // order of the training seed nodes
)

func stream(seed uint64, tag uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 ^ tag)))
}

// requestTrace draws n requests of per node ids in [0, numNodes). With
// skew > 1 node idx = numNodes·u^skew for uniform u, so low ids are hot and
// the frontier recurs; otherwise nodes are uniform and the working set is
// the whole graph.
func requestTrace(seed uint64, n, per, numNodes int, skew float64) [][]int32 {
	r := stream(seed, streamRequests)
	flat := make([]int32, n*per)
	out := make([][]int32, n)
	for i := range out {
		nodes := flat[i*per : (i+1)*per : (i+1)*per]
		for j := range nodes {
			if skew > 1 {
				idx := int(float64(numNodes) * math.Pow(r.Float64(), skew))
				nodes[j] = int32(min(idx, numNodes-1))
			} else {
				nodes[j] = int32(r.Intn(numNodes))
			}
		}
		out[i] = nodes
	}
	return out
}

// clientSchedule deals request indices lo..hi-1 to the closed-loop clients:
// a seeded shuffle cut into equal contiguous shares, so the interleaving is
// an input and every client has the same amount of work (a client left
// running alone at the end would see unbatched, shorter latencies).
func clientSchedule(seed uint64, lo, hi, clients int) [][]int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	stream(seed, streamClients+uint64(lo)).Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	out := make([][]int, clients)
	for c := range out {
		out[c] = idx[c*len(idx)/clients : (c+1)*len(idx)/clients]
	}
	return out
}

// trainOrder returns the training seed nodes in a seeded order. The set is
// the dataset's own split; the order decides the sampler's per-call stream
// and the partitioner's input order, so each -seed is a different full
// batch over the same nodes.
func trainOrder(seed uint64, trainIdx []int32) []int32 {
	out := append([]int32(nil), trainIdx...)
	stream(seed, streamTrain).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
