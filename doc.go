// Package betty is a from-scratch Go reproduction of "Betty: Enabling
// Large-Scale GNN Training with Batch-Level Graph Partitioning"
// (Yang, Zhang, Dong, Li — ASPLOS 2023).
//
// The library partitions a GNN training batch — a multi-level bipartite
// graph — into micro-batches whose accumulated gradients are exactly the
// full-batch gradient, while the peak device memory drops to that of the
// largest micro-batch. Its two core techniques are redundancy-embedded
// graph (REG) partitioning, which minimizes input nodes duplicated across
// micro-batches, and memory-aware re-partitioning, which picks the
// partition count from an analytical memory estimate instead of
// trial-and-error OOM.
//
// Entry points:
//
//   - internal/core: the Betty engine (planning + micro-batch training)
//   - internal/reg: REG construction and the batch partitioners
//   - internal/memory: the memory estimator and the planner
//   - internal/device: the byte ledger every resident tensor and cache
//     entry is charged to, and the one LRU the two caches share
//   - internal/bench: regenerators for every table and figure of the paper
//   - cmd/bettybench: CLI over internal/bench
//   - benchmark/: the repo benchmark (wall-clock and memory, BENCHMARK.json)
//   - examples/: runnable walkthroughs
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-vs-measured results.
package betty
