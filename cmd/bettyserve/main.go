// Command bettyserve exposes a trained GNN as an online prediction
// service: POST /v1/predict scores seed nodes, with concurrent requests
// dynamically batched, micro-batched under the device memory budget by
// the §4.4.3 planner, and answered bitwise-identically to single-request
// inference (DESIGN.md §11).
//
// Examples:
//
//	bettyserve -dataset ogbn-arxiv -scale 0.2 -epochs 3
//	bettyserve -dataset cora -checkpoint model.ckpt -addr 127.0.0.1:8747
//	bettyserve -dataset cora -capacity 64 -max-batch 128
//
//	curl -s localhost:8747/v1/predict -d '{"nodes":[3,8,120]}'
//	curl -s localhost:8747/metricsz
//
// Serving policy (batching, admission, deadlines, budget) is set by flags whose defaults are serve.Defaults(). A malformed value
// fails at startup rather than silently serving under a different policy.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"betty/internal/checkpoint"
	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/knobs"
	"betty/internal/obs"
	"betty/internal/serve"
	"betty/internal/store"
)

// serveConfig carries every setting of one bettyserve invocation; flags
// binds it to the command line.
type serveConfig struct {
	addr    string
	dataset string
	scale   float64
	model   string
	agg     string
	hidden  int
	heads   int
	fanouts string
	epochs  int
	lr      float64
	ckpt    string
	seed    uint64
	trace   bool

	// The serving policy; policy turns it into a serve.Config.
	maxBatch        int
	queueDepth      int
	timeout         time.Duration
	maxRequestNodes int
	capacityMiB     int64

	// storePath serves out-of-core from a packed store (bettytrain -pack)
	// instead of loading the dataset into RAM; storeBudgetMiB bounds the
	// shard cache.
	storePath      string
	storeBudgetMiB int64

	// ready, when non-nil, receives the bound listen address once the
	// server accepts connections (tests bind to port 0 and read it here).
	ready chan<- string
	// shutdown, when non-nil, triggers a graceful stop when closed: the
	// HTTP server stops accepting, the batcher drains, run returns nil.
	shutdown <-chan struct{}
	// out receives the human-readable log (default os.Stdout).
	out io.Writer
}

// flags binds every bettyserve flag to cfg, which then holds the defaults.
func flags(cfg *serveConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("bettyserve", flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8747", "listen address")
	fs.StringVar(&cfg.dataset, "dataset", "ogbn-arxiv", "dataset: "+strings.Join(dataset.Names(), ", "))
	fs.Float64Var(&cfg.scale, "scale", 0.2, "dataset scale in (0,1]")
	fs.StringVar(&cfg.model, "model", "sage", "model: sage, gat, or gcn")
	fs.StringVar(&cfg.agg, "agg", "mean", "SAGE aggregator: mean, sum, pool, lstm")
	fs.IntVar(&cfg.hidden, "hidden", 64, "hidden width")
	fs.IntVar(&cfg.heads, "heads", 4, "GAT attention heads")
	fs.StringVar(&cfg.fanouts, "fanouts", "5,10", "per-layer fanouts, input-first (layers = count)")
	fs.IntVar(&cfg.epochs, "epochs", 1, "training epochs before serving (ignored with -checkpoint)")
	fs.Float64Var(&cfg.lr, "lr", 0.01, "Adam learning rate for the warm-up epochs")
	fs.StringVar(&cfg.ckpt, "checkpoint", "", "serve weights from this checkpoint instead of training")
	fs.Uint64Var(&cfg.seed, "seed", 1, "random seed (weights, sampling, partitioning)")
	fs.BoolVar(&cfg.trace, "trace", false, "record per-phase spans in /metricsz")
	fs.StringVar(&cfg.storePath, "store", "", "serve out-of-core from this packed store (bettytrain -pack)")
	fs.Int64Var(&cfg.storeBudgetMiB, "store-budget", 256, "out-of-core shard-cache budget in MiB")
	d := serve.Defaults()
	fs.IntVar(&cfg.maxBatch, "max-batch", d.MaxBatch, "batcher coalescing target in seed nodes")
	fs.IntVar(&cfg.queueDepth, "queue-depth", d.QueueDepth, "admission bound: queued requests beyond it get 429")
	fs.DurationVar(&cfg.timeout, "timeout", d.DefaultTimeout, "deadline of a request that sets none (0 = none)")
	fs.IntVar(&cfg.maxRequestNodes, "max-request-nodes", d.MaxRequestNodes, "seed nodes allowed in one request")
	fs.Int64Var(&cfg.capacityMiB, "capacity", d.CapacityBytes>>20, "device budget the planner enforces per micro-batch, in MiB")
	return fs
}

func main() {
	var cfg serveConfig
	flags(&cfg).Parse(os.Args[1:])
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bettyserve:", err)
		os.Exit(1)
	}
}

func run(cfg serveConfig) error {
	if cfg.out == nil {
		cfg.out = os.Stdout
	}
	if err := knobs.Check(os.Environ()); err != nil {
		return err
	}
	switch {
	case cfg.epochs < 0:
		return fmt.Errorf("-epochs %d: want 0 (serve the initial weights) or more", cfg.epochs)
	case !(cfg.lr > 0) || math.IsInf(cfg.lr, 1):
		return fmt.Errorf("-lr %v: want a positive, finite learning rate", cfg.lr)
	}
	fanouts, err := core.ParseFanouts(cfg.fanouts)
	if err != nil {
		return err
	}
	scfg, err := cfg.policy(fanouts)
	if err != nil {
		return err
	}
	storeBudget, err := knobs.MiBBytes("store-budget", cfg.storeBudgetMiB)
	if err != nil {
		return err
	}
	reg := obs.New(obs.RealClock())
	reg.SetTracing(cfg.trace)

	var ds *dataset.Dataset
	if cfg.storePath != "" {
		st, err := store.Open(cfg.storePath)
		if err != nil {
			return err
		}
		defer st.Close()
		cache, err := store.NewCache(st, storeBudget, reg)
		if err != nil {
			return err
		}
		if ds, err = st.Dataset(cache); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "store %s: %d feature shards, cache budget %d MiB\n",
			cfg.storePath, st.NumShards(), cfg.storeBudgetMiB)
	} else if ds, err = dataset.LoadScaled(cfg.dataset, cfg.scale); err != nil {
		return err
	}
	setup, err := buildModel(ds, cfg, fanouts)
	if err != nil {
		return err
	}
	if cfg.ckpt != "" {
		meta, err := checkpoint.LoadFile(cfg.ckpt, setup.Model)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "loaded checkpoint %s (%v)\n", cfg.ckpt, meta)
	} else {
		for e := 0; e < cfg.epochs; e++ {
			st, err := setup.Engine.TrainEpochMicro()
			if err != nil {
				return fmt.Errorf("warm-up epoch %d: %w", e+1, err)
			}
			fmt.Fprintf(cfg.out, "warm-up epoch %d: loss %.4f\n", e+1, st.Loss)
		}
	}

	scfg.Obs = reg
	srv, err := serve.New(ds, setup.Model, scfg)
	if err != nil {
		return err
	}
	srv.Start()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(cfg.out, "serving %s/%s on http://%s (budget %d MiB, max batch %d, %d executors)\n",
		ds.Name, cfg.model, ln.Addr(), scfg.CapacityBytes>>20, scfg.MaxBatch, srv.Executors())
	if cfg.ready != nil {
		cfg.ready <- ln.Addr().String()
	}
	hs := &http.Server{Handler: srv.Handler()}
	if cfg.shutdown != nil {
		go func() {
			<-cfg.shutdown
			// Graceful: stop accepting, wait for in-flight handlers, then
			// (below) drain the batcher.
			hs.Shutdown(context.Background())
		}()
	}
	err = hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if cerr := srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// policy is the serve.Config the flags describe, checked by
// serve.Config.Validate before any dataset is loaded.
func (cfg serveConfig) policy(fanouts []int) (serve.Config, error) {
	capacity, err := knobs.MiBBytes("capacity", cfg.capacityMiB)
	if err != nil {
		return serve.Config{}, err
	}
	scfg := serve.Defaults()
	scfg.Fanouts = fanouts
	scfg.Seed = cfg.seed
	scfg.MaxBatch = cfg.maxBatch
	scfg.QueueDepth = cfg.queueDepth
	scfg.DefaultTimeout = cfg.timeout
	scfg.MaxRequestNodes = cfg.maxRequestNodes
	scfg.CapacityBytes = capacity
	return scfg, scfg.Validate()
}

// buildModel assembles the architecture the flags describe (weights are
// replaced when -checkpoint is given).
func buildModel(ds *dataset.Dataset, cfg serveConfig, fanouts []int) (*core.Setup, error) {
	return core.Build(ds, cfg.model, cfg.agg, core.Options{
		Hidden:  cfg.hidden,
		Heads:   cfg.heads,
		Fanouts: fanouts,
		LR:      float32(cfg.lr),
		Seed:    cfg.seed,
	})
}
