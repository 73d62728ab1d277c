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
//	BETTY_SERVE_CAPACITY_MIB=64 BETTY_SERVE_MAX_BATCH=128 bettyserve -dataset cora
//
//	curl -s localhost:8747/v1/predict -d '{"nodes":[3,8,120]}'
//	curl -s localhost:8747/metricsz
//
// Serving policy (batching, admission, cache, budget) is configured by the
// BETTY_SERVE_* environment variables — see the knob table in README.md.
// A malformed value fails at startup rather than silently serving under a
// different policy.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"betty/internal/checkpoint"
	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/knobs"
	"betty/internal/obs"
	"betty/internal/serve"
	"betty/internal/store"
)

// serveConfig carries every knob of one bettyserve invocation; main fills
// it from flags and the environment, tests construct it directly.
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
	lr      float32
	ckpt    string
	seed    uint64
	trace   bool

	// storePath serves out-of-core from a packed store (bettytrain -pack)
	// instead of loading the dataset into RAM; storeBudgetMiB bounds the
	// shard cache.
	storePath      string
	storeBudgetMiB int64

	// getenv resolves the BETTY_SERVE_* overrides (nil = os.Getenv).
	getenv func(string) string
	// ready, when non-nil, receives the bound listen address once the
	// server accepts connections (tests bind to port 0 and read it here).
	ready chan<- string
	// shutdown, when non-nil, triggers a graceful stop when closed: the
	// HTTP server stops accepting, the batcher drains, run returns nil.
	shutdown <-chan struct{}
	// out receives the human-readable log (default os.Stdout).
	out io.Writer
}

func main() {
	var cfg serveConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8747", "listen address")
	flag.StringVar(&cfg.dataset, "dataset", "ogbn-arxiv", "dataset: "+strings.Join(dataset.Names(), ", "))
	flag.Float64Var(&cfg.scale, "scale", 0.2, "dataset scale in (0,1]")
	flag.StringVar(&cfg.model, "model", "sage", "model: sage, gat, or gcn")
	flag.StringVar(&cfg.agg, "agg", "mean", "SAGE aggregator: mean, sum, pool, lstm")
	flag.IntVar(&cfg.hidden, "hidden", 64, "hidden width")
	flag.IntVar(&cfg.heads, "heads", 4, "GAT attention heads")
	flag.StringVar(&cfg.fanouts, "fanouts", "5,10", "per-layer fanouts, input-first (layers = count)")
	flag.IntVar(&cfg.epochs, "epochs", 1, "training epochs before serving (ignored with -checkpoint)")
	lr := flag.Float64("lr", 0.01, "Adam learning rate for the warm-up epochs")
	flag.StringVar(&cfg.ckpt, "checkpoint", "", "serve weights from this checkpoint instead of training")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed (weights, sampling, partitioning)")
	flag.BoolVar(&cfg.trace, "trace", false, "record per-phase spans in /metricsz")
	flag.StringVar(&cfg.storePath, "store", "", "serve out-of-core from this packed store (bettytrain -pack)")
	flag.Int64Var(&cfg.storeBudgetMiB, "store-budget", 256, "out-of-core shard-cache budget in MiB")
	flag.Parse()
	cfg.lr = float32(*lr)

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bettyserve:", err)
		os.Exit(1)
	}
}

func run(cfg serveConfig) error {
	if cfg.out == nil {
		cfg.out = os.Stdout
	}
	if cfg.getenv == nil {
		cfg.getenv = os.Getenv
	}
	if err := knobs.Check(os.Environ()); err != nil {
		return err
	}
	fanouts, err := core.ParseFanouts(cfg.fanouts)
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
		cache, err := store.NewCache(st, cfg.storeBudgetMiB*device.MiB, reg)
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

	scfg := serve.Defaults()
	scfg.Fanouts = fanouts
	scfg.Seed = cfg.seed
	scfg.Obs = reg
	if err := scfg.ApplyEnv(cfg.getenv); err != nil {
		return err
	}
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
	fmt.Fprintf(cfg.out, "serving %s/%s on http://%s (budget %d MiB, max batch %d, embcache %v)\n",
		ds.Name, cfg.model, ln.Addr(), scfg.CapacityBytes>>20, scfg.MaxBatch, scfg.EmbMode)
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

// buildModel assembles the architecture the flags describe (weights are
// replaced when -checkpoint is given).
func buildModel(ds *dataset.Dataset, cfg serveConfig, fanouts []int) (*core.Setup, error) {
	return core.Build(ds, cfg.model, cfg.agg, core.Options{
		Hidden:  cfg.hidden,
		Heads:   cfg.heads,
		Fanouts: fanouts,
		LR:      cfg.lr,
		Seed:    cfg.seed,
	})
}
