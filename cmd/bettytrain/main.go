// Command bettytrain trains a GNN with Betty micro-batch partitioning on a
// synthetic dataset under a simulated device capacity — the end-to-end
// training tool over the library's public surface.
//
// Examples:
//
//	bettytrain -dataset ogbn-arxiv -scale 0.2 -epochs 10
//	bettytrain -dataset ogbn-products -scale 0.2 -agg lstm -capacity 96 -epochs 5
//	bettytrain -dataset reddit -scale 0.1 -model gat -heads 2 -epochs 10
//	bettytrain -dataset cora -partitioner random -k 8 -epochs 20
//	bettytrain -dataset ogbn-arxiv -scale 0.2 -devices 4 -epochs 5
//	bettytrain -dataset cora -epochs 5 -metrics run.ndjson -trace
//	bettytrain -dataset pubmed -pack pubmed.store -shard-rows 512
//
// With -metrics the run's counters, gauges, and per-phase histograms are
// written as NDJSON (see DESIGN.md §10); -trace additionally records one
// span per pipeline phase of every micro-batch. Both the metrics file and
// the -checkpoint file are flushed on error paths too, so a failed run
// still leaves a readable record of everything up to the failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"betty/internal/checkpoint"
	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/knobs"
	"betty/internal/obs"
	"betty/internal/reg"
	"betty/internal/store"
)

// runConfig carries every setting of one bettytrain invocation; flags
// binds it to the command line.
type runConfig struct {
	dataset     string
	scale       float64
	model       string
	agg         string
	hidden      int
	heads       int
	fanouts     string
	epochs      int
	lr          float64
	capacityMiB int64
	k           int
	partitioner string
	devices     int
	seed        uint64

	// pack converts the (synthetic) dataset to the on-disk store format at
	// this path and exits, in feature shards of shardRows rows.
	pack      string
	shardRows int
	// storePath trains out-of-core from a packed store instead of loading
	// the dataset into RAM; features stream through a budget-pinned cache.
	storePath string
	// storeBudgetMiB bounds the shard cache.
	storeBudgetMiB int64
	// macro persists sampled macrobatch frontiers at this path and reuses
	// them across epochs instead of resampling.
	macro string

	// metrics is the NDJSON output path ("" = no metrics file).
	metrics string
	// trace additionally records one span per pipeline phase in the
	// metrics output.
	trace bool
	// ckpt is the model checkpoint path ("" = no checkpoint).
	ckpt string

	// hook, when non-nil, runs after every completed epoch; an error
	// aborts training. Tests use it to exercise the flush-on-error path.
	hook func(epoch int) error
	// out receives the human-readable log (default os.Stdout).
	out io.Writer
}

// flags binds every bettytrain flag to cfg, which then holds the defaults.
func flags(cfg *runConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("bettytrain", flag.ExitOnError)
	fs.StringVar(&cfg.dataset, "dataset", "ogbn-arxiv", "dataset: "+strings.Join(dataset.Names(), ", "))
	fs.Float64Var(&cfg.scale, "scale", 0.2, "dataset scale in (0,1]")
	fs.StringVar(&cfg.model, "model", "sage", "model: sage, gat, or gcn")
	fs.StringVar(&cfg.agg, "agg", "mean", "SAGE aggregator: mean, sum, pool, lstm")
	fs.IntVar(&cfg.hidden, "hidden", 64, "hidden width")
	fs.IntVar(&cfg.heads, "heads", 4, "GAT attention heads")
	fs.StringVar(&cfg.fanouts, "fanouts", "5,10", "per-layer fanouts, input-first (layers = count)")
	fs.IntVar(&cfg.epochs, "epochs", 10, "training epochs")
	fs.Float64Var(&cfg.lr, "lr", 0.01, "Adam learning rate")
	fs.Int64Var(&cfg.capacityMiB, "capacity", 0, "simulated device capacity in MiB (0 = unbounded)")
	fs.IntVar(&cfg.k, "k", 0, "fixed micro-batch count (0 = memory-aware planner)")
	fs.StringVar(&cfg.partitioner, "partitioner", "betty", "batch partitioner: betty, metis, random, range")
	fs.IntVar(&cfg.devices, "devices", 1, "number of simulated devices; above 1, every micro-batch is split across them (split-parallel)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	fs.StringVar(&cfg.metrics, "metrics", "", "write run metrics as NDJSON to this file (flushed on errors too)")
	fs.BoolVar(&cfg.trace, "trace", false, "record per-phase spans in the -metrics output")
	fs.StringVar(&cfg.ckpt, "checkpoint", "", "save the trained model to this file (also on errors)")
	fs.StringVar(&cfg.pack, "pack", "", "pack the dataset into an on-disk store at this path and exit")
	fs.IntVar(&cfg.shardRows, "shard-rows", store.DefaultShardRows, "feature-shard height in rows for -pack")
	fs.StringVar(&cfg.storePath, "store", "", "train out-of-core from this packed store (see -pack)")
	fs.Int64Var(&cfg.storeBudgetMiB, "store-budget", 256, "out-of-core shard-cache budget in MiB")
	fs.StringVar(&cfg.macro, "macro", "", "persist macrobatch frontiers here and reuse them across epochs")
	return fs
}

func main() {
	var cfg runConfig
	flags(&cfg).Parse(os.Args[1:])
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bettytrain:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) (err error) {
	if cfg.out == nil {
		cfg.out = os.Stdout
	}
	if err := knobs.Check(os.Environ()); err != nil {
		return err
	}
	fanouts, err := core.ParseFanouts(cfg.fanouts)
	if err != nil {
		return err
	}
	switch {
	case cfg.epochs < 1:
		return fmt.Errorf("-epochs %d: want at least 1", cfg.epochs)
	case !(cfg.lr > 0) || math.IsInf(cfg.lr, 1):
		return fmt.Errorf("-lr %v: want a positive, finite learning rate", cfg.lr)
	case cfg.k < 0:
		return fmt.Errorf("-k %d: want 0 (memory-aware planner) or a positive micro-batch count", cfg.k)
	case cfg.devices < 1:
		return fmt.Errorf("-devices %d: want at least 1", cfg.devices)
	case cfg.shardRows < 1:
		return fmt.Errorf("-shard-rows %d: want a positive row count", cfg.shardRows)
	}
	storeBudget, err := knobs.MiBBytes("store-budget", cfg.storeBudgetMiB)
	if err != nil {
		return err
	}
	var capBytes int64 // 0: unbounded
	if cfg.capacityMiB != 0 {
		if capBytes, err = knobs.MiBBytes("capacity", cfg.capacityMiB); err != nil {
			return err
		}
	}
	if cfg.pack != "" {
		return runPack(cfg)
	}

	// The registry exists for the whole run and is flushed by a deferred
	// write, so a mid-epoch failure (OOM, injected error) still leaves a
	// readable NDJSON record of every phase executed before it.
	var obsReg *obs.Registry
	if cfg.metrics != "" || cfg.trace {
		obsReg = obs.New(obs.RealClock())
		obsReg.SetTracing(cfg.trace)
	}
	if cfg.metrics != "" {
		defer func() {
			if werr := obsReg.WriteFile(cfg.metrics); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	var ds *dataset.Dataset
	if cfg.storePath != "" {
		st, err := store.Open(cfg.storePath)
		if err != nil {
			return err
		}
		defer st.Close()
		cache, err := store.NewCache(st, storeBudget, obsReg)
		if err != nil {
			return err
		}
		if ds, err = st.Dataset(cache); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "store %s: %d feature shards, %.1f MiB on disk, cache budget %d MiB\n",
			cfg.storePath, st.NumShards(), float64(st.FeatureBytes())/(1<<20), cfg.storeBudgetMiB)
	} else if ds, err = dataset.LoadScaled(cfg.dataset, cfg.scale); err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "dataset %s: %d nodes, %d edges, %d classes, %d train nodes\n",
		ds.Name, ds.Graph.NumNodes(), ds.Graph.NumEdges(), ds.NumClasses, len(ds.TrainIdx))

	opts := core.Options{
		Hidden:  cfg.hidden,
		Heads:   cfg.heads,
		Fanouts: fanouts,
		LR:      float32(cfg.lr),
		Seed:    cfg.seed,
		FixedK:  cfg.k,
	}
	if capBytes > 0 {
		opts.Device = device.New(capBytes, device.DefaultCostModel())
	}
	switch cfg.partitioner {
	case "betty":
	case "metis":
		opts.Partitioner = reg.MetisBatch{Seed: cfg.seed}
	case "random":
		opts.Partitioner = reg.RandomBatch{Seed: cfg.seed}
	case "range":
		opts.Partitioner = reg.RangeBatch{}
	default:
		return fmt.Errorf("unknown partitioner %q", cfg.partitioner)
	}

	setup, err := core.Build(ds, cfg.model, cfg.agg, opts)
	if err != nil {
		return err
	}
	setup.Engine.SetObs(obsReg)
	if cfg.macro != "" {
		setup.Engine.Frontiers = store.NewMacroCache(cfg.macro, setup.Engine.Sampler.ConfigKey(), obsReg)
	}

	// Like the metrics flush, the checkpoint is written by a deferred save:
	// a failed run keeps the weights of its completed epochs.
	completed := 0
	if cfg.ckpt != "" {
		defer func() {
			meta := map[string]string{
				"model":            cfg.model,
				"dataset":          ds.Name,
				"completed_epochs": strconv.Itoa(completed),
			}
			if serr := checkpoint.SaveFile(cfg.ckpt, setup.Model, meta); serr != nil && err == nil {
				err = serr
			}
		}()
	}

	var multi *core.MultiDevice
	if cfg.devices > 1 {
		devs := make([]*device.Device, cfg.devices)
		devCap := capBytes
		if devCap == 0 {
			devCap = 64 * device.GiB
		}
		for i := range devs {
			devs[i] = device.New(devCap, device.DefaultCostModel())
		}
		multi = &core.MultiDevice{Engine: setup.Engine, Devices: devs}
	}

	fmt.Fprintf(cfg.out, "%-6s %-4s %-9s %-9s %-11s %-9s %s\n",
		"epoch", "K", "loss", "train acc", "peak MiB", "epoch ms", "redundancy")
	for e := 1; e <= cfg.epochs; e++ {
		// epoch ms is measured wall-clock time, the one column that differs
		// between two identical runs.
		start := time.Now()
		var st core.EpochStats
		if multi != nil {
			mst, err := multi.TrainEpoch()
			if err != nil {
				return err
			}
			st = mst.EpochStats
		} else if st, err = setup.Engine.TrainEpochMicro(); err != nil {
			return err
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		fmt.Fprintf(cfg.out, "%-6d %-4d %-9.4f %-9.4f %-11.2f %-9.2f %d\n",
			e, st.K, st.Loss, st.TrainAcc, float64(st.PeakBytes)/(1<<20), ms, st.Redundancy)
		completed = e
		if cfg.hook != nil {
			if herr := cfg.hook(e); herr != nil {
				return fmt.Errorf("epoch %d: %w", e, herr)
			}
		}
	}

	val, err := setup.Engine.ValAccuracy()
	if err != nil {
		return err
	}
	test, err := setup.Engine.TestAccuracy()
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "\nvalidation accuracy %.4f, test accuracy %.4f\n", val, test)
	return nil
}

// runPack converts the flag-selected dataset into the on-disk store format
// and exits: frontiers of the training loop never see it. The shard height
// is the packed file's layout and must match nothing at train time; any
// reader adapts to the header.
func runPack(cfg runConfig) error {
	ds, err := dataset.LoadScaled(cfg.dataset, cfg.scale)
	if err != nil {
		return err
	}
	if err := store.Pack(cfg.pack, ds, store.PackConfig{ShardRows: cfg.shardRows}); err != nil {
		return err
	}
	st, err := store.Open(cfg.pack)
	if err != nil {
		return fmt.Errorf("verifying packed store: %w", err)
	}
	defer st.Close()
	fmt.Fprintf(cfg.out, "packed %s: %d nodes, %d shards of %d rows, %.1f MiB features\n",
		cfg.pack, st.NumNodes(), st.NumShards(), st.ShardRows(), float64(st.FeatureBytes())/(1<<20))
	return nil
}
