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
	"os"
	"strconv"
	"strings"

	"betty/internal/checkpoint"
	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/embcache"
	"betty/internal/knobs"
	"betty/internal/obs"
	"betty/internal/reg"
	"betty/internal/store"
)

// runConfig carries every knob of one bettytrain invocation; main fills it
// from flags, tests construct it directly.
type runConfig struct {
	dataset     string
	scale       float64
	model       string
	agg         string
	hidden      int
	heads       int
	fanouts     string
	epochs      int
	lr          float32
	capacityMiB int64
	k           int
	partitioner string
	devices     int
	seed        uint64

	// pack converts the (synthetic) dataset to the on-disk store format at
	// this path and exits; shard height comes from BETTY_STORE_SHARD_ROWS.
	pack string
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

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.dataset, "dataset", "ogbn-arxiv", "dataset: "+strings.Join(dataset.Names(), ", "))
	flag.Float64Var(&cfg.scale, "scale", 0.2, "dataset scale in (0,1]")
	flag.StringVar(&cfg.model, "model", "sage", "model: sage, gat, or gcn")
	flag.StringVar(&cfg.agg, "agg", "mean", "SAGE aggregator: mean, sum, pool, lstm")
	flag.IntVar(&cfg.hidden, "hidden", 64, "hidden width")
	flag.IntVar(&cfg.heads, "heads", 4, "GAT attention heads")
	flag.StringVar(&cfg.fanouts, "fanouts", "5,10", "per-layer fanouts, input-first (layers = count)")
	flag.IntVar(&cfg.epochs, "epochs", 10, "training epochs")
	lr := flag.Float64("lr", 0.01, "Adam learning rate")
	flag.Int64Var(&cfg.capacityMiB, "capacity", 0, "simulated device capacity in MiB (0 = unbounded)")
	flag.IntVar(&cfg.k, "k", 0, "fixed micro-batch count (0 = memory-aware planner)")
	flag.StringVar(&cfg.partitioner, "partitioner", "betty", "batch partitioner: betty, metis, random, range")
	flag.IntVar(&cfg.devices, "devices", 1, "number of simulated devices; above 1, every micro-batch is split across them (split-parallel)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	flag.StringVar(&cfg.metrics, "metrics", "", "write run metrics as NDJSON to this file (flushed on errors too)")
	flag.BoolVar(&cfg.trace, "trace", false, "record per-phase spans in the -metrics output")
	flag.StringVar(&cfg.ckpt, "checkpoint", "", "save the trained model to this file (also on errors)")
	flag.StringVar(&cfg.pack, "pack", "", "pack the dataset into an on-disk store at this path and exit")
	flag.StringVar(&cfg.storePath, "store", "", "train out-of-core from this packed store (see -pack)")
	flag.Int64Var(&cfg.storeBudgetMiB, "store-budget", 256, "out-of-core shard-cache budget in MiB")
	flag.StringVar(&cfg.macro, "macro", "", "persist macrobatch frontiers here and reuse them across epochs")
	flag.Parse()
	cfg.lr = float32(*lr)

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
		cache, err := store.NewCache(st, cfg.storeBudgetMiB*device.MiB, obsReg)
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
		LR:      cfg.lr,
		Seed:    cfg.seed,
		FixedK:  cfg.k,
	}
	if cfg.capacityMiB > 0 {
		opts.Device = device.New(cfg.capacityMiB*device.MiB, device.DefaultCostModel())
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
	// BETTY_EMBCACHE (DESIGN.md §16) is off unless set: no cache is built
	// and forwards take the plain path. exact audits the cache path bitwise
	// without changing a training float; reuse trades staleness for compute.
	mode, err := embcache.ParseMode(os.Getenv("BETTY_EMBCACHE"))
	if err != nil {
		return err
	}
	setup.Runner.Emb, err = embcache.New(embcache.Config{
		Mode:        mode,
		BudgetBytes: embcache.BudgetBytes,
		MaxLag:      embcache.MaxLag,
		Obs:         obsReg,
	})
	if err != nil {
		return err
	}
	if mode != embcache.ModeOff {
		fmt.Fprintf(cfg.out, "embedding cache: mode %v, budget %d MiB, max version lag %d\n",
			mode, embcache.BudgetBytes/device.MiB, embcache.MaxLag)
	}
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
		capBytes := int64(64) * device.GiB
		if cfg.capacityMiB > 0 {
			capBytes = cfg.capacityMiB * device.MiB
		}
		for i := range devs {
			devs[i] = device.New(capBytes, device.DefaultCostModel())
		}
		multi = &core.MultiDevice{Engine: setup.Engine, Devices: devs}
	}

	fmt.Fprintf(cfg.out, "%-6s %-4s %-9s %-9s %-11s %-12s %s\n",
		"epoch", "K", "loss", "train acc", "peak MiB", "epoch sim s", "redundancy")
	for e := 1; e <= cfg.epochs; e++ {
		// Split-parallel epochs simulate no time: their sim column is "-".
		var st core.EpochStats
		sim := "-"
		if multi != nil {
			mst, err := multi.TrainEpoch()
			if err != nil {
				return err
			}
			st = mst.EpochStats
		} else {
			st, err = setup.Engine.TrainEpochMicro()
			if err != nil {
				return err
			}
			sim = fmt.Sprintf("%.5f", st.ComputeSeconds+st.TransferSeconds)
		}
		fmt.Fprintf(cfg.out, "%-6d %-4d %-9.4f %-9.4f %-11.2f %-12s %d\n",
			e, st.K, st.Loss, st.TrainAcc, float64(st.PeakBytes)/(1<<20), sim, st.Redundancy)
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
// is the packed file's layout, so it rides the BETTY_STORE_SHARD_ROWS env
// knob rather than a flag — it must match nothing at train time, any
// reader adapts to the header.
func runPack(cfg runConfig) error {
	ds, err := dataset.LoadScaled(cfg.dataset, cfg.scale)
	if err != nil {
		return err
	}
	rows, err := store.ParseShardRows(os.Getenv("BETTY_STORE_SHARD_ROWS"))
	if err != nil {
		return err
	}
	if err := store.Pack(cfg.pack, ds, store.PackConfig{ShardRows: rows}); err != nil {
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
