// Command bettybench regenerates the paper's tables and figures against
// the simulated device and synthetic datasets.
//
// Usage:
//
//	bettybench -list
//	bettybench -exp fig12 [-scale 0.5] [-epochs 10] [-csv] [-v]
//	bettybench -exp all
//	bettybench -multidev BENCH_multidev.json [-scale 0.2]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"betty/internal/bench"
	"betty/internal/knobs"
)

type benchConfig struct {
	exp      string
	list     bool
	scale    float64
	epochs   int
	csv      bool
	verbose  bool
	multidev string
	out      io.Writer
}

// errUsage is run's answer to a command line that names no work.
var errUsage = errors.New("-exp or -list required")

func main() {
	var cfg benchConfig
	flag.StringVar(&cfg.exp, "exp", "", "experiment id (fig2..fig16, tab2..tab7, abl-*) or 'all'")
	flag.BoolVar(&cfg.list, "list", false, "list available experiments")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiply each experiment's dataset scale (smoke runs: 0.2)")
	flag.IntVar(&cfg.epochs, "epochs", 0, "override training epoch counts")
	flag.BoolVar(&cfg.csv, "csv", false, "emit CSV instead of aligned tables")
	flag.BoolVar(&cfg.verbose, "v", false, "log progress to stderr")
	flag.StringVar(&cfg.multidev, "multidev", "", "write the split-parallel scaling sweep (devices x shard partitioner) to this JSON file")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bettybench:", err)
		if errors.Is(err, errUsage) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(cfg benchConfig) error {
	if cfg.out == nil {
		cfg.out = os.Stdout
	}
	if err := knobs.Check(os.Environ()); err != nil {
		return err
	}
	if cfg.multidev != "" {
		rep, err := bench.WriteMultiDevBench(cfg.multidev, cfg.scale)
		if err != nil {
			return fmt.Errorf("multidev bench: %v", err)
		}
		for _, c := range rep.Cells {
			fmt.Fprintf(cfg.out, "%-8s x%d  halo %8.2fMiB  peak %7.1fMiB\n",
				c.Partitioner, c.Devices, c.HaloMiB, c.MaxPeakMiB)
		}
		fmt.Fprintf(cfg.out, "REG boundary @ %d parts:", rep.Devices[len(rep.Devices)-1])
		for _, name := range []string{"range", "random", "metis", "betty"} {
			fmt.Fprintf(cfg.out, "  %s=%d", name, rep.RegBoundary[name])
		}
		fmt.Fprintln(cfg.out)
		return nil
	}

	if cfg.list {
		for _, id := range bench.IDs() {
			e, _ := bench.Get(id)
			fmt.Fprintf(cfg.out, "%-12s %s\n", id, e.Paper)
		}
		return nil
	}
	if cfg.exp == "" {
		return errUsage
	}

	ids := []string{cfg.exp}
	if cfg.exp == "all" {
		ids = bench.IDs()
	}
	var log io.Writer
	if cfg.verbose {
		log = os.Stderr
	}
	opts := bench.Options{Scale: cfg.scale, Epochs: cfg.epochs, Log: log}
	for _, id := range ids {
		e, err := bench.Get(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "# %s — %s\n\n", e.ID, e.Paper)
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %v", id, err)
		}
		for _, t := range tables {
			if cfg.csv {
				t.CSV(cfg.out)
				fmt.Fprintln(cfg.out)
			} else {
				t.Render(cfg.out)
			}
		}
	}
	return nil
}
