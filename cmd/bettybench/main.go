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
	"flag"
	"fmt"
	"io"
	"os"

	"betty/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig2..fig16, tab2..tab7, abl-*) or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		scale   = flag.Float64("scale", 1, "multiply each experiment's dataset scale (smoke runs: 0.2)")
		epochs  = flag.Int("epochs", 0, "override training epoch counts")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		verbose = flag.Bool("v", false, "log progress to stderr")
		mdev    = flag.String("multidev", "", "write the split-parallel scaling sweep (devices x shard partitioner) to this JSON file")
	)
	flag.Parse()

	if *mdev != "" {
		rep, err := bench.WriteMultiDevBench(*mdev, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bettybench: multidev bench: %v\n", err)
			os.Exit(1)
		}
		for _, c := range rep.Cells {
			fmt.Printf("%-8s x%d  halo %8.2fMiB  peak %7.1fMiB\n",
				c.Partitioner, c.Devices, c.HaloMiB, c.MaxPeakMiB)
		}
		fmt.Printf("REG boundary @ %d parts:", rep.Devices[len(rep.Devices)-1])
		for _, name := range []string{"range", "random", "metis", "betty"} {
			fmt.Printf("  %s=%d", name, rep.RegBoundary[name])
		}
		fmt.Println()
		return
	}

	if *list {
		for _, id := range bench.IDs() {
			e, _ := bench.Get(id)
			fmt.Printf("%-12s %s\n", id, e.Paper)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "bettybench: -exp or -list required")
		flag.Usage()
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.IDs()
	}
	var log io.Writer
	if *verbose {
		log = os.Stderr
	}
	opts := bench.Options{Scale: *scale, Epochs: *epochs, Log: log}
	for _, id := range ids {
		e, err := bench.Get(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("# %s — %s\n\n", e.ID, e.Paper)
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bettybench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *csv {
				t.CSV(os.Stdout)
				fmt.Println()
			} else {
				t.Render(os.Stdout)
			}
		}
	}
}
