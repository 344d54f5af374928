// Command ocht-bench regenerates the tables and figures of the paper's
// evaluation (Section V). Each experiment prints the same rows/series the
// paper reports, at a configurable laptop-friendly scale. Engine-layer and
// service measurements (storage, ingest, server, join probe, scan) live
// in the benchmark module under benchmark/, not here.
//
// Usage:
//
//	ocht-bench -exp fig4            # one experiment
//	ocht-bench -exp all -sf 0.05    # everything, larger TPC-H scale
//	ocht-bench -list                # list experiments
//	ocht-bench -exp scaling -json-out BENCH_scaling.json
package main

import (
	"flag"
	"fmt"
	"os"

	"ocht/internal/bench"
)

func main() {
	cfg := bench.DefaultConfig()
	exp := flag.String("exp", "all", "experiment to run (see -list)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Float64Var(&cfg.TPCHSF, "sf", cfg.TPCHSF, "TPC-H scale factor")
	flag.IntVar(&cfg.BIRows, "birows", cfg.BIRows, "BI workload rows")
	flag.IntVar(&cfg.Reps, "reps", cfg.Reps, "repetitions (fastest run reported)")
	flag.IntVar(&cfg.MaxCard, "maxcard", cfg.MaxCard, "Fig 8 maximum build cardinality")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "parallel workers for the scaling experiment")
	jsonOut := flag.String("json-out", "", "with -exp scaling: write the machine-readable scaling report to this file and exit")
	flag.Parse()

	if *list {
		for _, name := range bench.RunnerNames {
			fmt.Println(name)
		}
		return
	}
	if *jsonOut != "" {
		if *exp != "scaling" {
			fmt.Fprintln(os.Stderr, "-json-out needs -exp scaling")
			os.Exit(1)
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := bench.ScalingJSON(f, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
		return
	}
	if *exp == "all" {
		bench.All(os.Stdout, cfg)
		return
	}
	run, ok := bench.Runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(1)
	}
	run(os.Stdout, cfg)
}
