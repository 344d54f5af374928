// Command ocht-tpch generates a TPC-H database and runs its 22 queries
// under a selectable engine configuration, printing results, runtimes and
// hash-table footprints.
//
// Usage:
//
//	ocht-tpch -sf 0.01 -q 1                 # one query, optimized engine
//	ocht-tpch -sf 0.01 -q 3 -flags vanilla  # baseline
//	ocht-tpch -sf 0.05                      # the whole power run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/storage"
	"ocht/internal/tpch"
)

func parseFlags(s string) (core.Flags, error) {
	switch s {
	case "vanilla":
		return core.Vanilla(), nil
	case "ussr":
		return core.Flags{UseUSSR: true}, nil
	case "cht":
		return core.Flags{Compress: true}, nil
	case "cht+split":
		return core.Flags{Compress: true, Split: true}, nil
	case "all":
		return core.All(), nil
	}
	return core.Flags{}, fmt.Errorf("unknown -flags %q (vanilla|ussr|cht|cht+split|all)", s)
}

func main() {
	sf := flag.Float64("sf", 0.01, "scale factor")
	qn := flag.Int("q", 0, "query number (0 = power run)")
	flagsName := flag.String("flags", "all", "engine configuration")
	show := flag.Bool("show", false, "print query results")
	seed := flag.Int64("seed", 42, "generator seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers (1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none); timed-out queries report CANCELED")
	sealCompress := flag.String("seal-compress", "auto", "string-block seal compression: on | off | auto (keep only when smaller)")
	flag.Parse()

	flags, err := parseFlags(*flagsName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mode, err := storage.ParseCompressMode(*sealCompress)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	storage.SetSealCompression(mode)
	fmt.Printf("generating TPC-H SF %g (seed %d)...\n", *sf, *seed)
	cat := tpch.Gen(*sf, *seed)

	run := func(q int) {
		qc := exec.NewQCtx(flags)
		qc.Workers = *workers
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		start := time.Now()
		res, err := tpch.QContext(ctx, q, cat, qc)
		el := time.Since(start)
		if err != nil {
			fmt.Printf("Q%-3d %10v  CANCELED (%v)\n", q, el.Round(time.Microsecond), err)
			return
		}
		fmt.Printf("Q%-3d %10v  rows=%-6d HT=%-10d peak=%d",
			q, el.Round(time.Microsecond), len(res.Rows),
			qc.HashTableBytes(), qc.PeakMemoryBytes())
		if skipped := qc.Stats.Counter(exec.CtrBlocksSkipped); skipped > 0 {
			fmt.Printf("  zskip=%d/%d", skipped, skipped+qc.Stats.Counter(exec.CtrBlocksRead))
		}
		if fp := qc.WorkerFootprints(); len(fp) > 0 {
			fmt.Printf("  workerHT=%v", fp)
		}
		fmt.Println()
		if *show {
			fmt.Print(res)
		}
	}
	if *qn != 0 {
		run(*qn)
		return
	}
	for q := 1; q <= 22; q++ {
		run(q)
	}
}
