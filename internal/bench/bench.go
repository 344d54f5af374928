// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (Section V), each printing the same
// rows/series the paper reports, plus the parallel-scaling sweep the CI
// scaling job gates on and the scatter-gather experiment. EXPERIMENTS.md
// records paper-vs-measured shape for every runner. Layer and service
// measurements (storage, ingest, server, join probe, scan) are made only
// by the benchmark module under benchmark/.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// Config scales the experiments. The paper ran SF 100 on a dual-socket
// Xeon; the defaults here finish on a laptop while preserving every
// relative comparison.
type Config struct {
	TPCHSF  float64 // TPC-H scale factor (paper: 100)
	BIRows  int     // BI contracts rows (paper: ~8 GiB/table)
	Reps    int     // repetitions; the fastest (hot) run is reported
	Seed    int64
	MaxCard int // Fig 8 maximum build cardinality (paper: 10^8)
	Workers int // parallel worker count for the scaling experiment
}

// DefaultConfig returns laptop-scale defaults.
func DefaultConfig() Config {
	return Config{TPCHSF: 0.01, BIRows: 100_000, Reps: 3, Seed: 42,
		MaxCard: 1 << 20, Workers: runtime.GOMAXPROCS(0)}
}

// Runner names every experiment.
var Runners = map[string]func(w io.Writer, cfg Config){
	"fig4":    Fig4,
	"table2":  Table2,
	"fig5":    Fig5,
	"table3":  Table3,
	"fig6":    Fig6,
	"fig7":    Fig7,
	"fig8":    Fig8,
	"fig9":    Fig9,
	"table4":  Table4,
	"fig10":   Fig10,
	"fig11":   Fig11,
	"scaling": Scaling,
	"dist":    DistExp,
}

// RunnerNames lists the experiments in paper order; the scaling and
// distribution experiments (not in the paper, which measures
// single-threaded reads on one node) go last.
var RunnerNames = []string{
	"fig4", "table2", "fig5", "table3", "fig6",
	"fig7", "fig8", "fig9", "table4", "fig10", "fig11", "scaling", "dist",
}

// All runs every experiment in paper order.
func All(w io.Writer, cfg Config) {
	for _, name := range RunnerNames {
		Runners[name](w, cfg)
		fmt.Fprintln(w)
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "=== %s ===\n", title)
}

func line(w io.Writer, cells ...string) {
	fmt.Fprintln(w, strings.Join(cells, "  "))
}

func humanBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fkB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func best(reps int, f func() time.Duration) time.Duration {
	bestD := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		if d := f(); d < bestD {
			bestD = d
		}
	}
	return bestD
}
