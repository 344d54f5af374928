package bench

import (
	"encoding/json"
	"io"
	"time"

	"ocht/internal/core"
	"ocht/internal/exec"
)

// PerfReport is the machine-readable perf trajectory written by
// `ocht-bench -json-out FILE`: one before/after record per subsystem the
// cache-conscious probe pipeline touches. The checked-in BENCH_join.json
// at the repo root tracks these numbers across changes.
type PerfReport struct {
	Schema   string           `json:"schema"`
	Seed     int64            `json:"seed"`
	Join     []JoinSelVariant `json:"join"`
	Agg      []AggPoint       `json:"agg"`
	Scaling  []ScalePoint     `json:"scaling"`
	Scan     []ScanPoint      `json:"scan"`
	Compress []CompressPoint  `json:"compress"`
}

// AggPoint measures the Q1-style grouped aggregation end to end for one
// group-table configuration.
type AggPoint struct {
	Name          string  `json:"name"`
	PartitionBits int     `json:"partition_bits"`
	NsPerRow      float64 `json:"ns_per_row"`
	Groups        int     `json:"groups"`
}

// PerfJSON runs the join/agg/scaling perf probes and writes the report.
// The scaling section is the same sweep as the standalone
// BENCH_scaling.json report, at the smaller BIRows scale.
func PerfJSON(w io.Writer, cfg Config) error {
	rep := PerfReport{
		Schema:   "ocht-perf/1",
		Seed:     cfg.Seed,
		Join:     JoinSelRun(cfg),
		Agg:      aggPoints(cfg),
		Scaling:  ScalingRun(cfg, cfg.BIRows).Points,
		Scan:     ScanSelRun(cfg),
		Compress: CompressRun(cfg),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func aggPoints(cfg Config) []AggPoint {
	rows := cfg.BIRows
	fact := scalingFact(rows, cfg.Seed)
	var out []AggPoint
	for _, v := range []struct {
		name string
		bits int
	}{{"q1agg-monolithic", 0}, {"q1agg-partitioned", -1}} {
		bestD := time.Duration(1<<63 - 1)
		groups := 0
		for rep := 0; rep < cfg.Reps; rep++ {
			qc := exec.NewQCtx(core.All())
			start := time.Now()
			res := exec.Run(qc, scalingPlan(fact, v.bits))
			if el := time.Since(start); el < bestD {
				bestD, groups = el, len(res.Rows)
			}
		}
		out = append(out, AggPoint{
			Name:          v.name,
			PartitionBits: v.bits,
			NsPerRow:      float64(bestD.Nanoseconds()) / float64(rows),
			Groups:        groups,
		})
	}
	return out
}
