// Command benchmark is the repository's one benchmark: four closed-loop
// workloads, nine end-to-end metrics and per-module layer probes, defined
// together with ../BENCHMARK.json. See README.md in this directory.
//
//	go run -C benchmark . -workload tpch-power -seed 42
//	go run -C benchmark . -workload serve-mixed -seed 42 -trace 1
//	go run -C benchmark . -selfcheck -workload all
//
// One invocation runs one workload in one process, checks every answer,
// prints a host-stamped report line followed by the result line the
// acceptance driver parses, and exits non-zero on a wrong answer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload        string
	seed            int64
	seconds         float64
	rounds          int
	trace           bool
	allowUndersized bool
	spansOut        string
}

// stamp identifies where and on what a report was measured.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Threads    int    `json:"threads"`
	Undersized bool   `json:"undersized"`
	Traced     bool   `json:"traced"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the acceptance driver parses: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the host-stamped document printed before the result line.
type report struct {
	Stamp         stamp              `json:"stamp"`
	Rounds        int                `json:"rounds"`
	SetupSamples  []float64          `json:"setup_samples_s"`
	Samples       int                `json:"stmt_samples"`
	P95Beyond     int                `json:"stmt_p95_samples_beyond"`
	TailPct       float64            `json:"stmt_tail_percentile"`
	TailMs        float64            `json:"stmt_tail_ms"`
	StmtMedianMs  map[string]float64 `json:"stmt_median_ms"`
	Failures      []string           `json:"failures,omitempty"`
	NotApplicable []string           `json:"not_applicable,omitempty"`
	SpansFile     string             `json:"spans_file,omitempty"`
	Result        result             `json:"result"`
}

func main() {
	var cfg config
	var trace int
	var selfcheck bool
	var runs int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, " | ")+" (or all, with -selfcheck)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window, a third of it after each of the three set-ups; whole rounds run until it is used up")
	flag.IntVar(&cfg.rounds, "rounds", 0, "run exactly this many rounds after each set-up instead of filling -seconds (identical work on both sides of a comparison)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, spans and module probes instead of the end-to-end metrics")
	flag.BoolVar(&cfg.allowUndersized, "allow-undersized", false, "run even when GOMAXPROCS is below the workload's thread count")
	flag.StringVar(&cfg.spansOut, "spans-out", "", "file the traced run writes its spans to as JSON lines (default: under the temp dir)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two independent sets of -runs runs per workload and compare them against the bounds")
	flag.IntVar(&runs, "runs", 3, "runs per set for -selfcheck, each with another seed")
	flag.Parse()
	cfg.trace = trace != 0

	if selfcheck {
		if err := runSelfcheck(cfg, runs); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(cfg)
	if rep != nil {
		emit(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// emit prints the report line, then the result line last.
func emit(rep *report) {
	enc := json.NewEncoder(os.Stdout)
	for _, line := range []any{rep, rep.Result} {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
}

// minRounds is the number of timed rounds that puts at least ten pooled
// statement latencies beyond p95.
func minRounds(stmtsPerRound int) int {
	return int(math.Ceil(200/float64(stmtsPerRound))) + 1
}

func runWorkload(cfg config) (*report, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	rep := &report{Stamp: stamp{
		Commit: gitCommit(), GoVersion: runtime.Version(),
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: cfg.workload, Seed: cfg.seed, Threads: w.threads(), Traced: cfg.trace,
	}, Result: result{Metrics: map[string]metricValue{}}}
	if rep.Stamp.GOMAXPROCS < w.threads() {
		rep.Stamp.Undersized = true
		if !cfg.allowUndersized {
			return rep, fmt.Errorf("GOMAXPROCS=%d is below the %d threads %s needs; pass -allow-undersized to record it anyway",
				rep.Stamp.GOMAXPROCS, w.threads(), cfg.workload)
		}
	}

	rec := newRecorder(w.stmtNames())
	if cfg.trace {
		err = tracedRun(cfg, rec, rep)
	} else {
		err = timedRun(cfg, rec, rep)
	}
	rep.Rounds = len(rec.rounds)
	rep.Samples = len(rec.pooled)
	rep.StmtMedianMs = rec.stmtMedians()
	if rep.TailPct = pickPercentile(len(rec.pooled)); rep.TailPct > 0 {
		rep.TailMs, _ = percentile(rec.pooled, rep.TailPct)
	}
	rep.Failures = rec.failures
	rep.Result.Attempted = rec.attempted
	rep.Result.Failed = rec.failed
	rep.Result.Correct = err == nil && rec.failed == 0
	if err != nil {
		return rep, err
	}
	if rec.failed > 0 {
		return rep, fmt.Errorf("%d of %d statements failed or returned wrong answers (first: %s)", rec.failed, rec.attempted, rec.failures[0])
	}
	return rep, nil
}

// setUp builds a fresh instance of the workload and records how long its
// set-up took.
func setUp(cfg config, rep *report) (workload, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := w.setup(cfg.seed); err != nil {
		w.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep.SetupSamples = append(rep.SetupSamples, time.Since(start).Seconds())
	return w, nil
}

// timedSetups is how often a timed run sets the workload up. setup_s is the
// median of the set-ups, and a third of the timed window follows each one:
// the sandbox's speed drifts over tens of seconds, and a window spread over
// the whole run samples more of that drift than one block at its end.
const timedSetups = 3

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(cfg config, rec *recorder, rep *report) error {
	var cpu float64
	var total, hot int64
	for k := 0; k < timedSetups; k++ {
		w, err := setUp(cfg, rep)
		if err != nil {
			return err
		}
		c, err := timedSegment(cfg, w, rec)
		cpu += c
		if err == nil {
			var t, h int64
			if t, h, err = w.footprint(); err != nil {
				err = fmt.Errorf("footprint pass: %w", err)
			} else if k > 0 && (t != total || h != hot) {
				err = fmt.Errorf("footprint does not repeat: %d/%d bytes, then %d/%d", total, hot, t, h)
			}
			total, hot = t, h
		}
		w.close()
		if err != nil {
			return err
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
	rss := peakRSSMB()

	p95, beyond := percentile(rec.pooled, 95)
	if beyond < 10 {
		return fmt.Errorf("only %d of %d samples lie beyond p95", beyond, len(rec.pooled))
	}
	rep.P95Beyond = beyond
	values := map[string]float64{
		"setup_s":         median(rep.SetupSamples),
		"round_s":         median(rec.rounds),
		"stmt_geomean_ms": rec.geomeanMs(),
		"stmt_p95_ms":     p95,
		"cpu_s_per_round": cpu / float64(len(rec.rounds)),
		"ht_total_mb":     float64(total) / 1e6,
		"ht_hot_mb":       float64(hot) / 1e6,
		"peak_rss_mb":     rss,
		"ok_share":        1 - float64(rec.failed)/float64(rec.attempted),
	}
	for _, d := range endToEnd {
		rep.Result.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	return nil
}

// timedSegment runs one set-up's share of the timed rounds and returns the
// CPU seconds they used.
func timedSegment(cfg config, w workload, rec *recorder) (cpu float64, err error) {
	cpu0 := cpuSeconds()
	start := time.Now()
	for n, need := 0, 0; ; {
		wall, out := w.round(nil, 0)
		rec.add(wall, out)
		n++
		if need == 0 {
			need = (minRounds(len(out)) + timedSetups - 1) / timedSetups
			if cfg.rounds > 0 && cfg.rounds < need {
				return 0, fmt.Errorf("-rounds %d leaves fewer than ten samples beyond p95; need at least %d", cfg.rounds, need)
			}
		}
		if cfg.rounds > 0 {
			if n >= cfg.rounds {
				break
			}
		} else if n >= need && time.Since(start).Seconds() >= cfg.seconds/timedSetups {
			break
		}
	}
	return cpuSeconds() - cpu0, nil
}

// tracedRun alternates untraced and traced rounds (their difference is the
// tracing overhead), reads the engine's counters at statement boundaries,
// then runs the module probes. Spans are flushed when the run ends.
func tracedRun(cfg config, rec *recorder, rep *report) error {
	w, err := setUp(cfg, rep)
	if err != nil {
		return err
	}
	defer w.close()
	tr := newTracer()
	root := tr.begin(0, "workload:"+cfg.workload)
	var plain, traced []float64
	start := time.Now()
	done := func() bool {
		switch n := len(traced); {
		case n < 3:
			return false
		case cfg.rounds > 0:
			return n >= cfg.rounds
		default:
			return time.Since(start).Seconds() >= cfg.seconds
		}
	}
	for !done() {
		wall, out := w.round(nil, 0)
		if failures(out) > 0 {
			rec.add(wall, out)
			return nil
		}
		plain = append(plain, wall)
		id := tr.begin(root, "round")
		wall, out = w.round(tr, id)
		tr.finish(id)
		traced = append(traced, wall)
		rec.add(wall, out)
	}

	m := map[string]float64{"bench.trace_overhead_share": median(traced)/median(plain) - 1}
	for name, ms := range rec.stmtMedians() {
		if isPerLayer(name + "_ms") { // tpch.qNN_ms, bi.qNN_ms; serve-mixed reports by class instead
			m[name+"_ms"] = ms
		}
	}
	if err := w.layerMetrics(m, len(traced)); err != nil {
		return err
	}
	id := tr.begin(root, "probes")
	err = runProbes(w.catalog(), w.probeInputs(), tr, id, m)
	tr.finish(id)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	tr.finish(root)

	rep.SpansFile = cfg.spansOut
	if rep.SpansFile == "" {
		rep.SpansFile = filepath.Join(os.TempDir(), fmt.Sprintf("ocht-bench-spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	if err := writeSpans(rep.SpansFile, fmt.Sprintf("%s-%d", cfg.workload, cfg.seed), tr.spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	// Every per-layer metric is printed on every workload; one that this
	// workload cannot produce reads 0 and is listed as not applicable.
	for _, d := range perLayer {
		v, ok := m[d.Name]
		if !ok {
			rep.NotApplicable = append(rep.NotApplicable, d.Name)
		}
		rep.Result.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range m {
		if _, ok := rep.Result.Metrics[name]; !ok {
			return fmt.Errorf("metric %q is measured but not declared in metrics.go", name)
		}
	}
	return nil
}

// recorder pools what the timed rounds observed.
type recorder struct {
	names     []string
	perStmt   [][]float64 // latency in ms per statement
	pooled    []float64
	rounds    []float64 // wall seconds per round
	attempted int
	failed    int
	failures  []string // first few messages
}

func newRecorder(names []string) *recorder {
	return &recorder{names: names, perStmt: make([][]float64, len(names))}
}

func (r *recorder) add(wallS float64, out []obs) {
	r.rounds = append(r.rounds, wallS)
	for _, o := range out {
		r.attempted++
		if o.fail != "" {
			r.failed++
			if len(r.failures) < 5 {
				r.failures = append(r.failures, o.fail)
			}
			continue
		}
		r.perStmt[o.stmt] = append(r.perStmt[o.stmt], o.ms)
		r.pooled = append(r.pooled, o.ms)
	}
}

func (r *recorder) stmtMedians() map[string]float64 {
	m := make(map[string]float64, len(r.names))
	for i, name := range r.names {
		if len(r.perStmt[i]) > 0 {
			m[name] = median(r.perStmt[i])
		}
	}
	return m
}

// geomeanMs is the geometric mean over distinct statements of each
// statement's median latency.
func (r *recorder) geomeanMs() float64 {
	var meds []float64
	for _, xs := range r.perStmt {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// gitCommit names the measured commit when the checkout is a git
// repository and "unknown" otherwise (the acceptance driver's is not).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
