package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ocht/internal/exec"
	"ocht/internal/vec"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 4", q1, q3)
	}
}

func TestPercentilePicker(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0},    // p90 leaves 5 beyond
		{100, 90},  // p90 leaves exactly 10
		{199, 90},  // p95 leaves 9
		{200, 95},  // p95 leaves exactly 10
		{999, 95},  // p99 leaves 9
		{1000, 99}, // p99 leaves exactly 10
		{10000, 99.9},
	} {
		if got := pickPercentile(c.n); got != c.want {
			t.Errorf("pickPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 1..200, unsorted
	}
	if v, beyond := percentile(xs, 95); v != 190 || beyond != 10 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190 with 10", v, beyond)
	}
	if n := minRounds(22); n*22*5/100 < 10 {
		t.Errorf("minRounds(22) = %d leaves fewer than ten samples beyond p95", n)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	// One statement doubling moves the geomean of four by 2^(1/4).
	a, b := geomean([]float64{2, 4, 8, 1000}), geomean([]float64{4, 4, 8, 1000})
	if math.Abs(b/a-math.Pow(2, 0.25)) > 1e-9 {
		t.Errorf("geomean ratio = %v, want %v", b/a, math.Pow(2, 0.25))
	}
	r := newRecorder([]string{"a", "b"})
	r.add(1, []obs{{stmt: 0, ms: 2}, {stmt: 1, ms: 8}, {stmt: 1, ms: 1, fail: "wrong"}})
	if r.attempted != 3 || r.failed != 1 || len(r.pooled) != 2 {
		t.Errorf("recorder counted %d attempted, %d failed, %d pooled", r.attempted, r.failed, len(r.pooled))
	}
	if got := r.geomeanMs(); math.Abs(got-4) > 1e-9 {
		t.Errorf("recorder geomean = %v, want 4", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "stmt", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "stmt", Start: 30, End: 60},  // overlaps span 2 (a second client)
		{ID: 4, Parent: 1, Name: "stmt", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "http.request", Start: 12, End: 38},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 26, 3: 30, 4: 30, 5: 26}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}

	tr := newTracer()
	round := tr.begin(0, "round")
	stmt := tr.begin(round, "stmt")
	tr.finish(stmt)
	tr.finish(round)
	if s := tr.spans; s[1].Parent != s[0].ID || s[1].Start < s[0].Start || s[1].End > s[0].End {
		t.Errorf("stmt span %+v does not nest inside round span %+v", s[1], s[0])
	}
	var off *tracer
	if id := off.begin(0, "x"); id != 0 || off.add(0, "x", tr.epoch, tr.epoch) != 0 {
		t.Error("a nil tracer must record nothing")
	}
	off.finish(0)
}

func TestStatementsArePureFunctionOfSeed(t *testing.T) {
	a, bytesA := insertSQL(42, 1, 7, 16)
	b, bytesB := insertSQL(42, 1, 7, 16)
	if a != b || bytesA != bytesB {
		t.Error("insertSQL differs between two calls with the same arguments")
	}
	if c, _ := insertSQL(43, 1, 7, 16); c == a {
		t.Error("insertSQL ignores the seed")
	}
	if got := strings.Count(a, "("); got != 16 {
		t.Errorf("INSERT of 16 rows has %d tuples", got)
	}
	// Ids never repeat across clients, rounds and list entries.
	ids := map[string]bool{}
	re := regexp.MustCompile(`\((\d+), `)
	for client := 0; client < serveClients; client++ {
		for round := 0; round < 3; round++ {
			for _, s := range serveStmts {
				if s.batch == 0 {
					continue
				}
				text, _ := insertSQL(42, client, round, s.batch)
				for _, m := range re.FindAllStringSubmatch(text, -1) {
					if ids[m[1]] {
						t.Fatalf("id %s inserted twice", m[1])
					}
					ids[m[1]] = true
				}
			}
		}
	}
	reads, writes := 0, 0
	for _, s := range serveStmts {
		if s.batch > 0 {
			writes++
		} else {
			reads++
		}
	}
	if reads != 4 || writes != 4 {
		t.Errorf("serve-mixed has %d reads and %d writes, want 4 and 4", reads, writes)
	}
	for _, name := range workloadNames {
		w1, err1 := newWorkload(name)
		w2, err2 := newWorkload(name)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(w1.stmtNames(), w2.stmtNames()) {
			t.Errorf("%s: statement list is not fixed", name)
		}
	}
}

func TestDigestStability(t *testing.T) {
	res := &exec.Result{
		Names: []string{"k", "n"},
		Types: []vec.Type{vec.Str, vec.I64},
		Rows: [][]exec.Value{
			{{Typ: vec.Str, S: "a"}, {Typ: vec.I64, I: 7}},
			{{Typ: vec.Str, Null: true}, {Typ: vec.I64, I: -1}},
		},
	}
	const want = "553d348d5dd531076faeb7e4"
	if got := digest(res.String()); got != want {
		t.Errorf("digest = %s, want %s (did Result.String change?)", got, want)
	}
	// The same result as the server sends it renders to the same text.
	var rows [][]any
	dec := json.NewDecoder(strings.NewReader(`[["a", 7], [null, -1]]`))
	dec.UseNumber()
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if got := renderRows(res.Names, rows); got != res.String() {
		t.Errorf("renderRows = %q, want %q", got, res.String())
	}
	if n, err := sumColumn(rows, 1); err != nil || n != 6 {
		t.Errorf("sumColumn = %d, %v, want 6", n, err)
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json and the tables in metrics.go
// identical and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n json %v\n go   %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(doc.EndToEnd), len(doc.PerLayer))
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRe.MatchString(d.Name) || !unitRe.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) is outside the allowed charset", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds = %d, paths = %v", doc.RunSeconds, doc.Paths)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}
