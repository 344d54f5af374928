// String-heavy aggregation example: the USSR at work. Groups a column of
// frequent long strings and shows the speedup from deduplication and
// reference equality, plus the USSR's fill statistics — a miniature of the
// paper's Figure 7 and Table III. Both backings store a string's hash with
// it, so a hash is one load either way; the counters split those loads by
// backing.
//
// Usage: go run ./examples/stringagg [-rows 500000] [-len 64] [-distinct 100]
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"ocht"
	"ocht/internal/exec"
)

func main() {
	rows := flag.Int("rows", 500_000, "number of rows")
	length := flag.Int("len", 64, "string length")
	distinct := flag.Int("distinct", 100, "distinct strings")
	flag.Parse()

	words := make([]string, *distinct)
	for i := range words {
		base := fmt.Sprintf("customer-%06d-", i)
		words[i] = (base + strings.Repeat("x", *length))[:*length]
	}
	db := ocht.NewDB()
	b := db.CreateTable("events", ocht.ColStr("who"), ocht.ColInt64("n"))
	for i := 0; i < *rows; i++ {
		b.Row(words[i%len(words)], int64(i%1000))
	}
	b.Finish()

	run := func(name string, flags ocht.Flags) (*exec.QCtx, time.Duration) {
		q := db.Query(flags).Scan("events").GroupBy("who").Agg(ocht.Sum("n"), ocht.CountAll())
		start := time.Now()
		res := q.Run()
		el := time.Since(start)
		fmt.Printf("%-22s %10v  groups=%d\n", name, el.Round(time.Millisecond), len(res.Rows))
		return q.Context(), el
	}
	_, vTime := run("vanilla (heap strings)", ocht.Vanilla())
	qc, uTime := run("with USSR", ocht.Flags{UseUSSR: true})
	fmt.Printf("speedup: %.2fx\n\n", float64(vTime)/float64(uTime))

	st := qc.Store.U.Stats()
	fmt.Printf("USSR: %d strings, %.1f kB used, %d candidates, %d rejected (%.1f%%), avg len %.0f\n",
		st.Count, float64(st.SizeBytes)/1024, st.Candidates, st.Rejected,
		st.RejectionRatio(), st.AvgLen())
	fmt.Printf("hash loads: %d of USSR-resident strings, %d of heap strings\n", qc.Store.HashFast, qc.Store.HashSlow)
}
