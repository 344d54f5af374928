package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/ingest"
	"ocht/internal/server"
	"ocht/internal/sql"
	"ocht/internal/storage"
	"ocht/internal/tpch"
)

// serve-mixed: an in-process server.New + ingest.Open behind a loopback
// net/http listener, two closed-loop HTTP clients, half the statements
// writes. Flush policy is fsync=interval on the sandbox's disk: write
// latency here is the sandbox's, not a device's.

const serveClients = 2

// serveStmt is one entry of the fixed statement list. batch > 0 marks an
// INSERT of that many rows into events; reads carry their SQL.
type serveStmt struct {
	name   string
	sql    string
	batch  int
	events bool // reads the growing events table: checked by count, not digest
}

var serveStmts = []serveStmt{
	{name: "serve.read_lineitem_agg", sql: "SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), SUM(l_extendedprice) FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"},
	{name: "serve.insert_1", batch: 1},
	{name: "serve.read_orders_customer", sql: "SELECT c_mktsegment, COUNT(*), SUM(o_totalprice) FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment ORDER BY c_mktsegment"},
	{name: "serve.insert_16", batch: 16},
	// TPC-H order dates are uncorrelated with row position, so a date range
	// never zone-skips on generated data; an order-key range does.
	{name: "serve.read_key_range", sql: "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_orderkey >= 1000 AND l_orderkey < 3000"},
	{name: "serve.insert_256", batch: 256},
	{name: "serve.read_events_by_tag", sql: "SELECT tag, COUNT(*), SUM(v) FROM events GROUP BY tag ORDER BY tag", events: true},
	{name: "serve.insert_2048", batch: 2048},
}

const eventsDDL = "CREATE TABLE events (id BIGINT NOT NULL, tag VARCHAR NOT NULL, v BIGINT NOT NULL)"

// insertSQL is the INSERT a client sends for one list entry of one round:
// a pure function of its arguments. Ids are unique across clients, rounds
// and entries (a round inserts 1+16+256+2048 < 4096 rows per client).
func insertSQL(seed int64, client, round, batch int) (text string, userBytes int) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + int64(round)*31 + int64(batch)))
	var b strings.Builder
	b.WriteString("INSERT INTO events VALUES ")
	for i := 0; i < batch; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		id := int64(client)<<40 | int64(round)<<12 | int64(batch+i)
		tag := fmt.Sprintf("tag-%02d", rng.Intn(64))
		fmt.Fprintf(&b, "(%d, '%s', %d)", id, tag, rng.Int63n(1_000_000))
		userBytes += 8 + len(tag) + 8
	}
	return b.String(), userBytes
}

// serverMetrics is the part of GET /metrics the harness reads.
type serverMetrics struct {
	QueriesRejected   int64              `json:"queries_rejected"`
	PlanCacheHits     int64              `json:"plan_cache_hits"`
	PlanCacheMisses   int64              `json:"plan_cache_misses"`
	USSRPoolReused    int64              `json:"ussr_pool_reused"`
	USSRPoolAllocated int64              `json:"ussr_pool_allocated"`
	EngineStatsMs     map[string]float64 `json:"engine_stats_ms"`
	Ingest            ingest.Stats       `json:"ingest"`
}

type serveMixed struct {
	seed    int64
	cat     *storage.Catalog
	eng     *ingest.Engine
	httpSrv *http.Server
	served  chan error
	client  *http.Client
	url     string
	dir     string
	want    []string // per statement: reference digest of static reads
	bodies  [][]byte // per statement: pre-marshalled request of reads

	roundNo   int
	acked     atomic.Int64 // rows whose INSERT was acknowledged
	userBytes int64        // bytes of row data sent in INSERTs since set-up
	wallS     float64      // wall time of all rounds since set-up
	base      serverMetrics

	// Client-side latencies of traced rounds, by class.
	readMs, writeMs, overheadMs []float64
}

func (w *serveMixed) threads() int              { return serveClients }
func (w *serveMixed) catalog() *storage.Catalog { return w.cat }
func (w *serveMixed) probeInputs() probeSpec    { return tpchProbeSpec }

func (w *serveMixed) stmtNames() []string {
	names := make([]string, len(serveStmts))
	for i, s := range serveStmts {
		names[i] = s.name
	}
	return names
}

func (w *serveMixed) setup(seed int64) error {
	w.seed = seed
	storage.SetSealCompression(storage.CompressAuto)
	w.cat = tpch.Gen(serveSF, seed)

	var err error
	if w.dir, err = os.MkdirTemp("", "ocht-bench-serve-"); err != nil {
		return err
	}
	if w.eng, err = ingest.Open(w.dir, w.cat, ingest.Config{Fsync: ingest.FsyncInterval}); err != nil {
		return err
	}
	ddl, err := sql.ParseStatement(eventsDDL)
	if err != nil {
		return err
	}
	if _, err := w.eng.Apply(ddl); err != nil {
		return err
	}

	// Reference answers of the static reads, before any client connects.
	w.want = make([]string, len(serveStmts))
	w.bodies = make([][]byte, len(serveStmts))
	for i, s := range serveStmts {
		if s.batch > 0 {
			continue
		}
		if w.bodies[i], err = json.Marshal(server.QueryRequest{SQL: s.sql}); err != nil {
			return err
		}
		if s.events {
			continue
		}
		qc := exec.NewQCtx(core.Vanilla())
		qc.Workers = 1
		res, err := sql.Run(s.sql, w.cat, qc)
		if err != nil {
			return fmt.Errorf("reference pass: %s: %w", s.name, err)
		}
		w.want[i] = digest(res.String())
	}

	srv := server.New(w.cat, server.Config{Flags: core.All(), Workers: 1, MaxInFlight: serveClients, Ingest: w.eng})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.httpSrv = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.httpSrv.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

	for r := 0; r < serveWarmup; r++ {
		if _, out := w.round(nil, 0); failures(out) > 0 {
			return fmt.Errorf("warm-up round: %s", firstFailure(out))
		}
	}
	w.userBytes, w.wallS = 0, 0
	w.readMs, w.writeMs, w.overheadMs = nil, nil, nil
	return w.getMetrics(&w.base)
}

func (w *serveMixed) close() {
	if w.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.httpSrv.Shutdown(ctx) // best effort: the listener closes either way
		cancel()
		<-w.served
		w.client.CloseIdleConnections()
		w.httpSrv = nil
	}
	if w.eng != nil {
		_ = w.eng.Close() // the data directory is deleted next
		w.eng = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *serveMixed) getMetrics(into *serverMetrics) error {
	resp, err := w.client.Get(w.url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}

// clientRound is what one client observed in one round.
type clientRound struct {
	out                         []obs
	readMs, writeMs, overheadMs []float64
}

func (w *serveMixed) round(tr *tracer, parent int) (float64, []obs) {
	round := w.roundNo
	w.roundNo++
	// Request bodies are built before the clock starts.
	var bodies [serveClients][][]byte
	for c := range bodies {
		bodies[c] = make([][]byte, len(serveStmts))
		for i, s := range serveStmts {
			if s.batch == 0 {
				bodies[c][i] = w.bodies[i]
				continue
			}
			text, ub := insertSQL(w.seed, c, round, s.batch)
			w.userBytes += int64(ub)
			bodies[c][i], _ = json.Marshal(server.QueryRequest{SQL: text}) // a struct of one string always marshals
		}
	}

	var results [serveClients]clientRound
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Clients walk the list from opposite offsets, so one is
			// writing while the other reads.
			offset := c * len(serveStmts) / serveClients
			for k := range serveStmts {
				i := (offset + k) % len(serveStmts)
				w.request(i, bodies[c][i], tr, parent, &results[c])
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	w.wallS += wall

	var out []obs
	for c := range results {
		out = append(out, results[c].out...)
		w.readMs = append(w.readMs, results[c].readMs...)
		w.writeMs = append(w.writeMs, results[c].writeMs...)
		w.overheadMs = append(w.overheadMs, results[c].overheadMs...)
	}
	return wall, out
}

// request sends statement i, checks the answer and records the outcome.
func (w *serveMixed) request(i int, body []byte, tr *tracer, parent int, cr *clientRound) {
	s := serveStmts[i]
	ackedBefore := w.acked.Load()
	t0 := time.Now()
	status, raw, err := w.post(body)
	t1 := time.Now()
	o := obs{stmt: i, ms: float64(t1.Sub(t0).Nanoseconds()) / 1e6}

	var resp struct {
		Columns      []string `json:"columns"`
		Rows         [][]any  `json:"rows"`
		ElapsedMs    float64  `json:"elapsed_ms"`
		RowsAffected int64    `json:"rows_affected"`
		Error        string   `json:"error"`
	}
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber() // integer cells stay exact
		err = dec.Decode(&resp)
	}
	switch {
	case err != nil:
		o.fail = fmt.Sprintf("%s: %v", s.name, err)
	case status != http.StatusOK:
		o.fail = fmt.Sprintf("%s: HTTP %d: %s", s.name, status, resp.Error)
	case s.batch > 0:
		if resp.RowsAffected != int64(s.batch) {
			o.fail = fmt.Sprintf("%s: rows_affected = %d, want %d", s.name, resp.RowsAffected, s.batch)
		} else {
			w.acked.Add(int64(s.batch))
		}
	case s.events:
		if n, err := sumColumn(resp.Rows, 1); err != nil {
			o.fail = fmt.Sprintf("%s: %v", s.name, err)
		} else if n < ackedBefore {
			o.fail = fmt.Sprintf("%s: saw %d rows, %d were acknowledged before the request", s.name, n, ackedBefore)
		}
	default:
		if digest(renderRows(resp.Columns, resp.Rows)) != w.want[i] {
			o.fail = s.name + ": answer differs from the in-process vanilla reference"
		}
	}
	cr.out = append(cr.out, o)
	if tr == nil {
		return
	}
	stmt := tr.add(parent, "stmt:"+s.name, t0, time.Now())
	req := tr.add(stmt, "http.request", t0, t1)
	if o.fail == "" {
		// The server reports only how long it worked; centre that inside
		// the request.
		overhead := o.ms - resp.ElapsedMs
		pad := time.Duration(overhead / 2 * float64(time.Millisecond))
		tr.add(req, "server.elapsed", t0.Add(pad), t1.Add(-pad))
		cr.overheadMs = append(cr.overheadMs, overhead)
		if s.batch > 0 {
			cr.writeMs = append(cr.writeMs, o.ms)
		} else {
			cr.readMs = append(cr.readMs, o.ms)
		}
	}
}

func (w *serveMixed) post(body []byte) (status int, raw []byte, err error) {
	resp, err := w.client.Post(w.url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// renderRows prints a JSON result the way exec.Result.String prints the
// same result in process. The read statements return only integers,
// 128-bit sums (decimal strings on the wire) and strings, so every cell
// renders identically on both sides.
func renderRows(cols []string, rows [][]any) string {
	var b strings.Builder
	b.WriteString(strings.Join(cols, " | "))
	b.WriteByte('\n')
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			switch v := cell.(type) {
			case nil:
				b.WriteString("NULL")
			case json.Number:
				b.WriteString(v.String())
			case string:
				b.WriteString(v)
			default:
				fmt.Fprint(&b, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sumColumn(rows [][]any, col int) (int64, error) {
	var total int64
	for _, row := range rows {
		if col >= len(row) {
			return 0, fmt.Errorf("row has %d cells, want a count in cell %d", len(row), col)
		}
		num, ok := row[col].(json.Number)
		if !ok {
			return 0, fmt.Errorf("cell %d is %T, want a count", col, row[col])
		}
		n, err := num.Int64()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// finalPass runs the read statements in process on the final snapshot:
// static reads must still match their reference, the events count must
// equal every acknowledged row, and the hash-table footprints are summed.
func (w *serveMixed) finalPass(eng *engineTrace) (total, hot int64, err error) {
	snap := w.cat.Snapshot()
	for i, s := range serveStmts {
		if s.batch > 0 {
			continue
		}
		qc := exec.NewQCtx(core.All())
		qc.Workers = 1
		res, err := sql.Run(s.sql, snap, qc)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", s.name, err)
		}
		if s.events {
			var n int64
			for _, row := range res.Rows {
				n += row[1].I
			}
			if acked := w.acked.Load(); n != acked {
				return 0, 0, fmt.Errorf("%s: final count %d, but %d rows were acknowledged", s.name, n, acked)
			}
		} else if digest(res.String()) != w.want[i] {
			return 0, 0, fmt.Errorf("%s: final answer differs from the vanilla reference", s.name)
		}
		total += int64(qc.HashTableBytes())
		hot += int64(qc.HashTableHotBytes())
		if eng != nil {
			eng.add(qc.Stats)
		}
	}
	return total, hot, nil
}

func (w *serveMixed) footprint() (int64, int64, error) { return w.finalPass(nil) }

func (w *serveMixed) layerMetrics(m map[string]float64, _ int) error {
	var now serverMetrics
	if err := w.getMetrics(&now); err != nil {
		return err
	}
	var eng engineTrace
	if _, _, err := w.finalPass(&eng); err != nil {
		return err
	}
	// Counters come from the in-process pass (the server does not export
	// them); the Figure 6 shares from what the server itself accumulated
	// over every round since set-up.
	counterMetrics(m, eng.counters, 1)
	served := map[string]time.Duration{}
	for k, ms := range now.EngineStatsMs {
		served[k] = time.Duration((ms - w.base.EngineStatsMs[k]) * float64(time.Millisecond))
	}
	statShares(m, served)

	m["server.read_p50_ms"] = median(w.readMs)
	m["server.read_p95_ms"], _ = percentile(w.readMs, 95)
	m["server.write_p50_ms"] = median(w.writeMs)
	m["server.write_p95_ms"], _ = percentile(w.writeMs, 95)
	m["server.http_overhead_ms"] = median(w.overheadMs)
	m["server.rejected"] = float64(now.QueriesRejected - w.base.QueriesRejected)
	ratio := func(name string, num, den int64) {
		if den > 0 {
			m[name] = float64(num) / float64(den)
		}
	}
	hits := now.PlanCacheHits - w.base.PlanCacheHits
	ratio("server.plan_cache_hit_share", hits, hits+now.PlanCacheMisses-w.base.PlanCacheMisses)
	reused := now.USSRPoolReused - w.base.USSRPoolReused
	ratio("server.ussr_pool_reuse_share", reused, reused+now.USSRPoolAllocated-w.base.USSRPoolAllocated)

	ing, base := now.Ingest, w.base.Ingest
	m["ingest.rows_s"] = float64(ing.RowsIngested-base.RowsIngested) / w.wallS
	m["ingest.blocks_sealed"] = float64(ing.BlocksSealed - base.BlocksSealed)
	m["ingest.wal_bytes_per_user_byte"] = float64(ing.WALBytes-base.WALBytes) / float64(w.userBytes)
	groups := ing.CommitGroups - base.CommitGroups
	ratio("ingest.syncs_per_commit", ing.WALSyncs-base.WALSyncs, groups)
	ratio("ingest.commit_group_size", ing.CommitRequests-base.CommitRequests, groups)

	// Parse + plan of each read statement against the current snapshot:
	// what a plan-cache miss costs.
	var perStmt []float64
	snap := w.cat.Snapshot()
	for _, s := range serveStmts {
		if s.batch > 0 {
			continue
		}
		var us []float64
		for r := 0; r < 50; r++ {
			start := time.Now()
			stmt, err := sql.Parse(s.sql)
			if err == nil {
				_, _, _, err = sql.Plan(stmt, snap)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
		perStmt = append(perStmt, median(us))
	}
	sum := 0.0
	for _, v := range perStmt {
		sum += v
	}
	m["sql.parse_plan_us"] = sum / float64(len(perStmt))
	return nil
}
