// Package server turns the engine into a long-lived query service: an
// HTTP/JSON front end (POST /query, GET /metrics, GET /healthz, pprof)
// over the SQL compiler and the morsel-driven parallel executor, with the
// per-request lifecycle a serving stack needs — admission control with a
// FIFO wait queue, per-query deadlines and client-disconnect
// cancellation threaded through the engine, a plan cache keyed by
// normalized SQL + catalog version, USSR pooling across queries, and an
// atomic counter/histogram observability surface.
//
// When an ingest engine is attached the same /query endpoint also
// accepts CREATE TABLE / INSERT / COPY statements. Reads pin a catalog
// snapshot at compile time, so a concurrently committing write never
// shows a query a half-published table, and the snapshot version in the
// plan-cache key invalidates cached plans the moment a commit lands.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/ingest"
	"ocht/internal/sql"
	"ocht/internal/storage"
	"ocht/internal/ussr"
	"ocht/internal/vec"
)

// Config sizes the service. Zero values fall back to DefaultConfig.
type Config struct {
	Flags   core.Flags // engine technique flags for every query
	Workers int        // default parallel workers per query

	MaxInFlight  int           // concurrent executing queries
	MaxQueue     int           // additional queries allowed to wait
	QueueTimeout time.Duration // max wait for an execution slot

	DefaultTimeout time.Duration // per-query deadline when none requested
	MaxTimeout     time.Duration // cap on client-requested deadlines

	PlanCacheSize int // cached compiled statements
	MaxResultRows int // rows returned per response before truncation

	// Ingest is the optional write path. When nil the server is
	// read-only and write statements are rejected with 403.
	Ingest *ingest.Engine

	// ReadOnly rejects client writes even with an ingest engine attached.
	// Read replicas run this way: their engine exists solely to apply
	// replication segments, never to accept direct INSERTs that would
	// fork the replica's history from its primary.
	ReadOnly bool

	// ReplicaStatus, when set, marks this server as a read replica and
	// backs GET /replication/status; the WAL puller supplies it.
	ReplicaStatus func() ReplicaStatus
}

// DefaultConfig returns serving defaults sized for one machine.
func DefaultConfig() Config {
	return Config{
		Flags:          core.All(),
		Workers:        runtime.GOMAXPROCS(0),
		MaxInFlight:    runtime.GOMAXPROCS(0) * 2,
		MaxQueue:       64,
		QueueTimeout:   2 * time.Second,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
		PlanCacheSize:  256,
		MaxResultRows:  1 << 20,
	}
}

// Server serves SQL queries over one catalog. Reads run against pinned
// copy-on-write snapshots; writes (when an ingest engine is attached)
// mutate the catalog through the WAL-backed write path.
type Server struct {
	cat   *storage.Catalog
	ing   *ingest.Engine // nil = read-only service
	cfg   Config
	adm   *admission
	cache *planCache
	pool  *ussrPool
	met   *metrics
	stats *exec.Stats // engine primitive breakdown summed over all queries
	start time.Time
	mux   *http.ServeMux
}

// New creates a server over the catalog. The catalog may be mutated
// concurrently through cfg.Ingest (or any other Catalog.Add caller):
// every query plans against a pinned Catalog.Snapshot and the plan cache
// keys on the snapshot version, so in-flight queries and cached plans
// never observe a half-published table.
func New(cat *storage.Catalog, cfg Config) *Server {
	def := DefaultConfig()
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = def.MaxInFlight
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = def.MaxQueue
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = def.QueueTimeout
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = def.DefaultTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = def.MaxTimeout
	}
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = def.PlanCacheSize
	}
	if cfg.MaxResultRows <= 0 {
		cfg.MaxResultRows = def.MaxResultRows
	}
	s := &Server{
		cat:   cat,
		ing:   cfg.Ingest,
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		cache: newPlanCache(cfg.PlanCacheSize),
		pool:  &ussrPool{},
		met:   &metrics{},
		stats: exec.NewStats(),
		start: time.Now(),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/shard/query", s.handleShardQuery)
	s.mux.HandleFunc("/tables", s.handleTables)
	s.mux.HandleFunc("/wal/status", s.handleWALStatus)
	s.mux.HandleFunc("/wal/export", s.handleWALExport)
	s.mux.HandleFunc("/replication/status", s.handleReplicationStatus)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// QueryRequest is the POST /query body.
type QueryRequest struct {
	SQL string `json:"sql"`
	// TimeoutMs overrides the server's default per-query deadline,
	// capped at the configured maximum.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Workers overrides the per-query parallelism (1 = serial).
	Workers int `json:"workers,omitempty"`
}

// QueryResponse is the POST /query reply. Rows hold JSON scalars: int64
// and bool columns as numbers, f64 as floats, strings as strings, 128-bit
// sums as decimal strings, SQL NULL as null.
type QueryResponse struct {
	Columns   []string `json:"columns,omitempty"`
	Rows      [][]any  `json:"rows,omitempty"`
	RowCount  int      `json:"row_count"`
	Truncated bool     `json:"truncated,omitempty"`
	ElapsedMs float64  `json:"elapsed_ms"`
	PlanCache string   `json:"plan_cache,omitempty"` // "hit" or "miss"
	// RowsAffected reports rows durably committed by a write statement
	// (INSERT, COPY). The write is fsynced per the engine's policy and
	// visible to subsequent queries before the response is sent.
	RowsAffected int64  `json:"rows_affected,omitempty"`
	Error        string `json:"error,omitempty"`
}

// statusClientClosed is nginx's 499: the client went away before the
// response; no standard constant exists.
const statusClientClosed = 499

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, QueryResponse{Error: "POST only"})
		return
	}
	var req QueryRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "missing \"sql\""})
		return
	}

	s.met.started.Add(1)
	// Admission: r.Context() dies with the client connection, so a
	// disconnected client never occupies a queue position.
	if err := s.adm.acquire(r.Context(), s.cfg.QueueTimeout); err != nil {
		s.met.rejected.Add(1)
		status := http.StatusTooManyRequests
		if !errors.Is(err, ErrSaturated) && !errors.Is(err, ErrQueueTimeout) {
			status = statusClientClosed
		}
		writeJSON(w, status, QueryResponse{Error: err.Error()})
		return
	}
	defer s.adm.release()

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	var resp QueryResponse
	var status int
	if isWriteSQL(req.SQL) {
		resp, status = s.executeWrite(&req)
	} else {
		resp, status = s.execute(ctx, &req)
	}
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	s.met.latency.observe(time.Since(start))
	switch {
	case status == http.StatusOK:
		s.met.finished.Add(1)
		s.met.rows.Add(int64(resp.RowCount))
	case status == http.StatusGatewayTimeout || status == statusClientClosed:
		s.met.canceled.Add(1)
	default:
		s.met.failed.Add(1)
	}
	writeJSON(w, status, resp)
}

// isWriteSQL sniffs the leading keyword so cached SELECTs keep their
// parse-free hot path: only CREATE / INSERT / COPY take the write route.
func isWriteSQL(q string) bool {
	i := 0
	for i < len(q) && (q[i] == ' ' || q[i] == '\t' || q[i] == '\n' || q[i] == '\r') {
		i++
	}
	j := i
	for j < len(q) && (q[j] >= 'a' && q[j] <= 'z' || q[j] >= 'A' && q[j] <= 'Z') {
		j++
	}
	switch strings.ToUpper(q[i:j]) {
	case "CREATE", "INSERT", "COPY":
		return true
	}
	return false
}

// executeWrite runs one DDL/DML statement through the ingest engine.
// It returns only after the rows are committed to the WAL and published
// to the catalog, so a client that sees the response can immediately
// query its own write.
func (s *Server) executeWrite(req *QueryRequest) (QueryResponse, int) {
	if s.cfg.ReadOnly {
		return QueryResponse{Error: "server is a read replica: writes must go to the primary"},
			http.StatusForbidden
	}
	if s.ing == nil {
		return QueryResponse{Error: "server is read-only: no ingest engine attached (start with -data-dir)"},
			http.StatusForbidden
	}
	stmt, err := sql.ParseStatement(req.SQL)
	if err != nil {
		return QueryResponse{Error: err.Error()}, http.StatusBadRequest
	}
	n, err := s.ing.Apply(stmt)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ingest.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		return QueryResponse{Error: err.Error()}, status
	}
	s.met.writes.Add(1)
	return QueryResponse{RowsAffected: n}, http.StatusOK
}

// execute compiles (or reuses) and runs one statement. The planner layer
// signals some errors by panicking (unknown tables, schema conflicts);
// recover turns those into client errors instead of killing the server.
func (s *Server) execute(ctx context.Context, req *QueryRequest) (resp QueryResponse, status int) {
	defer func() {
		if p := recover(); p != nil {
			resp = QueryResponse{Error: fmt.Sprint(p)}
			status = http.StatusBadRequest
		}
	}()

	// Pin a copy-on-write snapshot for the whole query: planning and
	// execution see one consistent set of tables even while the ingest
	// engine publishes commits, and the snapshot version in the cache
	// key retires stale plans the moment the catalog changes.
	snap := s.cat.Snapshot()
	key := fmt.Sprintf("%d|%s", snap.Version(), normalizeSQL(req.SQL))
	entry, hit := s.cache.get(key)
	resp.PlanCache = "hit"
	if !hit {
		resp.PlanCache = "miss"
		stmt, err := sql.Parse(req.SQL)
		if err != nil {
			return QueryResponse{Error: err.Error(), PlanCache: "miss"}, http.StatusBadRequest
		}
		root, order, limit, err := sql.Plan(stmt, snap)
		if err != nil {
			return QueryResponse{Error: err.Error(), PlanCache: "miss"}, http.StatusBadRequest
		}
		entry = &planEntry{root: root, order: order, limit: limit}
		s.cache.put(key, entry)
	}

	// Per-query engine context: pooled USSR, private stats, the query's
	// own clone of the cached plan template.
	var u *ussr.USSR
	if s.cfg.Flags.UseUSSR {
		u = s.pool.acquire()
	}
	qc := exec.NewQCtxUSSR(s.cfg.Flags, u)
	qc.Workers = s.cfg.Workers
	if req.Workers > 0 {
		qc.Workers = req.Workers
	}
	defer func() {
		s.stats.Merge(qc.Stats)
		s.pool.release(u)
	}()

	res, err := exec.RunSortedCtx(ctx, qc, exec.ClonePlan(entry.root), entry.order, entry.limit)
	if err != nil {
		pc := resp.PlanCache
		resp = QueryResponse{Error: err.Error(), PlanCache: pc}
		if ctx.Err() == context.DeadlineExceeded {
			return resp, http.StatusGatewayTimeout
		}
		return resp, statusClientClosed
	}

	resp.Columns = res.Names
	resp.RowCount = len(res.Rows)
	n := len(res.Rows)
	if n > s.cfg.MaxResultRows {
		n = s.cfg.MaxResultRows
		resp.Truncated = true
	}
	resp.Rows = make([][]any, n)
	for i := 0; i < n; i++ {
		row := make([]any, len(res.Rows[i]))
		for j, v := range res.Rows[i] {
			row[j] = cellJSON(v)
		}
		resp.Rows[i] = row
	}
	return resp, http.StatusOK
}

func cellJSON(v exec.Value) any {
	if v.Null {
		return nil
	}
	switch v.Typ {
	case vec.F64:
		return v.F
	case vec.Str:
		return v.S
	case vec.I128:
		return v.I128.String()
	default:
		return v.I
	}
}

// metricsView is the GET /metrics JSON document. Flat keys on purpose:
// scrapers (and the CI smoke job) match them with plain string tools.
type metricsView struct {
	QueriesStarted  int64 `json:"queries_started"`
	QueriesFinished int64 `json:"queries_finished"`
	QueriesRejected int64 `json:"queries_rejected"`
	QueriesCanceled int64 `json:"queries_canceled"`
	QueriesFailed   int64 `json:"queries_failed"`
	RowsReturned    int64 `json:"rows_returned"`
	WritesCommitted int64 `json:"writes_committed"`

	PlanCacheHits    int64 `json:"plan_cache_hits"`
	PlanCacheMisses  int64 `json:"plan_cache_misses"`
	PlanCacheEntries int   `json:"plan_cache_entries"`

	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`

	USSRPoolReused    int64 `json:"ussr_pool_reused"`
	USSRPoolAllocated int64 `json:"ussr_pool_allocated"`
	USSRPoolDirty     int64 `json:"ussr_pool_dirty"`

	Latency latencySummary `json:"latency"`

	// EngineStatsMs is the paper's per-primitive breakdown (Figure 6
	// buckets) summed over every query served, read race-free via
	// exec.Stats.Snapshot while queries may still be flushing.
	EngineStatsMs map[string]float64 `json:"engine_stats_ms"`

	CatalogVersion uint64  `json:"catalog_version"`
	Tables         int     `json:"tables"`
	Workers        int     `json:"workers"`
	UptimeSec      float64 `json:"uptime_sec"`

	// Storage is the resident-footprint accounting of optimistic seal
	// compression: per-table compressed (actually resident) bytes against
	// the would-be-plain size, plus the process-wide seal counters.
	Storage storageView `json:"storage"`

	// Ingest is present only when a write path is attached; its fields
	// stay nested so read-only deployments keep a stable flat document.
	Ingest *ingest.Stats `json:"ingest,omitempty"`
}

// storageView is the /metrics storage-footprint section.
type storageView struct {
	CompressMode      string                    `json:"compress_mode"`
	CompressedBlocks  int64                     `json:"compressed_blocks"`
	CompressFallbacks int64                     `json:"compress_fallbacks"`
	ResidentBytes     int64                     `json:"resident_bytes"`
	WouldBePlainBytes int64                     `json:"would_be_plain_bytes"`
	Tables            map[string]tableFootprint `json:"tables"`
}

// tableFootprint is one table's resident-vs-plain byte accounting.
type tableFootprint struct {
	ResidentBytes     int64 `json:"resident_bytes"`
	WouldBePlainBytes int64 `json:"would_be_plain_bytes"`
}

// storageMetrics walks the catalog snapshot and sums per-table footprints.
func (s *Server) storageMetrics() storageView {
	snap := s.cat.Snapshot()
	comp, fb := storage.CompressionStats()
	sv := storageView{
		CompressMode:      storage.SealCompression().String(),
		CompressedBlocks:  comp,
		CompressFallbacks: fb,
		Tables:            map[string]tableFootprint{},
	}
	for _, name := range snap.Names() {
		t, ok := snap.TableOK(name)
		if !ok {
			continue
		}
		c, p := t.Footprint()
		sv.Tables[name] = tableFootprint{ResidentBytes: c, WouldBePlainBytes: p}
		sv.ResidentBytes += c
		sv.WouldBePlainBytes += p
	}
	return sv
}

// Metrics assembles the current counter snapshot.
func (s *Server) Metrics() any {
	inFlight, queued := s.adm.depth()
	engine := map[string]float64{}
	for k, d := range s.stats.Snapshot() {
		engine[k] = float64(d.Microseconds()) / 1000
	}
	var ing *ingest.Stats
	if s.ing != nil {
		st := s.ing.Stats()
		ing = &st
	}
	return metricsView{
		QueriesStarted:  s.met.started.Load(),
		QueriesFinished: s.met.finished.Load(),
		QueriesRejected: s.met.rejected.Load(),
		QueriesCanceled: s.met.canceled.Load(),
		QueriesFailed:   s.met.failed.Load(),
		RowsReturned:    s.met.rows.Load(),
		WritesCommitted: s.met.writes.Load(),

		PlanCacheHits:    s.cache.hits.Load(),
		PlanCacheMisses:  s.cache.misses.Load(),
		PlanCacheEntries: s.cache.size(),

		InFlight:   inFlight,
		QueueDepth: queued,

		USSRPoolReused:    s.pool.reused.Load(),
		USSRPoolAllocated: s.pool.allocated.Load(),
		USSRPoolDirty:     s.pool.dirty.Load(),

		Latency:       s.met.latency.summary(),
		EngineStatsMs: engine,

		CatalogVersion: s.cat.Version(),
		Tables:         s.cat.Tables(),
		Workers:        s.cfg.Workers,
		UptimeSec:      time.Since(s.start).Seconds(),

		Storage: s.storageMetrics(),

		Ingest: ing,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"tables":   s.cat.Tables(),
		"writable": s.ing != nil,
		"uptime":   time.Since(s.start).String(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
