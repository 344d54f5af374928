package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ocht/internal/exec"
	"ocht/internal/sql"
	"ocht/internal/vec"
)

// This file is the serving surface the distribution layer talks to: the
// shard subquery endpoint the coordinator fans out over, the WAL export
// endpoints replicas pull segments from, and the replication status a
// coordinator uses to route reads to caught-up replicas.

// ShardRequest is the POST /shard/query body: a shard subquery as
// produced by sql.PlanDistributed, plus the coordinator's routing
// constraints.
type ShardRequest struct {
	SQL       string `json:"sql"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	// MinCatalogVersion rejects the query with 409 when this node's
	// catalog has not reached the given version — the coordinator sets it
	// when routing to a replica that must have replayed a DDL first.
	MinCatalogVersion uint64 `json:"min_catalog_version,omitempty"`
}

// ShardResponse carries a shard subquery's full result: declared column
// types (sql.TypeTag spelling) so the coordinator can rebuild typed
// vectors, and untruncated rows — partials feed a merge, so dropping any
// would corrupt the global result. Cells are JSON scalars except I128,
// which ships as a [hi, lo] pair to survive number precision limits.
type ShardResponse struct {
	Columns        []string `json:"columns,omitempty"`
	Types          []string `json:"types,omitempty"`
	Rows           [][]any  `json:"rows,omitempty"`
	RowCount       int      `json:"row_count"`
	CatalogVersion uint64   `json:"catalog_version"`
	ElapsedMs      float64  `json:"elapsed_ms"`
	Error          string   `json:"error,omitempty"`
}

func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ShardResponse{Error: "POST only"})
		return
	}
	var req ShardRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ShardResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, ShardResponse{Error: "missing \"sql\""})
		return
	}

	s.met.started.Add(1)
	if err := s.adm.acquire(r.Context(), s.cfg.QueueTimeout); err != nil {
		s.met.rejected.Add(1)
		status := http.StatusTooManyRequests
		if !errors.Is(err, ErrSaturated) && !errors.Is(err, ErrQueueTimeout) {
			status = statusClientClosed
		}
		writeJSON(w, status, ShardResponse{Error: err.Error()})
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
	resp, status := s.executeShard(ctx, &req)
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

// executeShard runs a shard subquery through the same statement runner
// as /query, after checking the coordinator's catalog-version floor. The
// response differs in shape: typed columns, no row truncation.
func (s *Server) executeShard(ctx context.Context, req *ShardRequest) (ShardResponse, int) {
	snap := s.cat.Snapshot()
	resp := ShardResponse{CatalogVersion: snap.Version()}
	if req.MinCatalogVersion > 0 && snap.Version() < req.MinCatalogVersion {
		resp.Error = fmt.Sprintf("catalog at version %d, coordinator requires %d (replica catching up)",
			snap.Version(), req.MinCatalogVersion)
		return resp, http.StatusConflict
	}
	res, _, status, err := s.runRead(ctx, snap, req.SQL, req.Workers)
	if err != nil {
		resp.Error = err.Error()
		return resp, status
	}

	resp.Columns = res.Names
	resp.Types = make([]string, len(res.Types))
	for i, t := range res.Types {
		resp.Types[i] = sql.TypeTag(t)
	}
	resp.RowCount = len(res.Rows)
	resp.Rows = make([][]any, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]any, len(r))
		for j, v := range r {
			row[j] = shardCell(v)
		}
		resp.Rows[i] = row
	}
	return resp, http.StatusOK
}

// shardCell encodes one result cell for the exchange wire format. Unlike
// cellJSON, 128-bit values keep their exact halves: the coordinator
// reassembles them instead of printing them.
func shardCell(v exec.Value) any {
	if v.Null {
		return nil
	}
	switch v.Typ {
	case vec.F64:
		return v.F
	case vec.Str:
		return v.S
	case vec.I128:
		return []any{v.I128.Hi, v.I128.Lo}
	default:
		return v.I
	}
}

// TableInfo describes one table for GET /tables.
type TableInfo struct {
	Name     string   `json:"name"`
	Columns  []string `json:"columns"`
	Types    []string `json:"types"`
	Rows     int      `json:"rows"`
	Writable bool     `json:"writable"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	snap := s.cat.Snapshot()
	infos := []TableInfo{}
	for _, name := range snap.Names() {
		t, ok := snap.TableOK(name)
		if !ok {
			continue
		}
		ti := TableInfo{Name: name, Rows: t.Rows()}
		for _, c := range t.Cols {
			ti.Columns = append(ti.Columns, c.Name)
			ti.Types = append(ti.Types, sql.TypeTag(c.Type))
		}
		if s.ing != nil {
			ti.Writable = s.ing.Managed(name)
		}
		infos = append(infos, ti)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"catalog_version": snap.Version(),
		"tables":          infos,
	})
}

// handleWALStatus reports the committed row count (replication LSN) per
// writable table. Replicas poll it to discover new tables and pull work.
func (s *Server) handleWALStatus(w http.ResponseWriter, r *http.Request) {
	if s.ing == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "no ingest engine attached"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"catalog_version": s.cat.Version(),
		"tables":          s.ing.TableLSNs(),
	})
}

// handleWALExport streams one replication segment:
// GET /wal/export?table=T&from=N&max=M. The body is the binary segment
// (WAL framing, self-checking); X-Ocht-Next-Lsn carries the follow-up
// fetch position.
func (s *Server) handleWALExport(w http.ResponseWriter, r *http.Request) {
	if s.ing == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "no ingest engine attached"})
		return
	}
	table := r.URL.Query().Get("table")
	if table == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "missing table parameter"})
		return
	}
	from, err := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad from parameter"})
		return
	}
	maxRows := 0
	if m := r.URL.Query().Get("max"); m != "" {
		if maxRows, err = strconv.Atoi(m); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad max parameter"})
			return
		}
	}
	seg, next, err := s.ing.ExportSegment(table, from, maxRows)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Ocht-Next-Lsn", strconv.FormatInt(next, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(seg)
}

// ReplicaStatus is what a read replica reports about its catch-up state.
// The puller (internal/dist.Replica) supplies it through
// Config.ReplicaStatus.
type ReplicaStatus struct {
	Primary string `json:"primary"`
	// Tables maps table name to the replica's committed row count.
	Tables map[string]int64 `json:"tables"`
	// CaughtUp is true when the last poll found nothing left to pull.
	CaughtUp bool   `json:"caught_up"`
	LastErr  string `json:"last_error,omitempty"`
}

func (s *Server) handleReplicationStatus(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ReplicaStatus == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "not a replica"})
		return
	}
	st := s.cfg.ReplicaStatus()
	writeJSON(w, http.StatusOK, st)
}
