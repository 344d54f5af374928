// Package dist is the scatter-gather distribution layer: a coordinator
// that hash-partitions ingest across shard engine processes, plans
// distributed queries by pushing filters and partial aggregation below
// the exchange boundary (sql.PlanDistributed), fans the shard subqueries
// out over the engines' HTTP protocol with deadlines, retries and hedged
// requests, and folds the partials with agg.Fold, the step the
// single-node parallel partition owners run. It also houses the read-replica
// puller, which ships WAL segments off a primary and replays them
// through the ordinary crash-recovery code.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ocht/internal/exec"
	"ocht/internal/i128"
	"ocht/internal/server"
	"ocht/internal/sql"
	"ocht/internal/vec"
)

// Client speaks the engine server's HTTP protocol: /query for writes,
// /shard/query for distributed subqueries, /wal/* for replication.
type Client struct {
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) hc() *http.Client {
	if c != nil && c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Error is a failed engine call, keeping the HTTP status so the fanout
// can tell transient saturation from a genuinely bad query.
type Error struct {
	Status int // 0 = transport-level failure
	Msg    string
}

func (e *Error) Error() string {
	if e.Status == 0 {
		return e.Msg
	}
	return fmt.Sprintf("http %d: %s", e.Status, e.Msg)
}

// Transient reports whether an error is worth retrying or hedging:
// transport failures (connection refused/reset — the process may be
// restarting), server saturation (429), gateway-style unavailability
// (502/503/504), and a replica mid-catch-up (409). Compile errors and
// other 4xx are fatal: retrying cannot fix the query.
func Transient(err error) bool {
	var ce *Error
	if !asError(err, &ce) {
		return true // transport errors arrive as url.Error
	}
	switch ce.Status {
	case 0, http.StatusTooManyRequests, http.StatusConflict,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// asError is errors.As specialized to *Error without importing errors in
// every call site's hot path.
func asError(err error, target **Error) bool {
	for err != nil {
		if e, ok := err.(*Error); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// ShardResult is a decoded shard subquery response: rows re-typed into
// engine values, ready to feed an exec.Exchange.
type ShardResult struct {
	Columns        []string
	Types          []vec.Type
	Rows           [][]exec.Value
	CatalogVersion uint64
}

// ShardQuery runs one shard subquery against base and decodes the typed
// result rows.
func (c *Client) ShardQuery(ctx context.Context, base string, req server.ShardRequest) (*ShardResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/shard/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.hc().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()

	dec := json.NewDecoder(hresp.Body)
	dec.UseNumber() // int64 cells must not round-trip through float64
	var sr server.ShardResponse
	if derr := dec.Decode(&sr); derr != nil {
		if hresp.StatusCode != http.StatusOK {
			return nil, &Error{Status: hresp.StatusCode, Msg: "undecodable error body"}
		}
		return nil, derr
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, &Error{Status: hresp.StatusCode, Msg: sr.Error}
	}

	types, err := sql.ShardTypes(sr.Types)
	if err != nil {
		return nil, err
	}
	out := &ShardResult{Columns: sr.Columns, Types: types, CatalogVersion: sr.CatalogVersion}
	out.Rows = make([][]exec.Value, len(sr.Rows))
	for i, r := range sr.Rows {
		if len(r) != len(types) {
			return nil, fmt.Errorf("dist: shard row %d has %d cells, want %d", i, len(r), len(types))
		}
		row := make([]exec.Value, len(r))
		for j, cell := range r {
			v, cerr := decodeCell(types[j], cell)
			if cerr != nil {
				return nil, fmt.Errorf("dist: shard row %d col %s: %w", i, sr.Columns[j], cerr)
			}
			row[j] = v
		}
		out.Rows[i] = row
	}
	return out, nil
}

// decodeCell rebuilds one engine value from its wire form (see
// server.shardCell): JSON null for NULL, json.Number for integers and
// floats, string for strings, [hi, lo] for 128-bit values.
func decodeCell(t vec.Type, cell any) (exec.Value, error) {
	if cell == nil {
		return exec.Value{Typ: t, Null: true}, nil
	}
	switch t {
	case vec.Str:
		s, ok := cell.(string)
		if !ok {
			return exec.Value{}, fmt.Errorf("want string, got %T", cell)
		}
		return exec.Value{Typ: t, S: s}, nil
	case vec.F64:
		n, ok := cell.(json.Number)
		if !ok {
			return exec.Value{}, fmt.Errorf("want number, got %T", cell)
		}
		f, err := n.Float64()
		if err != nil {
			return exec.Value{}, err
		}
		return exec.Value{Typ: t, F: f}, nil
	case vec.I128:
		pair, ok := cell.([]any)
		if !ok || len(pair) != 2 {
			return exec.Value{}, fmt.Errorf("want [hi, lo] pair, got %T", cell)
		}
		hn, hok := pair[0].(json.Number)
		ln, lok := pair[1].(json.Number)
		if !hok || !lok {
			return exec.Value{}, fmt.Errorf("bad [hi, lo] pair %v", pair)
		}
		hi, err := strconv.ParseInt(hn.String(), 10, 64)
		if err != nil {
			return exec.Value{}, err
		}
		lo, err := strconv.ParseUint(ln.String(), 10, 64)
		if err != nil {
			return exec.Value{}, err
		}
		return exec.Value{Typ: t, I128: i128.Int{Hi: hi, Lo: lo}}, nil
	default:
		n, ok := cell.(json.Number)
		if !ok {
			return exec.Value{}, fmt.Errorf("want number, got %T", cell)
		}
		i, err := strconv.ParseInt(n.String(), 10, 64)
		if err != nil {
			return exec.Value{}, err
		}
		return exec.Value{Typ: t, I: i}, nil
	}
}

// Exec runs one write statement (CREATE / INSERT / COPY) against base
// through the ordinary /query endpoint and returns rows affected.
func (c *Client) Exec(ctx context.Context, base, sqlText string) (int64, error) {
	body, err := json.Marshal(server.QueryRequest{SQL: sqlText})
	if err != nil {
		return 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.hc().Do(hreq)
	if err != nil {
		return 0, err
	}
	defer hresp.Body.Close()
	var qr server.QueryResponse
	if derr := json.NewDecoder(hresp.Body).Decode(&qr); derr != nil {
		if hresp.StatusCode != http.StatusOK {
			return 0, &Error{Status: hresp.StatusCode, Msg: "undecodable error body"}
		}
		return 0, derr
	}
	if hresp.StatusCode != http.StatusOK {
		return 0, &Error{Status: hresp.StatusCode, Msg: qr.Error}
	}
	return qr.RowsAffected, nil
}

// WALStatus fetches base's per-table replication LSNs.
func (c *Client) WALStatus(ctx context.Context, base string) (map[string]int64, uint64, error) {
	var doc struct {
		CatalogVersion uint64           `json:"catalog_version"`
		Tables         map[string]int64 `json:"tables"`
		Error          string           `json:"error"`
	}
	status, err := c.getJSON(ctx, base+"/wal/status", &doc)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, &Error{Status: status, Msg: doc.Error}
	}
	return doc.Tables, doc.CatalogVersion, nil
}

// WALExport pulls one replication segment and the next fetch position.
func (c *Client) WALExport(ctx context.Context, base, table string, from int64, maxRows int) ([]byte, int64, error) {
	url := fmt.Sprintf("%s/wal/export?table=%s&from=%d", base, table, from)
	if maxRows > 0 {
		url += fmt.Sprintf("&max=%d", maxRows)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	hresp, err := c.hc().Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer hresp.Body.Close()
	body, err := io.ReadAll(hresp.Body)
	if err != nil {
		return nil, 0, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, 0, &Error{Status: hresp.StatusCode, Msg: string(body)}
	}
	next, err := strconv.ParseInt(hresp.Header.Get("X-Ocht-Next-Lsn"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: bad X-Ocht-Next-Lsn header: %w", err)
	}
	return body, next, nil
}

// ReplicationStatus fetches a replica's catch-up state.
func (c *Client) ReplicationStatus(ctx context.Context, base string) (server.ReplicaStatus, error) {
	var rs server.ReplicaStatus
	status, err := c.getJSON(ctx, base+"/replication/status", &rs)
	if err != nil {
		return rs, err
	}
	if status != http.StatusOK {
		return rs, &Error{Status: status, Msg: rs.LastErr}
	}
	return rs, nil
}

// Tables fetches base's table listing and catalog version.
func (c *Client) Tables(ctx context.Context, base string) ([]server.TableInfo, uint64, error) {
	var doc struct {
		CatalogVersion uint64             `json:"catalog_version"`
		Tables         []server.TableInfo `json:"tables"`
		Error          string             `json:"error"`
	}
	status, err := c.getJSON(ctx, base+"/tables", &doc)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, &Error{Status: status, Msg: doc.Error}
	}
	return doc.Tables, doc.CatalogVersion, nil
}

func (c *Client) getJSON(ctx context.Context, url string, out any) (int, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	hresp, err := c.hc().Do(hreq)
	if err != nil {
		return 0, err
	}
	defer hresp.Body.Close()
	if derr := json.NewDecoder(hresp.Body).Decode(out); derr != nil && hresp.StatusCode == http.StatusOK {
		return hresp.StatusCode, derr
	}
	return hresp.StatusCode, nil
}
