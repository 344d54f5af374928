package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ocht/internal/core"
	"ocht/internal/ingest"
	"ocht/internal/storage"
)

// writableServer stands up a server with an attached ingest engine over
// an empty catalog. The engine is closed (checkpointing its tables) when
// the test ends.
func writableServer(t *testing.T, cfg ingest.Config) (*Server, *httptest.Server, *ingest.Engine) {
	t.Helper()
	cat := storage.NewCatalog()
	eng, err := ingest.Open(t.TempDir(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := New(cat, Config{Flags: core.All(), Workers: 2, Ingest: eng})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, eng
}

// TestWriteEndpoint drives DDL and DML through POST /query: CREATE, a
// couple of INSERTs, then reads that must observe the committed rows.
func TestWriteEndpoint(t *testing.T) {
	srv, ts, _ := writableServer(t, ingest.Config{Fsync: ingest.FsyncNone})

	qr, status := postQuery(t, ts.URL, QueryRequest{
		SQL: "CREATE TABLE ev (id BIGINT NOT NULL, kind TEXT NOT NULL, n INT)"})
	if status != http.StatusOK {
		t.Fatalf("CREATE: status %d: %s", status, qr.Error)
	}
	if qr.RowsAffected != 0 {
		t.Errorf("CREATE rows_affected = %d, want 0", qr.RowsAffected)
	}

	// Cache a plan against the empty table first, so the version bump
	// from the INSERT below must retire it.
	count := "SELECT COUNT(*) FROM ev"
	if qr, _ := postQuery(t, ts.URL, QueryRequest{SQL: count}); len(qr.Rows) != 1 || fmt.Sprint(qr.Rows[0]) != "[0]" {
		t.Fatalf("empty table count rows = %v, want [[0]]", qr.Rows)
	}

	qr, status = postQuery(t, ts.URL, QueryRequest{
		SQL: "INSERT INTO ev VALUES (1, 'put', 10), (2, 'get', NULL), (3, 'put', 30)"})
	if status != http.StatusOK || qr.RowsAffected != 3 {
		t.Fatalf("INSERT: status %d rows_affected %d: %s", status, qr.RowsAffected, qr.Error)
	}
	qr, status = postQuery(t, ts.URL, QueryRequest{
		SQL: "INSERT INTO ev (kind, id) VALUES ('del', 4)"})
	if status != http.StatusOK || qr.RowsAffected != 1 {
		t.Fatalf("column-list INSERT: status %d rows_affected %d: %s", status, qr.RowsAffected, qr.Error)
	}

	qr, status = postQuery(t, ts.URL, QueryRequest{SQL: count})
	if status != http.StatusOK {
		t.Fatalf("SELECT after write: status %d: %s", status, qr.Error)
	}
	if qr.PlanCache != "miss" {
		t.Errorf("plan_cache = %q after version bump, want miss", qr.PlanCache)
	}
	if got := renderResp(qr); fmt.Sprint(got) != fmt.Sprint([]string{"4"}) {
		t.Errorf("count = %v, want [4]", got)
	}

	qr, _ = postQuery(t, ts.URL, QueryRequest{
		SQL: "SELECT kind, COUNT(*) FROM ev GROUP BY kind"})
	got := renderResp(qr)
	want := []string{"del|1", "get|1", "put|2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("group by = %v, want %v", got, want)
	}

	// Bad writes are client errors, not 500s.
	for _, bad := range []string{
		"INSERT INTO nope VALUES (1)",
		"INSERT INTO ev VALUES (NULL, 'x', 1)",
		"CREATE TABLE ev (id BIGINT)",
	} {
		if _, status := postQuery(t, ts.URL, QueryRequest{SQL: bad}); status != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", bad, status)
		}
	}

	mv := srv.Metrics().(metricsView)
	if mv.WritesCommitted != 3 {
		t.Errorf("writes_committed = %d, want 3", mv.WritesCommitted)
	}
	if mv.Ingest == nil || mv.Ingest.RowsIngested != 4 {
		t.Errorf("ingest stats = %+v, want rows_ingested 4", mv.Ingest)
	}
}

// TestGroupByNullableDouble pins GROUP BY over a nullable DOUBLE column:
// DOUBLE keys enter the group table as bit patterns and NULL as a coded
// value, and both come back out at emission.
func TestGroupByNullableDouble(t *testing.T) {
	_, ts, _ := writableServer(t, ingest.Config{Fsync: ingest.FsyncNone})
	for _, w := range []string{
		"CREATE TABLE m (id BIGINT NOT NULL, d DOUBLE)",
		"INSERT INTO m VALUES (1, 1.5), (2, NULL), (3, 1.5)",
	} {
		if qr, status := postQuery(t, ts.URL, QueryRequest{SQL: w}); status != http.StatusOK {
			t.Fatalf("%q: status %d: %s", w, status, qr.Error)
		}
	}
	qr, status := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT d, COUNT(*) FROM m GROUP BY d"})
	if status != http.StatusOK {
		t.Fatalf("GROUP BY d: status %d: %s", status, qr.Error)
	}
	got := renderResp(qr)
	want := []string{"1.5|2", "<nil>|1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("group by d = %v, want %v", got, want)
	}
}

// TestReadOnlyServerRejectsWrites pins the behaviour of a server with no
// ingest engine: writes get 403 and /metrics has no ingest section.
func TestReadOnlyServerRejectsWrites(t *testing.T) {
	cat := testCatalog(t)
	srv := New(cat, Config{Flags: core.All()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qr, status := postQuery(t, ts.URL, QueryRequest{SQL: "INSERT INTO lineitem VALUES (1)"})
	if status != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", status)
	}
	if !strings.Contains(qr.Error, "read-only") {
		t.Errorf("error %q does not mention read-only", qr.Error)
	}
	if mv := srv.Metrics().(metricsView); mv.Ingest != nil {
		t.Errorf("read-only metrics carry ingest stats: %+v", mv.Ingest)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hv map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	if hv["writable"] != false {
		t.Errorf("healthz writable = %v, want false", hv["writable"])
	}
}

// TestConcurrentIngestAndQuery is the snapshot-isolation oracle over
// HTTP: writers stream INSERT batches while readers run aggregates. A
// reader must only ever see whole committed batches — a count that is
// not a multiple of the batch size means a query observed a
// half-published table.
func TestConcurrentIngestAndQuery(t *testing.T) {
	_, ts, _ := writableServer(t, ingest.Config{Fsync: ingest.FsyncNone})

	if qr, status := postQuery(t, ts.URL, QueryRequest{
		SQL: "CREATE TABLE feed (w BIGINT NOT NULL, v BIGINT NOT NULL)"}); status != http.StatusOK {
		t.Fatalf("CREATE: %s", qr.Error)
	}

	const (
		writers   = 3
		batches   = 20
		batchSize = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				vals := make([]string, batchSize)
				for i := range vals {
					vals[i] = fmt.Sprintf("(%d, %d)", w, b*batchSize+i)
				}
				q := "INSERT INTO feed VALUES " + strings.Join(vals, ", ")
				qr, status, err := doQuery(ts.URL, QueryRequest{SQL: q})
				if err != nil {
					errs <- err
					return
				}
				if status != http.StatusOK || qr.RowsAffected != batchSize {
					errs <- fmt.Errorf("writer %d batch %d: status %d rows %d: %s",
						w, b, status, qr.RowsAffected, qr.Error)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				qr, status, err := doQuery(ts.URL, QueryRequest{SQL: "SELECT w, COUNT(*) FROM feed GROUP BY w"})
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("reader: status %d err %v: %s", status, err, qr.Error)
					return
				}
				for _, row := range qr.Rows {
					n := int64(row[1].(float64))
					if n%batchSize != 0 {
						errs <- fmt.Errorf("reader saw torn batch: writer %v has %d rows (batch size %d)",
							row[0], n, batchSize)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	qr, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM feed"})
	if got := renderResp(qr); fmt.Sprint(got) != fmt.Sprint([]string{fmt.Sprint(writers * batches * batchSize)}) {
		t.Errorf("final count = %v, want %d", got, writers*batches*batchSize)
	}
}

// TestIsWriteSQL pins the statement router.
func TestIsWriteSQL(t *testing.T) {
	for q, want := range map[string]bool{
		"INSERT INTO t VALUES (1)":   true,
		"  \n\tinsert into t values": true,
		"create table t (a INT)":     true,
		"COPY t FROM 'x.csv'":        true,
		"SELECT * FROM insert_log":   false,
		"SELECT COUNT(*) FROM t":     false,
		"":                           false,
	} {
		if got := isWriteSQL(q); got != want {
			t.Errorf("isWriteSQL(%q) = %v, want %v", q, got, want)
		}
	}
}
