package dist

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/ingest"
	"ocht/internal/server"
	"ocht/internal/sql"
	"ocht/internal/storage"
)

// shardProc is one in-test engine process: catalog, WAL-backed engine,
// HTTP server.
type shardProc struct {
	cat *storage.Catalog
	eng *ingest.Engine
	ts  *httptest.Server
}

func startShard(t *testing.T, cfg server.Config) *shardProc {
	t.Helper()
	cat := storage.NewCatalog()
	eng, err := ingest.Open(t.TempDir(), cat, ingest.Config{DisableSealer: true})
	if err != nil {
		t.Fatalf("open shard engine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	cfg.Flags = core.All()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	cfg.Ingest = eng
	srv := server.New(cat, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &shardProc{cat: cat, eng: eng, ts: ts}
}

// render sorts and flattens coordinator rows for order-insensitive
// comparison; ordered queries compare unsorted.
func render(rows [][]exec.Value, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += "|"
			}
			s += fmt.Sprint(RenderCell(v))
		}
		out[i] = s
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

func renderRef(res *exec.Result, ordered bool) []string {
	rows := make([][]exec.Value, len(res.Rows))
	copy(rows, res.Rows)
	return render(rows, ordered)
}

// TestDistributedEquivalence is the tentpole's oracle: the same writes
// through the coordinator at 1, 2 and 4 shards must answer every query
// identically to a single-node engine holding all the data.
func TestDistributedEquivalence(t *testing.T) {
	writes := []string{
		"CREATE TABLE ord (okey BIGINT NOT NULL, status TEXT, price DOUBLE, qty BIGINT)",
		"CREATE TABLE dim (dstatus TEXT NOT NULL, region TEXT NOT NULL)",
		"INSERT INTO dim VALUES ('O', 'west'), ('F', 'east'), ('P', 'west')",
	}
	statuses := []string{"O", "F", "P"}
	for i := 0; i < 300; i += 25 {
		stmt := fmt.Sprintf("INSERT INTO ord VALUES (%d, '%s', %d.5, %d)", i, statuses[i%3], i%40, i%7)
		for j := i + 1; j < i+25; j++ {
			cell := fmt.Sprintf("'%s'", statuses[j%3])
			if j%11 == 0 {
				cell = "NULL"
			}
			qty := fmt.Sprintf("%d", j%7)
			if j%13 == 0 {
				qty = fmt.Sprintf("(- %d)", j%7)
			}
			stmt += fmt.Sprintf(", (%d, %s, %d.5, %s)", j, cell, j%40, qty)
		}
		writes = append(writes, stmt)
	}

	queries := []struct {
		sql     string
		ordered bool
	}{
		{"SELECT COUNT(*) FROM ord", false},
		{"SELECT status, COUNT(*), SUM(qty), MIN(qty), MAX(okey) FROM ord GROUP BY status", false},
		{"SELECT status, AVG(okey) FROM ord WHERE okey < 200 GROUP BY status", false},
		{"SELECT status, SUM(qty) FROM ord GROUP BY status HAVING SUM(qty) > 20", false},
		{"SELECT COUNT(*) FROM ord WHERE status IS NULL", false},
		{"SELECT okey, price FROM ord WHERE qty = 3 ORDER BY okey LIMIT 7", true},
		{"SELECT region, SUM(qty) FROM ord JOIN dim ON status = dstatus GROUP BY region", false},
		{"SELECT status FROM ord WHERE okey = 131", false},
		{"SELECT AVG(qty) FROM ord", false},
	}

	// Single-node reference.
	refCat := storage.NewCatalog()
	refEng, err := ingest.Open(t.TempDir(), refCat, ingest.Config{DisableSealer: true})
	if err != nil {
		t.Fatalf("open reference engine: %v", err)
	}
	defer refEng.Close()
	for _, w := range writes {
		stmt, perr := sql.ParseStatement(w)
		if perr != nil {
			t.Fatalf("parse %q: %v", w, perr)
		}
		if _, aerr := refEng.Apply(stmt); aerr != nil {
			t.Fatalf("apply %q: %v", w, aerr)
		}
	}

	for _, nShards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			var shards []ShardConfig
			for i := 0; i < nShards; i++ {
				p := startShard(t, server.Config{})
				shards = append(shards, ShardConfig{Primary: p.ts.URL})
			}
			coord, err := New(Config{
				Shards:    shards,
				Broadcast: map[string]bool{"dim": true},
				Flags:     core.All(),
				Fanout:    FanoutConfig{ShardTimeout: 30 * time.Second, Retries: 1},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, w := range writes {
				if _, werr := coord.Query(ctx, w); werr != nil {
					t.Fatalf("coordinator write %q: %v", w, werr)
				}
			}
			for _, q := range queries {
				got, gerr := coord.Query(ctx, q.sql)
				if gerr != nil {
					t.Fatalf("distributed %q: %v", q.sql, gerr)
				}
				want, rerr := sql.Run(q.sql, refCat, exec.NewQCtx(core.All()))
				if rerr != nil {
					t.Fatalf("reference %q: %v", q.sql, rerr)
				}
				g := render(got.Rows, q.ordered)
				w := renderRef(want, q.ordered)
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Errorf("%q diverged\n got: %v\nwant: %v", q.sql, g, w)
				}
			}
		})
	}
}

// TestCoordinatorCopy routes a coordinator-local CSV through the sharded
// write path and checks the load against a single-node COPY.
func TestCoordinatorCopy(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "in.csv")
	data := "id,name,score\n"
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("n%d", i%17)
		if i%19 == 0 {
			name = ""
		}
		score := fmt.Sprintf("%d.25", i%9)
		if i%23 == 0 {
			score = ""
		}
		data += fmt.Sprintf("%d,%s,%s\n", i, name, score)
	}
	if err := os.WriteFile(csvPath, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	const create = "CREATE TABLE cp (id BIGINT NOT NULL, name TEXT, score DOUBLE)"

	refCat := storage.NewCatalog()
	refEng, err := ingest.Open(t.TempDir(), refCat, ingest.Config{DisableSealer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer refEng.Close()
	for _, w := range []string{create, fmt.Sprintf("COPY cp FROM '%s' WITH HEADER", csvPath)} {
		stmt, _ := sql.ParseStatement(w)
		if _, aerr := refEng.Apply(stmt); aerr != nil {
			t.Fatalf("reference %q: %v", w, aerr)
		}
	}

	var shards []ShardConfig
	for i := 0; i < 3; i++ {
		shards = append(shards, ShardConfig{Primary: startShard(t, server.Config{}).ts.URL})
	}
	coord, err := New(Config{Shards: shards, Flags: core.All()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := coord.Query(ctx, create); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Query(ctx, fmt.Sprintf("COPY cp FROM '%s' WITH HEADER", csvPath))
	if err != nil {
		t.Fatalf("distributed COPY: %v", err)
	}
	if res.RowsAffected != 100 {
		t.Fatalf("COPY loaded %d rows, want 100", res.RowsAffected)
	}
	for _, q := range []string{
		"SELECT COUNT(*) FROM cp",
		"SELECT name, COUNT(*), SUM(id) FROM cp GROUP BY name",
		"SELECT COUNT(*) FROM cp WHERE name IS NULL",
		"SELECT MIN(id), MAX(id), AVG(id) FROM cp",
		"SELECT COUNT(*) FROM cp WHERE score > 4.0",
		"SELECT score, COUNT(*), MIN(id) FROM cp GROUP BY score", // nullable DOUBLE key
	} {
		got, gerr := coord.Query(ctx, q)
		if gerr != nil {
			t.Fatalf("distributed %q: %v", q, gerr)
		}
		want, rerr := sql.Run(q, refCat, exec.NewQCtx(core.All()))
		if rerr != nil {
			t.Fatalf("reference %q: %v", q, rerr)
		}
		if fmt.Sprint(render(got.Rows, false)) != fmt.Sprint(renderRef(want, false)) {
			t.Errorf("%q diverged\n got: %v\nwant: %v", q, render(got.Rows, false), renderRef(want, false))
		}
	}
}

// TestReplicaReadsRouting checks the read-routing half of replication:
// with a caught-up replica and replica reads enabled, shard subqueries
// land on the replica, not the primary, and still answer correctly.
func TestReplicaReadsRouting(t *testing.T) {
	primary := startShard(t, server.Config{})
	ctx := context.Background()
	cl := &Client{}
	if _, err := cl.Exec(ctx, primary.ts.URL, "CREATE TABLE rr (k BIGINT NOT NULL, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(ctx, primary.ts.URL, "INSERT INTO rr VALUES (1, 10), (2, 20), (3, NULL)"); err != nil {
		t.Fatal(err)
	}

	// Replica engine tails the primary, then serves behind a counting
	// proxy so the test can prove reads landed on it.
	rcat := storage.NewCatalog()
	reng, err := ingest.Open(t.TempDir(), rcat, ingest.Config{DisableSealer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reng.Close()
	repl := &Replica{Primary: primary.ts.URL, Engine: reng}
	if _, err := repl.CatchUp(ctx); err != nil {
		t.Fatalf("catch up: %v", err)
	}
	rsrv := server.New(rcat, server.Config{
		Flags: core.All(), Workers: 1, Ingest: reng, ReadOnly: true,
		ReplicaStatus: repl.Status,
	})
	var replicaHits atomic.Int64
	rts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/query" {
			replicaHits.Add(1)
		}
		rsrv.Handler().ServeHTTP(w, r)
	}))
	defer rts.Close()

	coord, err := New(Config{
		Shards:       []ShardConfig{{Primary: primary.ts.URL, Replicas: []string{rts.URL}}},
		Flags:        core.All(),
		ReplicaReads: true,
		StatusTTL:    time.Minute,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Query(ctx, "SELECT k, v FROM rr ORDER BY k")
	if err != nil {
		t.Fatalf("replica-routed read: %v", err)
	}
	if got := fmt.Sprint(render(res.Rows, true)); got != "[1|10 2|20 3|<nil>]" {
		t.Fatalf("replica rows = %s", got)
	}
	if replicaHits.Load() == 0 {
		t.Fatal("read did not hit the replica")
	}

	// A stale replica must be skipped: write to the primary, expire the
	// health cache, and the next read must fall back to the primary's
	// data (the replica has not replayed the new rows).
	if _, err := cl.Exec(ctx, primary.ts.URL, "INSERT INTO rr VALUES (4, 40)"); err != nil {
		t.Fatal(err)
	}
	coord2, err := New(Config{
		Shards:       []ShardConfig{{Primary: primary.ts.URL, Replicas: []string{rts.URL}}},
		Flags:        core.All(),
		ReplicaReads: true,
		StatusTTL:    time.Minute,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = coord2.Query(ctx, "SELECT COUNT(*) FROM rr")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(render(res.Rows, false)); got != "[4]" {
		t.Fatalf("post-write count = %s, want [4] (stale replica served the read?)", got)
	}
}

// scriptedShard fakes a shard endpoint with a canned per-call behavior
// sequence.
func scriptedShard(t *testing.T, script func(call int, w http.ResponseWriter, r *http.Request)) *httptest.Server {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the net/http server only watches for
		// client disconnects (canceling r.Context()) once the handler has
		// consumed the request body, and the cancellation tests rely on it.
		io.Copy(io.Discard, r.Body)
		script(int(calls.Add(1))-1, w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func okShardResponse(w http.ResponseWriter, rows [][]any) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"columns":["a"],"types":["I64"],"rows":%s,"row_count":%d}`,
		jsonRows(rows), len(rows))
}

func jsonRows(rows [][]any) string {
	if len(rows) == 0 {
		return "[]"
	}
	s := "["
	for i, r := range rows {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("[%v]", r[0])
	}
	return s + "]"
}

// TestFanoutRetriesTransient proves a shard that fails transiently twice
// still answers within the retry budget, and that a fatal error is not
// retried.
func TestFanoutRetriesTransient(t *testing.T) {
	flaky := scriptedShard(t, func(call int, w http.ResponseWriter, r *http.Request) {
		if call < 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"restarting"}`)
			return
		}
		okShardResponse(w, [][]any{{7}})
	})
	cl := &Client{}
	cfg := FanoutConfig{Retries: 2, RetryBackoff: time.Millisecond}
	res, err := Fanout(context.Background(), cl, cfg,
		[]ShardCall{{Endpoints: []string{flaky.URL}, Req: server.ShardRequest{SQL: "SELECT 1"}}})
	if err != nil {
		t.Fatalf("fanout with retries: %v", err)
	}
	if len(res[0].Rows) != 1 || res[0].Rows[0][0].I != 7 {
		t.Fatalf("rows = %+v", res[0].Rows)
	}

	var fatalCalls atomic.Int64
	fatal := scriptedShard(t, func(call int, w http.ResponseWriter, r *http.Request) {
		fatalCalls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"no such table"}`)
	})
	_, err = Fanout(context.Background(), cl, cfg,
		[]ShardCall{{Endpoints: []string{fatal.URL}, Req: server.ShardRequest{SQL: "SELECT 1"}}})
	if err == nil {
		t.Fatal("fatal shard error did not surface")
	}
	if n := fatalCalls.Load(); n != 1 {
		t.Fatalf("fatal error was retried %d times", n-1)
	}
}

// TestFanoutHedgesStragglers proves the hedge fires: a straggling first
// endpoint is overtaken by the hedge to the second.
func TestFanoutHedgesStragglers(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := scriptedShard(t, func(call int, w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		okShardResponse(w, [][]any{{1}})
	})
	fast := scriptedShard(t, func(call int, w http.ResponseWriter, r *http.Request) {
		okShardResponse(w, [][]any{{2}})
	})
	cl := &Client{}
	start := time.Now()
	res, err := Fanout(context.Background(), cl, FanoutConfig{HedgeDelay: 20 * time.Millisecond},
		[]ShardCall{{Endpoints: []string{slow.URL, fast.URL}, Req: server.ShardRequest{SQL: "SELECT 1"}}})
	if err != nil {
		t.Fatalf("hedged fanout: %v", err)
	}
	if res[0].Rows[0][0].I != 2 {
		t.Fatalf("hedge did not win: got %d", res[0].Rows[0][0].I)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("hedged call took %v, straggler was awaited", d)
	}
}

// TestFanoutCancelsSiblingsOnFatal is the cancellation satellite: the
// first fatal shard error must cancel the in-flight sibling subqueries
// rather than waiting them out.
func TestFanoutCancelsSiblingsOnFatal(t *testing.T) {
	siblingStarted, siblingCanceled := make(chan struct{}), make(chan struct{})
	hang := scriptedShard(t, func(call int, w http.ResponseWriter, r *http.Request) {
		close(siblingStarted)
		<-r.Context().Done()
		close(siblingCanceled)
	})
	fatal := scriptedShard(t, func(call int, w http.ResponseWriter, r *http.Request) {
		// Fail only once the sibling is in flight: a sibling canceled
		// before its request reached the shard never runs the handler.
		select {
		case <-siblingStarted:
		case <-time.After(10 * time.Second):
		}
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"boom"}`)
	})
	cl := &Client{}
	done := make(chan error, 1)
	go func() {
		_, err := Fanout(context.Background(), cl, FanoutConfig{},
			[]ShardCall{
				{Endpoints: []string{hang.URL}, Req: server.ShardRequest{SQL: "SELECT 1"}},
				{Endpoints: []string{fatal.URL}, Req: server.ShardRequest{SQL: "SELECT 1"}},
			})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fanout succeeded despite fatal shard")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fanout waited out the hanging sibling")
	}
	select {
	case <-siblingCanceled:
	case <-time.After(10 * time.Second):
		t.Fatal("sibling subquery was not canceled")
	}
}

// TestCoordinatorShardDown checks the partial-failure contract: with a
// shard down, a distributed query fails with a clean error naming the
// shard instead of returning partial data.
func TestCoordinatorShardDown(t *testing.T) {
	up := startShard(t, server.Config{})
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close() // connection refused from here on

	coord, err := New(Config{
		Shards: []ShardConfig{{Primary: up.ts.URL}, {Primary: down.URL}},
		Flags:  core.All(),
		Fanout: FanoutConfig{Retries: 1, RetryBackoff: time.Millisecond},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := (&Client{}).Exec(ctx, up.ts.URL, "CREATE TABLE pd (x BIGINT NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	_, err = coord.Query(ctx, "SELECT COUNT(*) FROM pd")
	if err == nil {
		t.Fatal("query over a dead shard returned data")
	}
	if got := err.Error(); !strings.Contains(got, "shard 1") {
		t.Fatalf("error %q does not name the failed shard", got)
	}
}
