package ingest_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/ingest"
	"ocht/internal/sql"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

func openEngine(t *testing.T, dir string, cfg ingest.Config) (*ingest.Engine, *storage.Catalog) {
	t.Helper()
	cat := storage.NewCatalog()
	eng, err := ingest.Open(dir, cat, cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return eng, cat
}

// query renders a result set as canonical sorted strings, so two table
// states can be compared for exact equality.
func query(t *testing.T, tabs sql.Tables, q string) []string {
	t.Helper()
	res, err := sql.Run(q, tabs, exec.NewQCtx(core.All()))
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprint(v)
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return rows
}

func apply(t *testing.T, eng *ingest.Engine, stmt string) int64 {
	t.Helper()
	s, err := sql.ParseStatement(stmt)
	if err != nil {
		t.Fatalf("parse %q: %v", stmt, err)
	}
	n, err := eng.Apply(s)
	if err != nil {
		t.Fatalf("apply %q: %v", stmt, err)
	}
	return n
}

func eq(t *testing.T, got, want []string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

func TestApplyCreateInsertSelect(t *testing.T) {
	eng, cat := openEngine(t, t.TempDir(), ingest.Config{})
	defer eng.Close()

	apply(t, eng, `CREATE TABLE ev (id BIGINT NOT NULL, kind TEXT, score DOUBLE)`)
	v0 := cat.Version()
	if n := apply(t, eng, `INSERT INTO ev VALUES (1, 'click', 0.5), (2, 'view', 1.5), (3, NULL, 2.0)`); n != 3 {
		t.Fatalf("inserted %d rows, want 3", n)
	}
	if cat.Version() == v0 {
		t.Fatal("catalog version did not change after INSERT")
	}
	eq(t, query(t, cat, `SELECT COUNT(*), SUM(id) FROM ev`), []string{"3|6"}, "count/sum")
	eq(t, query(t, cat, `SELECT kind, COUNT(*) FROM ev WHERE kind IS NOT NULL GROUP BY kind`),
		[]string{"click|1", "view|1"}, "group by string")

	// Column-list insert: omitted columns become NULL.
	apply(t, eng, `INSERT INTO ev (score, id) VALUES (9.5, 10)`)
	eq(t, query(t, cat, `SELECT COUNT(*) FROM ev WHERE kind IS NULL`), []string{"2"}, "null kinds")
	eq(t, query(t, cat, `SELECT COUNT(*) FROM ev WHERE score >= 1.5`), []string{"3"}, "score filter")

	if !eng.Managed("ev") || eng.Managed("nope") {
		t.Fatal("Managed() wrong")
	}
}

func TestWriteErrors(t *testing.T) {
	eng, cat := openEngine(t, t.TempDir(), ingest.Config{})
	defer eng.Close()

	// A catalog table the engine does not own is read-only.
	c := storage.NewColumn("x", vec.I64, false)
	c.AppendInt(1)
	ro := storage.NewTable("frozen", c)
	ro.Seal()
	cat.Add(ro)

	apply(t, eng, `CREATE TABLE t (a TINYINT NOT NULL, b TEXT)`)
	bad := []string{
		`INSERT INTO nosuch VALUES (1)`,
		`INSERT INTO frozen VALUES (1)`,
		`CREATE TABLE t (a INT)`,
		`CREATE TABLE frozen (a INT)`,
		`INSERT INTO t VALUES (NULL, 'x')`,   // NULL into NOT NULL
		`INSERT INTO t VALUES (300, 'x')`,    // out of TINYINT range
		`INSERT INTO t VALUES (1, 2)`,        // int into TEXT
		`INSERT INTO t VALUES ('y', 'x')`,    // string into TINYINT
		`INSERT INTO t (a) VALUES (1, 'x')`,  // arity vs column list
		`INSERT INTO t (a, a) VALUES (1, 2)`, // duplicate column
		`INSERT INTO t (zz) VALUES (1)`,      // unknown column
		`COPY nosuch FROM 'x.csv'`,
	}
	for _, q := range bad {
		s, err := sql.ParseStatement(q)
		if err != nil {
			continue // rejected even earlier, at parse time
		}
		if _, err := eng.Apply(s); err == nil {
			t.Errorf("Apply(%q): expected error", q)
		}
	}
	// Errors must not have committed anything.
	eq(t, query(t, cat, `SELECT COUNT(*) FROM t`), []string{"0"}, "t empty")

	if err := apply(t, eng, `CREATE TABLE IF NOT EXISTS t (a INT)`); err != 0 {
		t.Fatal("IF NOT EXISTS should no-op")
	}
}

// TestSnapshotOracle is the concurrent ingest+query acceptance test:
// writers append batches while readers pin catalog snapshots. A pinned
// snapshot must stay frozen, every visible per-writer count must be a
// multiple of the batch size (commits are atomic), and after the writers
// join the catalog must hold exactly the committed rows.
func TestSnapshotOracle(t *testing.T) {
	eng, cat := openEngine(t, t.TempDir(), ingest.Config{
		Fsync:        ingest.FsyncNone,
		SealInterval: 10 * time.Millisecond,
	})
	defer eng.Close()
	apply(t, eng, `CREATE TABLE t (w BIGINT NOT NULL, v BIGINT NOT NULL)`)

	const (
		writers   = 4
		batches   = 30
		batchSize = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := make([]ingest.Row, batchSize)
				for i := range rows {
					rows[i] = ingest.Row{ingest.Int(int64(w)), ingest.Int(int64(b*batchSize + i))}
				}
				if _, err := eng.Insert("t", rows); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	stopRead := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				snap := cat.Snapshot()
				before := query(t, snap, `SELECT w, COUNT(*) FROM t GROUP BY w`)
				for _, row := range before {
					var w, n int64
					if _, err := fmt.Sscanf(row, "%d|%d", &w, &n); err != nil {
						t.Errorf("bad row %q", row)
						return
					}
					if n%batchSize != 0 {
						t.Errorf("writer %d shows %d rows: torn batch visible", w, n)
						return
					}
				}
				time.Sleep(time.Millisecond)
				// The pinned snapshot must not have moved.
				after := query(t, snap, `SELECT w, COUNT(*) FROM t GROUP BY w`)
				if strings.Join(before, ";") != strings.Join(after, ";") {
					t.Errorf("snapshot moved:\nbefore %v\nafter  %v", before, after)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stopRead)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := int64(writers * batches * batchSize)
	perWriter := int64(batches * batchSize)
	sumV := int64(writers) * (perWriter - 1) * perWriter / 2
	eq(t, query(t, cat, `SELECT COUNT(*), SUM(v) FROM t`),
		[]string{fmt.Sprintf("%d|%d", total, sumV)}, "post-commit totals")
	want := make([]string, writers)
	for w := 0; w < writers; w++ {
		want[w] = fmt.Sprintf("%d|%d", w, perWriter)
	}
	sort.Strings(want)
	eq(t, query(t, cat, `SELECT w, COUNT(*) FROM t GROUP BY w`), want, "per-writer counts")
}

// oracleQueries fingerprint a table state for recovery comparisons.
func oracleTP(t *testing.T, tabs sql.Tables) []string {
	t.Helper()
	var out []string
	for _, q := range []string{
		`SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM tp`,
		`SELECT tag, COUNT(*), SUM(v) FROM tp GROUP BY tag`,
		`SELECT COUNT(*) FROM tp WHERE s IS NULL`,
	} {
		out = append(out, strings.Join(query(t, tabs, q), ";"))
	}
	return out
}

func fillTP(t *testing.T, eng *ingest.Engine, start, n int) {
	t.Helper()
	const batch = 8192
	tags := []string{"alpha", "beta", "gamma"}
	for lo := start; lo < start+n; lo += batch {
		hi := lo + batch
		if hi > start+n {
			hi = start + n
		}
		rows := make([]ingest.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			r := ingest.Row{ingest.Int(int64(i)), ingest.Str(tags[i%len(tags)]), ingest.Float(float64(i) / 2)}
			if i%7 == 0 {
				r[2] = ingest.Null()
			}
			rows = append(rows, r)
		}
		if _, err := eng.Insert("tp", rows); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
}

const createTP = `CREATE TABLE tp (v BIGINT NOT NULL, tag TEXT NOT NULL, s DOUBLE)`

// TestKillRecover: ingest across a block boundary, checkpoint some of
// it, keep writing, then abandon the engine without any shutdown work (a
// simulated crash). Reopening must replay the WAL past the checkpoint
// and yield byte-identical query results.
func TestKillRecover(t *testing.T) {
	dir := t.TempDir()
	eng, cat := openEngine(t, dir, ingest.Config{Fsync: ingest.FsyncAlways, DisableSealer: true})
	apply(t, eng, createTP)

	fillTP(t, eng, 0, storage.BlockRows+500)
	if err := eng.Flush(); err != nil { // seals one full block, checkpoints it
		t.Fatalf("flush: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tp.ocht")); err != nil {
		t.Fatalf("no checkpoint file: %v", err)
	}
	fillTP(t, eng, storage.BlockRows+500, 1234) // lives only in the WAL

	want := oracleTP(t, cat)
	st := eng.Stats()
	if st.BlocksSealed != 1 || st.Checkpoints == 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	eng.Abandon() // crash: no final checkpoint, no WAL compaction

	eng2, cat2 := openEngine(t, dir, ingest.Config{Fsync: ingest.FsyncAlways, DisableSealer: true})
	defer eng2.Close()
	eq(t, oracleTP(t, cat2), want, "post-recovery oracle")
	if got := eng2.Stats().RecoveredRows; got < 1234 {
		t.Fatalf("RecoveredRows = %d, want >= 1234", got)
	}

	// The recovered table keeps accepting writes at the right row offset.
	fillTP(t, eng2, storage.BlockRows+1734, 100)
	eq(t, query(t, cat2, `SELECT COUNT(*) FROM tp`),
		[]string{fmt.Sprint(storage.BlockRows + 1834)}, "post-recovery insert")
}

// TestTornWALRecovery corrupts the log the way a crash mid-write does:
// once with a truncated trailing record, once with a flipped byte. Both
// must recover every record before the damage — loudly, never a panic.
func TestTornWALRecovery(t *testing.T) {
	dir := t.TempDir()
	eng, cat := openEngine(t, dir, ingest.Config{Fsync: ingest.FsyncAlways, DisableSealer: true})
	apply(t, eng, `CREATE TABLE t (v BIGINT NOT NULL)`)
	for b := 0; b < 10; b++ {
		rows := make([]ingest.Row, 10)
		for i := range rows {
			rows[i] = ingest.Row{ingest.Int(int64(b*10 + i))}
		}
		if _, err := eng.Insert("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	full := query(t, cat, `SELECT COUNT(*), SUM(v) FROM t`)
	eng.Abandon()

	walPath := filepath.Join(dir, "wal", "t.wal")
	good, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: a record header claiming more payload than exists.
	torn := append(append([]byte{}, good...), 2, 0xff, 0, 0, 0, 1, 2, 3, 4, 9, 9)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	eng2, cat2 := openEngine(t, dir, ingest.Config{DisableSealer: true})
	eq(t, query(t, cat2, `SELECT COUNT(*), SUM(v) FROM t`), full, "torn tail keeps all commits")
	eng2.Abandon()
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("WAL not truncated back to %d bytes: %v %v", len(good), fi.Size(), err)
	}

	// Flipped byte inside the last record: that commit is lost, the 90
	// before it survive.
	flip := append([]byte{}, good...)
	flip[len(flip)-5] ^= 0x40
	if err := os.WriteFile(walPath, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	eng3, cat3 := openEngine(t, dir, ingest.Config{DisableSealer: true})
	defer eng3.Abandon()
	eq(t, query(t, cat3, `SELECT COUNT(*), MAX(v) FROM t`), []string{"90|89"}, "flip drops last commit only")

	// A destroyed header is a hard error, not a silent empty table.
	if err := os.WriteFile(walPath, []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ingest.Open(dir, storage.NewCatalog(), ingest.Config{DisableSealer: true}); err == nil {
		t.Fatal("Open with corrupt WAL header should fail")
	}
}

func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	eng, cat := openEngine(t, dir, ingest.Config{Fsync: ingest.FsyncNone, DisableSealer: true})
	apply(t, eng, createTP)
	fillTP(t, eng, 0, 2*storage.BlockRows+100)

	walPath := filepath.Join(dir, "wal", "tp.wal")
	before, _ := os.Stat(walPath)
	if err := eng.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := oracleTP(t, cat)
	st := eng.Stats()
	if st.BlocksSealed != 2 {
		t.Fatalf("BlocksSealed = %d, want 2", st.BlocksSealed)
	}

	// Compaction runs in the WAL writer shortly after the checkpoint:
	// the log shrinks to schema + unsealed tail.
	// The counter increments after the rename that shrinks the file, so
	// wait for both rather than racing the writer goroutine between them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fi, err := os.Stat(walPath)
		if err == nil && fi.Size() < before.Size()/4 && eng.Stats().WALCompactions > 0 {
			break
		}
		if time.Now().After(deadline) {
			var size int64
			if fi != nil {
				size = fi.Size()
			}
			t.Fatalf("WAL never compacted: %d -> %d bytes, %d compactions counted",
				before.Size(), size, eng.Stats().WALCompactions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	eq(t, oracleTP(t, cat), want, "compaction is invisible to queries")

	// Clean shutdown + reopen from checkpoint + compacted WAL.
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	eng2, cat2 := openEngine(t, dir, ingest.Config{DisableSealer: true})
	defer eng2.Close()
	eq(t, oracleTP(t, cat2), want, "reopen after compaction")
}

// TestBackgroundSealer checks the sealer goroutine does the cutting on
// its own when the tail crosses a block boundary.
func TestBackgroundSealer(t *testing.T) {
	dir := t.TempDir()
	eng, cat := openEngine(t, dir, ingest.Config{
		Fsync:        ingest.FsyncNone,
		SealInterval: 5 * time.Millisecond,
	})
	defer eng.Close()
	apply(t, eng, createTP)
	fillTP(t, eng, 0, storage.BlockRows+10)

	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().BlocksSealed == 0 || eng.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sealer never cut and checkpointed a block: %+v", eng.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, "tp.ocht")); err != nil {
		t.Fatalf("sealer did not checkpoint: %v", err)
	}
	// Sealing must not change what queries see.
	eq(t, query(t, cat, `SELECT COUNT(*) FROM tp`),
		[]string{fmt.Sprint(storage.BlockRows + 10)}, "rows after sealing")
}

func TestCopyCSV(t *testing.T) {
	dir := t.TempDir()
	eng, cat := openEngine(t, dir, ingest.Config{})
	defer eng.Close()
	apply(t, eng, `CREATE TABLE m (id BIGINT NOT NULL, name TEXT, score DOUBLE)`)

	// Header maps columns by name, in any order; empty cells are NULL.
	csvPath := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(csvPath, []byte("name;id;score\nann;1;2.5\n;2;\nbob;3;9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := apply(t, eng, fmt.Sprintf(`COPY m FROM '%s' WITH HEADER DELIMITER ';'`, csvPath)); n != 3 {
		t.Fatalf("copied %d rows, want 3", n)
	}
	eq(t, query(t, cat, `SELECT COUNT(*), SUM(id) FROM m`), []string{"3|6"}, "copy totals")
	eq(t, query(t, cat, `SELECT COUNT(*) FROM m WHERE score >= 2.5`), []string{"2"}, "copy floats")
	eq(t, query(t, cat, `SELECT COUNT(*) FROM m WHERE name IS NULL`), []string{"1"}, "copy nulls")

	// Positional (no header), default comma delimiter.
	csv2 := filepath.Join(dir, "in2.csv")
	if err := os.WriteFile(csv2, []byte("10,carol,1.5\n11,dave,2.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := apply(t, eng, fmt.Sprintf(`COPY m FROM '%s'`, csv2)); n != 2 {
		t.Fatalf("copied %d rows, want 2", n)
	}
	eq(t, query(t, cat, `SELECT COUNT(*) FROM m`), []string{"5"}, "total after second copy")

	// A bad cell aborts mid-file but keeps earlier batches; the count
	// reports what committed.
	csv3 := filepath.Join(dir, "in3.csv")
	if err := os.WriteFile(csv3, []byte("20,erin,1\nnot_an_int,frank,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := sql.ParseStatement(fmt.Sprintf(`COPY m FROM '%s'`, csv3))
	if _, err := eng.Apply(s); err == nil {
		t.Fatal("bad cell should error")
	}
	// Unknown header column is rejected before any row commits.
	csv4 := filepath.Join(dir, "in4.csv")
	os.WriteFile(csv4, []byte("id,wat\n1,2\n"), 0o644)
	s, _ = sql.ParseStatement(fmt.Sprintf(`COPY m FROM '%s' WITH HEADER`, csv4))
	if _, err := eng.Apply(s); err == nil {
		t.Fatal("unknown header column should error")
	}
}

func TestIntervalFsync(t *testing.T) {
	eng, cat := openEngine(t, t.TempDir(), ingest.Config{
		Fsync:        ingest.FsyncInterval,
		SyncInterval: 5 * time.Millisecond,
	})
	defer eng.Close()
	apply(t, eng, `CREATE TABLE t (v BIGINT NOT NULL)`)
	apply(t, eng, `INSERT INTO t VALUES (1), (2), (3)`)
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().WALSyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	eq(t, query(t, cat, `SELECT SUM(v) FROM t`), []string{"6"}, "rows visible")
}

func TestClosedEngine(t *testing.T) {
	dir := t.TempDir()
	eng, _ := openEngine(t, dir, ingest.Config{})
	apply(t, eng, `CREATE TABLE t (v BIGINT NOT NULL)`)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := eng.Insert("t", []ingest.Row{{ingest.Int(1)}}); err == nil {
		t.Fatal("Insert after Close should fail")
	}
	if err := eng.CreateTable("u", []sql.ColDef{{Name: "a", Type: vec.I64, Nullable: true}}, false); err == nil {
		t.Fatal("CreateTable after Close should fail")
	}
}
