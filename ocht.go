// Package ocht is the public API of the optimistically-compressed-hash-
// tables engine: a vectorized analytical query engine implementing the
// three techniques of Gubner, Leis and Boncz, "Efficient Query Processing
// with Optimistically Compressed Hash Tables & Strings in the USSR"
// (ICDE 2020):
//
//   - Domain-Guided Prefix Suppression — bit-packing hash-table keys and
//     payloads using min/max domain information,
//   - Optimistic Splitting — hot/cold decomposition of aggregates and
//     exceptions,
//   - the USSR — a query-lifetime dictionary of frequent strings with
//     pre-computed hashes and reference equality.
//
// Basic usage:
//
//	db := ocht.NewDB()
//	b := db.CreateTable("sales", ocht.ColStr("region"), ocht.ColInt64("amount"))
//	b.Row("north", 100).Row("south", 250)
//	b.Finish()
//
//	q := db.Query(ocht.All()).
//		Scan("sales").
//		GroupBy("region").
//		Agg(ocht.Sum("amount"), ocht.CountAll())
//	res := q.Run()
//	fmt.Println(res)
//
// The per-query Flags select which techniques run; ocht.Vanilla() is the
// uncompressed baseline every experiment compares against.
package ocht

import (
	"fmt"
	"io"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/sql"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// Flags selects the paper's techniques per query.
type Flags = core.Flags

// Vanilla returns the baseline configuration (no compression, no
// splitting, heap strings).
func Vanilla() Flags { return core.Vanilla() }

// All enables Domain-Guided Prefix Suppression, Optimistic Splitting and
// the USSR.
func All() Flags { return core.All() }

// Result is a materialized query result.
type Result = exec.Result

// DB is a catalog of in-memory columnar tables.
type DB struct {
	cat *storage.Catalog
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{cat: storage.NewCatalog()} }

// Open loads a database previously written with Save.
func Open(dir string) (*DB, error) {
	cat, err := storage.LoadCatalog(dir)
	if err != nil {
		return nil, err
	}
	return &DB{cat: cat}, nil
}

// Save writes every table to <dir>/<table>.ocht in the engine's columnar
// format (blocks, per-block dictionaries, zone maps in the footer).
func (db *DB) Save(dir string) error { return db.cat.Save(dir) }

// ImportCSV loads a CSV stream (with a header row) as a new table,
// inferring int64/float64/string column types and nullability from the
// data.
func (db *DB) ImportCSV(name string, r io.Reader) error {
	t, err := storage.ReadCSV(name, r, storage.CSVOptions{Header: true})
	if err != nil {
		return err
	}
	db.cat.Add(t)
	return nil
}

// ExportCSV writes a table as CSV with a header row.
func (db *DB) ExportCSV(w io.Writer, table string) error {
	return storage.WriteCSV(w, db.cat.Table(table), storage.CSVOptions{})
}

// ColSpec declares a column of a new table.
type ColSpec struct {
	Name     string
	Type     vec.Type
	Nullable bool
}

// ColInt64 declares a 64-bit integer column.
func ColInt64(name string) ColSpec { return ColSpec{Name: name, Type: vec.I64} }

// ColInt32 declares a 32-bit integer column.
func ColInt32(name string) ColSpec { return ColSpec{Name: name, Type: vec.I32} }

// ColFloat declares a float64 column.
func ColFloat(name string) ColSpec { return ColSpec{Name: name, Type: vec.F64} }

// ColStr declares a string column (dictionary-compressed per block).
func ColStr(name string) ColSpec { return ColSpec{Name: name, Type: vec.Str} }

// Null marks a column spec nullable.
func (c ColSpec) Null() ColSpec { c.Nullable = true; return c }

// Builder loads rows into a new table.
type Builder struct {
	db   *DB
	tab  *storage.Table
	cols []*storage.Column
}

// CreateTable registers a new table and returns its row builder.
func (db *DB) CreateTable(name string, specs ...ColSpec) *Builder {
	cols := make([]*storage.Column, len(specs))
	for i, s := range specs {
		cols[i] = storage.NewColumn(s.Name, s.Type, s.Nullable)
	}
	tab := storage.NewTable(name, cols...)
	return &Builder{db: db, tab: tab, cols: cols}
}

// Row appends one row; values must match the column order and types:
// int/int64/int32 for integer columns, float64, string, or nil for NULL.
func (b *Builder) Row(values ...interface{}) *Builder {
	if len(values) != len(b.cols) {
		panic(fmt.Sprintf("ocht: row has %d values, table has %d columns", len(values), len(b.cols)))
	}
	for i, v := range values {
		c := b.cols[i]
		switch x := v.(type) {
		case nil:
			c.AppendNull()
		case int:
			c.AppendInt(int64(x))
		case int32:
			c.AppendInt(int64(x))
		case int64:
			c.AppendInt(x)
		case float64:
			c.AppendFloat(x)
		case string:
			c.AppendString(x)
		default:
			panic(fmt.Sprintf("ocht: unsupported value %T for column %s", v, c.Name))
		}
	}
	return b
}

// Finish seals the table and registers it with the database.
func (b *Builder) Finish() {
	b.tab.Seal()
	b.db.cat.Add(b.tab)
}

// Catalog exposes the underlying storage catalog (for the workload
// generators in internal/tpch and internal/bi).
func (db *DB) Catalog() *storage.Catalog { return db.cat }

// AddTable registers an externally built storage table.
func (db *DB) AddTable(t *storage.Table) { db.cat.Add(t) }

// Query starts a fluent query under the given flags.
func (db *DB) Query(flags Flags) *Query {
	return &Query{db: db, qc: exec.NewQCtx(flags)}
}

// SQL parses and executes a SELECT statement under the given flags.
// The supported subset: expressions with arithmetic, comparisons,
// AND/OR/NOT, LIKE, IN, BETWEEN, IS [NOT] NULL, CASE, SUBSTRING and
// CAST(... AS FLOAT); SUM/COUNT/MIN/MAX/AVG aggregates; INNER and LEFT
// JOINs on equality conditions; WHERE, GROUP BY, HAVING, ORDER BY, LIMIT.
func (db *DB) SQL(flags Flags, query string) (*Result, error) {
	return sql.Run(query, db.cat, exec.NewQCtx(flags))
}

// SQLWithContext executes a SELECT statement under an existing query
// context, so callers can inspect footprints and primitive timings after
// the run.
func (db *DB) SQLWithContext(qc *exec.QCtx, query string) (*Result, error) {
	return sql.Run(query, db.cat, qc)
}

// Query is a fluent single-pipeline query builder: scan, optional filter,
// group-by with aggregates, order and limit. For arbitrary plans (joins,
// nested aggregation) use the exec operators directly via Plan.
type Query struct {
	db      *DB
	qc      *exec.QCtx
	op      exec.Op
	meta    []exec.Meta
	keys    []string
	aggs    []exec.AggExpr
	orderBy []exec.SortKey
	limit   int
	err     error
}

// Scan selects the source table (and optionally a column subset).
func (q *Query) Scan(table string, columns ...string) *Query {
	s := exec.NewScan(q.db.cat.Table(table), columns...)
	q.op = s
	q.meta = s.Meta()
	return q
}

// Cond builds predicates against the current scan's columns.
type Cond func(m []exec.Meta) *exec.Expr

// Where adds a filter predicate.
func (q *Query) Where(pred Cond) *Query {
	q.op = exec.NewFilter(q.op, pred(q.meta))
	return q
}

// GroupBy sets the grouping columns.
func (q *Query) GroupBy(cols ...string) *Query {
	q.keys = cols
	return q
}

// AggSpec is one aggregate of a fluent query.
type AggSpec struct {
	fn   agg.Func
	col  string
	name string
}

// As renames the aggregate output column.
func (a AggSpec) As(name string) AggSpec { a.name = name; return a }

// Sum aggregates SUM(col).
func Sum(col string) AggSpec { return AggSpec{fn: agg.Sum, col: col, name: "sum_" + col} }

// Min aggregates MIN(col).
func Min(col string) AggSpec { return AggSpec{fn: agg.Min, col: col, name: "min_" + col} }

// Max aggregates MAX(col).
func Max(col string) AggSpec { return AggSpec{fn: agg.Max, col: col, name: "max_" + col} }

// Count aggregates COUNT(col), skipping NULLs.
func Count(col string) AggSpec { return AggSpec{fn: agg.Count, col: col, name: "count_" + col} }

// CountAll aggregates COUNT(*).
func CountAll() AggSpec { return AggSpec{fn: agg.CountStar, name: "count"} }

// Avg aggregates AVG(col).
func Avg(col string) AggSpec { return AggSpec{fn: exec.Avg, col: col, name: "avg_" + col} }

// Agg adds aggregates to the query.
func (q *Query) Agg(specs ...AggSpec) *Query {
	for _, s := range specs {
		ae := exec.AggExpr{Func: s.fn, Name: s.name}
		if s.col != "" {
			ae.Arg = exec.Col(q.meta, s.col)
		}
		q.aggs = append(q.aggs, ae)
	}
	return q
}

// OrderBy sorts the result by the given output column (descending when
// desc).
func (q *Query) OrderBy(col int, desc bool) *Query {
	q.orderBy = append(q.orderBy, exec.SortKey{Col: col, Desc: desc})
	return q
}

// Limit truncates the result to its first n rows; 0 = no limit.
func (q *Query) Limit(n int) *Query {
	q.limit = n
	return q
}

// Run executes the query and materializes the result.
func (q *Query) Run() *Result {
	root := q.op
	if len(q.keys) > 0 || len(q.aggs) > 0 {
		keyExprs := make([]*exec.Expr, len(q.keys))
		for i, k := range q.keys {
			keyExprs[i] = exec.Col(q.meta, k)
		}
		root = exec.NewHashAgg(root, q.keys, keyExprs, q.aggs)
	}
	limit := -1
	if q.limit > 0 {
		limit = q.limit
	}
	return exec.RunSorted(q.qc, root, q.orderBy, limit)
}

// Plan runs an arbitrary operator tree built with the exec package under
// this query's context.
func (q *Query) Plan(root exec.Op) *Result { return exec.Run(q.qc, root) }

// Context exposes the underlying execution context (flags, string store,
// primitive-time stats, hash-table footprint accounting).
func (q *Query) Context() *exec.QCtx { return q.qc }

// HashTableBytes reports the summed footprint of the hash tables the last
// Run built.
func (q *Query) HashTableBytes() int { return q.qc.HashTableBytes() }

// HashTableHotBytes reports the hot working set of those hash tables —
// the part whose cache residency determines access latency. Optimistic
// Splitting shrinks this even when it grows the total footprint
// (Section III).
func (q *Query) HashTableHotBytes() int { return q.qc.HashTableHotBytes() }
