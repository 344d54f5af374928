// Package exec implements the vectorized query engine the three paper
// techniques are integrated into: pull-based operators exchanging batches
// of 1024 values with selection vectors, expression evaluation with
// bottom-up domain derivation, and hash join / hash aggregation on
// optimistically compressed hash tables.
package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ocht/internal/core"
	"ocht/internal/i128"
	"ocht/internal/strs"
	"ocht/internal/ussr"
	"ocht/internal/vec"
)

// nullStrRef marks SQL NULL string values in-flight.
const nullStrRef = strs.NullRef

// QCtx is the per-query execution context: technique flags, the query's
// string store (heap + USSR), the primitive-time breakdown, and the
// registry of hash tables for footprint accounting.
type QCtx struct {
	Flags core.Flags
	Store *strs.Store
	Stats *Stats

	// Workers selects the degree of morsel-driven parallelism. Values <= 1
	// run the classic serial pull loop; higher values split table scans
	// into row-sized morsels executed by Workers goroutines, each with
	// private compressed hash tables and a private string heap, for the
	// query's aggregation frontier and for each large join build side
	// (DESIGN.md, "Parallel execution").
	Workers int

	// EagerMaterialize forces scans to decompress every block into plain
	// vectors before any operator runs — the pre-compressed-execution
	// behavior, kept as the mandatory fallback and equivalence oracle. The
	// default (false) is holistic compressed execution: scans emit
	// dictionary codes and bit-packed words zero-copy and operators
	// materialize late.
	EagerMaterialize bool

	// DisableZoneSkip turns off zone-map block skipping independent of the
	// scan encoding; TestZoneSkipBlocks uses it as its decompression
	// baseline.
	DisableZoneSkip bool

	tables []*core.Table

	// workerFootprints records, per parallel worker, the bytes of the
	// hash tables it built, summed over every parallel phase of the most
	// recent Run; nil when that Run was serial.
	workerFootprints []int

	// par is the driver state of the parallel Run in progress. It is nil
	// outside a parallel Run and always nil in the worker contexts
	// themselves, so a join build only fans out from the driver.
	par *parallelRun

	// done, when non-nil, is the query's cancellation signal (a
	// context.Done() channel). Operators poll it at batch/morsel
	// granularity via checkCancel and unwind with an internal panic that
	// RunCtx (or CatchCancel) converts into ErrCanceled.
	done <-chan struct{}
}

// NewQCtx creates a query context under the given flags.
func NewQCtx(flags core.Flags) *QCtx {
	return &QCtx{Flags: flags, Store: strs.NewStore(flags.UseUSSR), Stats: NewStats()}
}

// NewQCtxUSSR creates a query context whose string store wraps the given
// (pooled) USSR instead of allocating a fresh 768 kB region. u must be
// unfrozen and empty; a nil u behaves exactly like NewQCtx.
func NewQCtxUSSR(flags core.Flags, u *ussr.USSR) *QCtx {
	if u == nil || !flags.UseUSSR {
		return NewQCtx(flags)
	}
	return &QCtx{Flags: flags, Store: strs.NewStoreUSSR(u), Stats: NewStats()}
}

// AttachContext arms cancellation: from here on the engine polls
// ctx.Done() once per batch/morsel and aborts execution when it fires.
// Pass nil to disarm (contexts reused from a pool must be disarmed
// between queries).
func (qc *QCtx) AttachContext(ctx context.Context) {
	if ctx == nil {
		qc.done = nil
		return
	}
	qc.done = ctx.Done()
}

// canceledPanic is the internal unwinding sentinel thrown by checkCancel
// and recovered by CatchCancel; it never escapes the package API.
type canceledPanic struct{}

// ErrCanceled is returned by RunCtx when the query was aborted by its
// context (deadline exceeded or caller cancellation).
var ErrCanceled = errors.New("exec: query canceled")

// checkCancel aborts execution when the attached context is done. It is
// called at batch/morsel granularity on every long-running operator loop,
// so a canceled query stops within one vector of work per worker.
func (qc *QCtx) checkCancel() {
	if qc.done == nil {
		return
	}
	select {
	case <-qc.done:
		panic(canceledPanic{})
	default:
	}
}

// CatchCancel invokes f and converts the engine's internal cancellation
// unwind into ErrCanceled; every other panic passes through. Callers that
// drive plans directly (the CLIs, tpch.QContext) wrap Run with it.
func CatchCancel(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(canceledPanic); ok {
				err = ErrCanceled
				return
			}
			panic(p)
		}
	}()
	f()
	return nil
}

// RunCtx executes the plan under ctx: the context's deadline and
// cancellation are polled per batch by every operator loop (including the
// parallel workers), so long scans actually stop. On cancellation all
// worker goroutines have exited by the time RunCtx returns (the parallel
// driver joins them before unwinding) and the error wraps ErrCanceled.
func RunCtx(ctx context.Context, qc *QCtx, root Op) (*Result, error) {
	return RunSortedCtx(ctx, qc, root, nil, -1)
}

// RunSortedCtx is RunSorted under ctx, with RunCtx's cancellation contract.
func RunSortedCtx(ctx context.Context, qc *QCtx, root Op, keys []SortKey, limit int) (res *Result, err error) {
	qc.AttachContext(ctx)
	defer qc.AttachContext(nil)
	err = CatchCancel(func() { res = RunSorted(qc, root, keys, limit) })
	if err != nil && ctx != nil && ctx.Err() != nil {
		err = fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
	}
	return res, err
}

func (qc *QCtx) register(t *core.Table) { qc.tables = append(qc.tables, t) }

// WorkerFootprints returns, per worker, the bytes of the hash tables that
// worker built during the most recent Run, summed over all of its parallel
// phases (join builds, the aggregation frontier). It is nil after a serial
// Run.
func (qc *QCtx) WorkerFootprints() []int { return qc.workerFootprints }

// HashTableBytes returns the summed footprint of all hash tables built by
// the query (Figure 4's baseline measurements).
func (qc *QCtx) HashTableBytes() int {
	n := 0
	for _, t := range qc.tables {
		n += t.MemoryBytes()
	}
	return n
}

// HashTableHotBytes returns the summed hot-area footprint.
func (qc *QCtx) HashTableHotBytes() int {
	n := 0
	for _, t := range qc.tables {
		n += t.HotAreaBytes()
	}
	return n
}

// PeakMemoryBytes approximates the query's peak memory: hash tables plus
// string memory.
func (qc *QCtx) PeakMemoryBytes() int {
	return qc.HashTableBytes() + qc.Store.MemoryBytes()
}

// Op is a vectorized pull-based operator.
type Op interface {
	// Meta describes the output columns.
	Meta() []Meta
	// MaxRows is a worst-case bound on the number of output rows,
	// saturating at rowsCap. It drives aggregate width derivation.
	MaxRows() int64
	// Open prepares the operator tree for execution.
	Open(qc *QCtx)
	// Next returns the next batch, or nil when exhausted. The batch is
	// owned by the operator and valid until the next call.
	Next(qc *QCtx) *vec.Batch
}

// rowsCap saturates cardinality estimates.
const rowsCap = int64(1) << 62

// compressMinBuildRows is the optimizer threshold below which hash tables
// are left uncompressed: Domain-Guided Prefix Suppression "does not make
// sense for CPU cache-resident hash tables, so we do not enable it if the
// hash table is small, based on optimizer estimates" (Section V-A). The
// estimate compared against it is the table's worst-case row bound.
const compressMinBuildRows = 2048

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > rowsCap/b {
		return rowsCap
	}
	return a * b
}

// Value is one result cell.
type Value struct {
	Typ  vec.Type
	Null bool
	I    int64
	F    float64
	S    string
	I128 i128.Int
}

// String renders the value.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Typ {
	case vec.F64:
		return fmt.Sprintf("%.4f", v.F)
	case vec.Str:
		return v.S
	case vec.I128:
		return v.I128.String()
	default:
		return fmt.Sprintf("%d", v.I)
	}
}

// Less orders two values of the same type.
func (v Value) Less(o Value) bool { return compareValue(&v, &o) < 0 }

// Result is a fully materialized query result.
type Result struct {
	Names []string
	Types []vec.Type
	Rows  [][]Value
}

// Run executes the operator tree to completion and materializes the
// result. With qc.Workers > 1 execution is morsel-driven parallel when the
// plan shape supports it (see runParallel); otherwise, and always at
// Workers <= 1, it is the classic serial pull loop, so serial execution is
// byte-identical to the pre-parallel engine.
func Run(qc *QCtx, root Op) *Result { return RunSorted(qc, root, nil, -1) }

// RunSorted is Run with the result ordered by keys and cut to its first
// limit rows (limit < 0 = no limit) inside the result sink (sink.go), so
// ORDER BY ... LIMIT k boxes k rows, not every row the plan produces, and a
// bare LIMIT stops pulling once it is satisfied. Rows that tie on every
// key are ordered by their remaining columns — see Result.OrderBy.
func RunSorted(qc *QCtx, root Op, keys []SortKey, limit int) *Result {
	qc.workerFootprints = nil
	if qc.Workers > 1 {
		if res, ok := runParallel(qc, root, keys, limit); ok {
			return res
		}
	}
	root.Open(qc)
	return materialize(qc, root, keys, limit)
}

// ensurePlain returns v unchanged when it is plain; otherwise it decodes
// the given physical rows into *bufp — a reusable per-slot scratch vector,
// (re)allocated only on first use or growth — and returns the scratch.
// This is the late-materialization boundary in front of the hash-table
// kernels (core/join/agg), which operate on raw slices: only rows that
// survived filtering pay decompression. The scratch grows to the largest
// batch and is then allocation-free.
func ensurePlain(v *vec.Vector, rows []int32, bufp **vec.Vector, phys int) *vec.Vector {
	// Runtime twin of the encswitch rule: a fourth encoding added to the
	// enum must teach this boundary about itself (debug builds panic).
	vec.AssertEncHandled(v, vec.EncPlain, vec.EncDict, vec.EncPacked)
	if v.Enc == vec.EncPlain {
		return v
	}
	buf := scratchVec(bufp, v.Typ, phys)
	v.MaterializeRowsInto(buf, rows)
	return buf
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Names, " | "))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		b.WriteString(strings.Join(cells, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}
