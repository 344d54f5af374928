package exec

import (
	"fmt"

	"ocht/internal/storage"
)

// This file clones operator pipelines for the parallel workers. A clone
// shares everything immutable — stored tables, prebuilt join hash tables,
// compiled LIKE patterns — and owns everything an Open/Next cycle mutates:
// expression buffers, selection vectors, scan positions, probe scratch.

// cloneExpr deep-copies an expression tree. Configuration and derived
// typing are copied by value; the per-batch output buffer and the string,
// selection and decode scratch stay nil so each clone lazily allocates
// its own.
func cloneExpr(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	c := *e
	c.buf = nil
	c.scratch = nil
	c.codeOK = nil
	c.codeDict = nil
	c.sels = [4][]int32{}
	c.ints = [2][]int64{}
	c.vals = cloneExprs(e.vals)
	c.l = cloneExpr(e.l)
	c.r = cloneExpr(e.r)
	c.el = cloneExpr(e.el)
	return &c
}

// clonePipeline copies the operator chain rooted at o for one worker.
// Scans claim their blocks from morsels (as the given worker, so affinity
// queues serve each clone its own contiguous range first); HashJoins keep
// the original (shared) build subtree but mark the already-built join
// table as prebuilt so the clone's Open only prepares a private probe
// cursor. HashAgg clones get a private group table, which pre-aggregates
// the clone's own morsel stream after setup and flushes partial records
// for the partition owners — except an aggregation the driver has already
// filled, the spine's source, whose clone is a partScan over the
// partitions the worker claims.
func clonePipeline(o Op, morsels *storage.MorselQueue, worker int) Op {
	switch t := o.(type) {
	case *Scan:
		return &Scan{Table: t.Table, Columns: t.Columns, Morsels: morsels, MorselWorker: worker, Zones: t.Zones}
	case *Filter:
		return NewFilter(clonePipeline(t.Child, morsels, worker), cloneExpr(t.Pred))
	case *Project:
		return NewProject(clonePipeline(t.Child, morsels, worker), t.Names, cloneExprs(t.Exprs))
	case *HashJoin:
		if t.j == nil {
			panic("exec: cloning a HashJoin whose build has not run")
		}
		return &HashJoin{
			Build:         t.Build, // shared, never opened by the clone
			Probe:         clonePipeline(t.Probe, morsels, worker),
			BuildKeys:     t.BuildKeys,
			ProbeKeys:     t.ProbeKeys,
			Payload:       t.Payload,
			Kind:          t.Kind,
			Residual:      cloneExpr(t.Residual),
			PartitionBits: t.PartitionBits,
			prebuilt:      t.j,
		}
	case *HashAgg:
		if t.driverOpened {
			// A filled aggregation is the spine's source: the clone emits
			// the groups of the partitions it claims.
			return &partScan{src: t, morsels: morsels, worker: worker}
		}
		c := NewHashAgg(clonePipeline(t.Child, morsels, worker), t.KeyNames, cloneExprs(t.Keys), cloneAggs(t.Aggs))
		c.PartitionBits = t.PartitionBits
		return c
	default:
		panic(fmt.Sprintf("exec: cannot clone operator %T", o))
	}
}

// ClonePlan deep-copies an unexecuted operator tree: every operator,
// expression and join build subtree is cloned, sharing only the immutable
// stored tables. Unlike the worker clones above it does not expect join
// tables to be prebuilt, which makes it safe for reusing a cached plan
// template across queries — each execution opens and builds its own
// operator state.
func ClonePlan(o Op) Op {
	switch t := o.(type) {
	case *Scan:
		return &Scan{Table: t.Table, Columns: t.Columns, Zones: t.Zones}
	case *Filter:
		return NewFilter(ClonePlan(t.Child), cloneExpr(t.Pred))
	case *Project:
		return NewProject(ClonePlan(t.Child), t.Names, cloneExprs(t.Exprs))
	case *HashJoin:
		c := NewHashJoin(t.Kind, ClonePlan(t.Probe), ClonePlan(t.Build), t.ProbeKeys, t.BuildKeys, t.Payload)
		c.Residual = cloneExpr(t.Residual)
		c.PartitionBits = t.PartitionBits
		return c
	case *HashAgg:
		c := NewHashAgg(ClonePlan(t.Child), t.KeyNames, cloneExprs(t.Keys), cloneAggs(t.Aggs))
		c.PartitionBits = t.PartitionBits
		return c
	case *Exchange:
		// Rows are never mutated by execution; clones may share them.
		return NewExchange(t.Names, t.Types, t.Rows)
	case *MergeAgg:
		return NewMergeAgg(ClonePlan(t.Child), t.NKeys, t.Specs)
	default:
		panic(fmt.Sprintf("exec: cannot clone operator %T", o))
	}
}

func cloneExprs(es []*Expr) []*Expr {
	out := make([]*Expr, len(es))
	for i, e := range es {
		out[i] = cloneExpr(e)
	}
	return out
}

func cloneAggs(as []AggExpr) []AggExpr {
	out := make([]AggExpr, len(as))
	for i, a := range as {
		out[i] = AggExpr{Func: a.Func, Arg: cloneExpr(a.Arg), Name: a.Name}
	}
	return out
}
