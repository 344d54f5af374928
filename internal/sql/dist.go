package sql

import (
	"fmt"

	"ocht/internal/agg"
	"ocht/internal/exec"
	"ocht/internal/vec"
)

// DistPlan is the two halves of a distributed SELECT: the shard subquery
// (SQL text shipped to every shard, holding everything that can run
// below the exchange boundary — base-table filters, joins, and partial
// aggregation) and the coordinator's merge fragment built over an
// Exchange of the gathered shard rows. exec.MergeAgg feeds those rows
// into the group table every single-node aggregation uses and folds them
// with agg.Fold, so the reducer shares its key coding, insert step and
// emitter with HashAgg and its fold with the parallel owners' step over
// the workers' partial records.
type DistPlan struct {
	// ShardSQL is sent verbatim to every shard.
	ShardSQL string
	// Aggregate reports whether the plan has a merge aggregation (false:
	// the shard rows pass through, the coordinator only re-sorts/limits).
	Aggregate bool
	// NKeys and Specs parameterize the coordinator's MergeAgg for
	// aggregate plans: the first NKeys exchange columns are group keys.
	NKeys int
	Specs []exec.MergeSpec
	// ShardLimit reports that ORDER BY + LIMIT were pushed into the shard
	// subquery (top-k: each shard returns its local top rows and the
	// coordinator re-sorts and re-limits the union).
	ShardLimit bool

	stmt      *SelectStmt
	keyRender map[string]int
	aggRender map[string]int
	keyNames  []string
}

// PlanDistributed splits a parsed SELECT into a shard subquery and a
// merge fragment. Every SELECT the single-node planner accepts splits:
// non-aggregate queries pass shard rows through (with top-k pushdown
// when a LIMIT is present), and aggregate queries push the grouped
// partial aggregation below the exchange, shipping AVG as SUM + COUNT and
// SUM, MIN and MAX each with the COUNT of its argument.
func PlanDistributed(stmt *SelectStmt) (*DistPlan, error) {
	hasAgg := stmt.GroupBy != nil || stmt.Having != nil
	for _, it := range stmt.Items {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	if !hasAgg {
		return planDistProjection(stmt)
	}
	return planDistAggregate(stmt)
}

// planDistProjection ships the whole non-aggregate query: the only
// coordinator work is re-sorting and re-limiting the gathered union.
func planDistProjection(stmt *SelectStmt) (*DistPlan, error) {
	shard := *stmt
	if stmt.Limit >= 0 {
		// Top-k pushdown: each shard pre-sorts and keeps its local top
		// rows; the union still contains the global top rows.
		shard.OrderBy = stmt.OrderBy
	} else {
		// A shard-local sort would be discarded by the coordinator's
		// re-sort; drop it.
		shard.OrderBy = nil
		shard.Limit = -1
	}
	return &DistPlan{
		ShardSQL:   FormatSelect(&shard),
		ShardLimit: stmt.Limit >= 0,
		stmt:       stmt,
	}, nil
}

// planDistAggregate pushes the grouped partial aggregation to shards.
// The shard subquery computes `SELECT <keys>, <partial aggs> ... GROUP BY
// <keys>` with HAVING/ORDER BY/LIMIT stripped (they need merged totals);
// the merge fragment folds the partials and re-applies them.
func planDistAggregate(stmt *SelectStmt) (*DistPlan, error) {
	d := &DistPlan{
		Aggregate: true,
		stmt:      stmt,
		keyRender: map[string]int{},
		aggRender: map[string]int{},
	}

	shard := &SelectStmt{
		Table:   stmt.Table,
		Joins:   stmt.Joins,
		Where:   stmt.Where,
		GroupBy: stmt.GroupBy,
		Limit:   -1,
	}
	for i, g := range stmt.GroupBy {
		shard.Items = append(shard.Items, SelectItem{Expr: g, Alias: fmt.Sprintf("__k%d", i)})
		name := fmt.Sprintf("key%d", i)
		if c, ok := g.(*ColRef); ok {
			name = c.Name
		}
		d.keyNames = append(d.keyNames, name)
		d.keyRender[render(g)] = i
	}
	d.NKeys = len(stmt.GroupBy)

	// Collect distinct aggregate calls across select items and HAVING —
	// the same dedup rule the single-node planner applies, so the merge
	// rewrite maps calls to columns identically.
	collect := func(n Node) error {
		return walk(n, func(n Node) error {
			f, ok := n.(*FuncCall)
			if !ok || !aggNames[f.Name] {
				return nil
			}
			if f.Distinct {
				return errf(f.nodePos(), "DISTINCT aggregates are not supported")
			}
			key := render(f)
			if _, seen := d.aggRender[key]; seen {
				return nil
			}
			ai := len(d.Specs)
			d.aggRender[key] = ai
			name := fmt.Sprintf("agg%d", ai)
			col := len(shard.Items) // next shard response column
			spec := exec.MergeSpec{Col: col, Cnt: -1, Name: name}
			alias := fmt.Sprintf("__a%d", len(shard.Items)-d.NKeys)
			switch f.Name {
			case "SUM", "MIN", "MAX":
				// The COUNT of the argument ships alongside: the merged
				// aggregate is NULL where it sums to 0.
				spec.Func = map[string]agg.Func{"SUM": agg.Sum, "MIN": agg.Min, "MAX": agg.Max}[f.Name]
				spec.Cnt = col + 1
				cnt := &FuncCall{base: f.base, Name: "COUNT", Args: f.Args}
				shard.Items = append(shard.Items,
					SelectItem{Expr: f, Alias: alias},
					SelectItem{Expr: cnt, Alias: fmt.Sprintf("__a%d", len(shard.Items)-d.NKeys+1)})
			case "COUNT":
				// Shard counts merge by summation whether COUNT(x) or
				// COUNT(*); the distinction already happened on the shard.
				if f.Star {
					spec.Func = agg.CountStar
				} else {
					spec.Func = agg.Count
				}
				shard.Items = append(shard.Items, SelectItem{Expr: f, Alias: alias})
			case "AVG":
				// AVG is not decomposable from shard averages; ship the
				// SUM and COUNT partials and finalize at the coordinator.
				spec.Func = exec.Avg
				spec.Cnt = col + 1
				sum := &FuncCall{base: f.base, Name: "SUM", Args: f.Args}
				cnt := &FuncCall{base: f.base, Name: "COUNT", Args: f.Args}
				shard.Items = append(shard.Items,
					SelectItem{Expr: sum, Alias: alias},
					SelectItem{Expr: cnt, Alias: fmt.Sprintf("__a%d", len(shard.Items)-d.NKeys+1)})
			}
			d.Specs = append(d.Specs, spec)
			return nil
		})
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, errf(0, "SELECT * cannot be combined with aggregation")
		}
		if err := collect(it.Expr); err != nil {
			return nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, err
		}
	}
	d.ShardSQL = FormatSelect(shard)
	return d, nil
}

// Merge builds the coordinator fragment above the gathered shard rows:
// src is an exec.Exchange (or any operator) whose columns follow the
// shard subquery's select list. It returns the root operator plus the
// post-run ordering and limit, mirroring Plan's contract.
func (d *DistPlan) Merge(src exec.Op) (exec.Op, []exec.SortKey, int, error) {
	stmt := d.stmt
	if !d.Aggregate {
		order, err := (&planner{}).resolveOrder(stmt, src.Meta())
		if err != nil {
			return nil, nil, 0, err
		}
		return src, order, stmt.Limit, nil
	}

	var out exec.Op = exec.NewMergeAgg(src, d.NKeys, d.Specs)
	mm := out.Meta()
	// Rename merged key columns to the single-node planner's key names,
	// so compileRewritten's name-based key lookups resolve. The exchange
	// columns arrive as __k0..; the merge output must speak key0../col
	// names instead.
	renamed := make([]exec.Meta, len(mm))
	copy(renamed, mm)
	for i := 0; i < d.NKeys; i++ {
		renamed[i].Name = d.keyNames[i]
	}
	out = renameOp{out, renamed}

	if stmt.Having != nil {
		pred, err := compileRewritten(stmt.Having, renamed, d.keyRender, d.aggRender, d.keyNames)
		if err != nil {
			return nil, nil, 0, err
		}
		out = exec.NewFilter(out, pred)
	}

	var names []string
	var exprs []*exec.Expr
	for i, it := range stmt.Items {
		e, err := compileRewritten(it.Expr, renamed, d.keyRender, d.aggRender, d.keyNames)
		if err != nil {
			return nil, nil, 0, err
		}
		names = append(names, itemName(it, i))
		exprs = append(exprs, e)
	}
	out = exec.NewProject(out, names, exprs)

	order, err := (&planner{}).resolveOrder(stmt, out.Meta())
	if err != nil {
		return nil, nil, 0, err
	}
	return out, order, stmt.Limit, nil
}

// ShardTypes maps the declared result types of a shard subquery response
// back to vector types for the Exchange. It lives here so the dist
// package needs no knowledge of type-tag spelling.
func ShardTypes(tags []string) ([]vec.Type, error) {
	out := make([]vec.Type, len(tags))
	for i, s := range tags {
		switch s {
		case "BOOL":
			out[i] = vec.Bool
		case "I8":
			out[i] = vec.I8
		case "I16":
			out[i] = vec.I16
		case "I32":
			out[i] = vec.I32
		case "I64":
			out[i] = vec.I64
		case "I128":
			out[i] = vec.I128
		case "F64":
			out[i] = vec.F64
		case "STR":
			out[i] = vec.Str
		default:
			return nil, fmt.Errorf("sql: unknown shard column type %q", s)
		}
	}
	return out, nil
}

// TypeTag is ShardTypes' inverse, used by the shard-side endpoint.
func TypeTag(t vec.Type) string {
	switch t {
	case vec.Bool:
		return "BOOL"
	case vec.I8:
		return "I8"
	case vec.I16:
		return "I16"
	case vec.I32:
		return "I32"
	case vec.I64:
		return "I64"
	case vec.I128:
		return "I128"
	case vec.F64:
		return "F64"
	case vec.Str:
		return "STR"
	}
	return fmt.Sprintf("T%d", int(t))
}

// renameOp relabels an operator's output columns without copying data.
type renameOp struct {
	exec.Op
	meta []exec.Meta
}

func (r renameOp) Meta() []exec.Meta { return r.meta }

// JoinTables lists the table names a statement touches (base first).
func JoinTables(stmt *SelectStmt) []string {
	out := []string{stmt.Table}
	for _, j := range stmt.Joins {
		out = append(out, j.Table)
	}
	return out
}
