package sql

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"ocht/internal/agg"
	"ocht/internal/exec"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// Tables resolves table names at plan time. Both *storage.Catalog and
// *storage.Snapshot implement it; planning against a snapshot pins the
// query to one immutable catalog version while ingest commits continue
// to land (DESIGN.md, "Write path & snapshots").
type Tables interface {
	Table(name string) *storage.Table
}

// Run parses, plans and executes a SELECT statement under the given query
// context (which carries the technique flags).
func Run(query string, cat Tables, qc *exec.QCtx) (*exec.Result, error) {
	return RunCtx(context.Background(), query, cat, qc)
}

// RunCtx is Run under a cancellation context: the deadline (or caller
// cancellation) is polled per batch by every operator, so long scans
// stop and the call returns an error wrapping exec.ErrCanceled.
func RunCtx(ctx context.Context, query string, cat Tables, qc *exec.QCtx) (*exec.Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	root, order, limit, err := Plan(stmt, cat)
	if err != nil {
		return nil, err
	}
	return exec.RunSortedCtx(ctx, qc, root, order, limit)
}

// Plan compiles a parsed statement to an operator tree plus the ordering
// and limit (-1 = none) to run it under (exec.RunSorted).
func Plan(stmt *SelectStmt, cat Tables) (exec.Op, []exec.SortKey, int, error) {
	p := &planner{cat: cat}
	op, err := p.plan(stmt)
	if err != nil {
		return nil, nil, 0, err
	}
	order, err := p.resolveOrder(stmt, op.Meta())
	if err != nil {
		return nil, nil, 0, err
	}
	return op, order, stmt.Limit, nil
}

type planner struct {
	cat Tables
}

func (p *planner) plan(stmt *SelectStmt) (exec.Op, error) {
	tables := []*storage.Table{p.cat.Table(stmt.Table)}
	for _, j := range stmt.Joins {
		tables = append(tables, p.cat.Table(j.Table))
	}

	// Predicate pushdown: a WHERE conjunct whose columns all belong to one
	// table filters that table's scan, if the table is the base table or
	// an inner join's build side. There Filter.Open can derive zone ranges
	// for the scan, and a build hash table holds only the rows that pass.
	// Dropping those rows early removes only rows the WHERE would drop: a
	// join pairs each of its output rows with one row of each such table.
	// A conjunct over a LEFT JOIN's build table stays above the joins,
	// because it must also drop the NULL-extended rows; so do conjuncts
	// over two or more tables and conjuncts with no column.
	pushed := make([][]Node, len(tables))
	var residual []Node
	if stmt.Where != nil {
		for _, c := range flattenAnd(stmt.Where) {
			if t := ownerTable(c, tables); t == 0 || t > 0 && !stmt.Joins[t-1].Left {
				pushed[t] = append(pushed[t], c)
			} else {
				residual = append(residual, c)
			}
		}
	}

	// Column pruning: each scan reads only the columns the statement
	// references, and each join carries as payload only the build columns
	// referenced above it — by the select items, the residual WHERE,
	// GROUP BY, HAVING or a later join's ON clause. above[i] holds the
	// references above join i. A pushed conjunct's columns are scanned but
	// never carried; their names belong to one table, so only it scans them.
	star := false
	for _, it := range stmt.Items {
		star = star || it.Star
	}
	used := map[string]bool{}
	addRefs(used, residual...)
	addRefs(used, stmt.Having)
	addRefs(used, stmt.GroupBy...)
	for _, it := range stmt.Items {
		addRefs(used, it.Expr)
	}
	above := make([]map[string]bool, len(stmt.Joins))
	for i := len(stmt.Joins) - 1; i >= 0; i-- {
		above[i] = maps.Clone(used)
		addRefs(used, stmt.Joins[i].On)
	}
	for _, conjuncts := range pushed {
		addRefs(used, conjuncts...)
	}
	scan := func(t int) (exec.Op, error) {
		s := scanUsed(tables[t], used, star)
		if len(pushed[t]) == 0 {
			return s, nil
		}
		pred, err := compile(andAll(pushed[t]), s.Meta())
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(s, pred), nil
	}

	// FROM: base scan plus hash joins. A referenced column name must
	// belong to one table only.
	op, err := scan(0)
	if err != nil {
		return nil, err
	}
	scanned := slices.Clone(op.Meta())
	for i, j := range stmt.Joins {
		build, err := scan(i + 1)
		if err != nil {
			return nil, err
		}
		probeKeys, buildKeys, err := splitJoinOn(j.On, op.Meta(), build.Meta())
		if err != nil {
			return nil, err
		}
		var payload []string
		for _, m := range build.Meta() {
			if hasCol(scanned, m.Name) {
				return nil, errf(j.On.nodePos(),
					"ambiguous column %q: joined tables must have distinct column names", m.Name)
			}
			if star || above[i][m.Name] {
				payload = append(payload, m.Name)
			}
		}
		scanned = append(scanned, build.Meta()...)
		kind := exec.Inner
		if j.Left {
			kind = exec.LeftOuter
		}
		op = exec.NewHashJoin(kind, op, build, probeKeys, buildKeys, payload)
	}

	if len(residual) > 0 {
		pred, err := compile(andAll(residual), op.Meta())
		if err != nil {
			return nil, err
		}
		op = exec.NewFilter(op, pred)
	}

	hasAgg := stmt.GroupBy != nil || stmt.Having != nil
	for _, it := range stmt.Items {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	if !hasAgg {
		return p.planProjection(stmt, op)
	}
	return p.planAggregate(stmt, op)
}

// planProjection handles plain SELECTs (no aggregation).
func (p *planner) planProjection(stmt *SelectStmt, op exec.Op) (exec.Op, error) {
	meta := op.Meta()
	var names []string
	var exprs []*exec.Expr
	for i, it := range stmt.Items {
		if it.Star {
			for _, m := range meta {
				names = append(names, m.Name)
				exprs = append(exprs, exec.Col(meta, m.Name))
			}
			continue
		}
		e, err := compile(it.Expr, meta)
		if err != nil {
			return nil, err
		}
		names = append(names, itemName(it, i))
		exprs = append(exprs, e)
	}
	return exec.NewProject(op, names, exprs), nil
}

// planAggregate lowers GROUP BY/aggregate selects: (1) collect distinct
// aggregate calls and group keys, (2) build a HashAgg, (3) rewrite the
// select items (and HAVING) against its output, adding a Project/Filter
// when the items are more than bare keys and aggregates.
func (p *planner) planAggregate(stmt *SelectStmt, op exec.Op) (exec.Op, error) {
	inMeta := op.Meta()

	// Group keys, named key0.. or by their column name.
	var keyNames []string
	var keyExprs []*exec.Expr
	keyRender := map[string]int{} // render -> key index
	for i, g := range stmt.GroupBy {
		e, err := compile(g, inMeta)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("key%d", i)
		if c, ok := g.(*ColRef); ok {
			name = c.Name
		}
		keyNames = append(keyNames, name)
		keyExprs = append(keyExprs, e)
		keyRender[render(g)] = i
	}

	// Distinct aggregate calls across select items and HAVING.
	var aggs []exec.AggExpr
	aggRender := map[string]int{} // render -> agg index
	var collect func(n Node) error
	collect = func(n Node) error {
		return walk(n, func(n Node) error {
			f, ok := n.(*FuncCall)
			if !ok || !aggNames[f.Name] {
				return nil
			}
			if f.Distinct {
				return errf(f.nodePos(), "DISTINCT aggregates are not supported")
			}
			key := render(f)
			if _, seen := aggRender[key]; seen {
				return nil
			}
			ae := exec.AggExpr{Name: fmt.Sprintf("agg%d", len(aggs))}
			switch f.Name {
			case "SUM":
				ae.Func = agg.Sum
			case "MIN":
				ae.Func = agg.Min
			case "MAX":
				ae.Func = agg.Max
			case "AVG":
				ae.Func = exec.Avg
			case "COUNT":
				if f.Star {
					ae.Func = agg.CountStar
				} else {
					ae.Func = agg.Count
				}
			}
			if !f.Star {
				if len(f.Args) != 1 {
					return errf(f.nodePos(), "%s takes one argument", f.Name)
				}
				arg, err := compile(f.Args[0], inMeta)
				if err != nil {
					return err
				}
				// The aggregator folds integer (scaled-decimal) inputs;
				// a DOUBLE argument would panic deep in Update, so reject
				// it at plan time. COUNT never reads the values.
				if arg.Type() == vec.F64 && f.Name != "COUNT" {
					return errf(f.nodePos(), "%s over a DOUBLE expression is not supported", f.Name)
				}
				ae.Arg = arg
			}
			aggRender[key] = len(aggs)
			aggs = append(aggs, ae)
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

	h := exec.NewHashAgg(op, keyNames, keyExprs, aggs)
	hm := h.Meta()
	var out exec.Op = h

	if stmt.Having != nil {
		pred, err := compileRewritten(stmt.Having, hm, keyRender, aggRender, keyNames)
		if err != nil {
			return nil, err
		}
		out = exec.NewFilter(out, pred)
	}

	// Final projection: select items against the aggregation output.
	var names []string
	var exprs []*exec.Expr
	for i, it := range stmt.Items {
		e, err := compileRewritten(it.Expr, hm, keyRender, aggRender, keyNames)
		if err != nil {
			return nil, err
		}
		names = append(names, itemName(it, i))
		exprs = append(exprs, e)
	}
	return exec.NewProject(out, names, exprs), nil
}

func itemName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColRef); ok {
		return c.Name
	}
	if f, ok := it.Expr.(*FuncCall); ok {
		return strings.ToLower(f.Name)
	}
	return fmt.Sprintf("col%d", i)
}

func (p *planner) resolveOrder(stmt *SelectStmt, meta []exec.Meta) ([]exec.SortKey, error) {
	var keys []exec.SortKey
	for _, o := range stmt.OrderBy {
		idx := -1
		if o.Ordinal > 0 {
			if o.Ordinal > len(meta) {
				return nil, errf(0, "ORDER BY ordinal %d out of range", o.Ordinal)
			}
			idx = o.Ordinal - 1
		} else {
			for i, m := range meta {
				if m.Name == o.Name {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, errf(0, "ORDER BY references unknown output column %q", o.Name)
			}
		}
		keys = append(keys, exec.SortKey{Col: idx, Desc: o.Desc})
	}
	return keys, nil
}

// splitJoinOn decomposes an ON condition into equality key pairs: a
// conjunction of probeCol = buildCol terms (in either order).
func splitJoinOn(on Node, probeMeta, buildMeta []exec.Meta) (probeKeys, buildKeys []string, err error) {
	var terms []Node
	var flatten func(n Node)
	flatten = func(n Node) {
		if b, ok := n.(*BinOp); ok && b.Op == "AND" {
			flatten(b.L)
			flatten(b.R)
			return
		}
		terms = append(terms, n)
	}
	flatten(on)
	for _, t := range terms {
		b, ok := t.(*BinOp)
		if !ok || b.Op != "=" {
			return nil, nil, errf(t.nodePos(), "JOIN ON supports only equality conjunctions")
		}
		lc, lok := b.L.(*ColRef)
		rc, rok := b.R.(*ColRef)
		if !lok || !rok {
			return nil, nil, errf(t.nodePos(), "JOIN ON supports only column = column")
		}
		var pk, bk string
		switch {
		case hasCol(probeMeta, lc.Name) && hasCol(buildMeta, rc.Name):
			pk, bk = lc.Name, rc.Name
		case hasCol(probeMeta, rc.Name) && hasCol(buildMeta, lc.Name):
			pk, bk = rc.Name, lc.Name
		default:
			return nil, nil, errf(t.nodePos(),
				"JOIN ON columns %q and %q do not span the two sides", lc.Name, rc.Name)
		}
		pt, bt := colType(probeMeta, pk), colType(buildMeta, bk)
		if c := keyClass(pt); c == "" || c != keyClass(bt) {
			return nil, nil, errf(t.nodePos(),
				"JOIN ON %s = %s compares %s with %s; join keys must be both integer, both DOUBLE or both VARCHAR",
				pk, bk, pt, bt)
		}
		probeKeys = append(probeKeys, pk)
		buildKeys = append(buildKeys, bk)
	}
	if len(probeKeys) == 0 {
		return nil, nil, errf(on.nodePos(), "JOIN ON needs at least one equality")
	}
	return probeKeys, buildKeys, nil
}

// keyClass names the class of key types that can join each other, or
// "" for a type that cannot be a join key.
func keyClass(t vec.Type) string {
	switch t {
	case vec.Bool, vec.I8, vec.I16, vec.I32, vec.I64:
		return "integer"
	case vec.F64:
		return "DOUBLE"
	case vec.Str:
		return "VARCHAR"
	}
	return ""
}

// flattenAnd splits an AST predicate into its top-level AND conjuncts.
func flattenAnd(n Node) []Node {
	if b, ok := n.(*BinOp); ok && b.Op == "AND" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []Node{n}
}

// andAll rejoins conjuncts into one predicate tree.
func andAll(terms []Node) Node {
	out := terms[0]
	for _, t := range terms[1:] {
		out = &BinOp{Op: "AND", L: out, R: t}
	}
	return out
}

// scanUsed scans the columns of t that used names, in table order: all
// of them under SELECT *, and the first when the statement names none
// (COUNT(*) still needs rows to count).
func scanUsed(t *storage.Table, used map[string]bool, star bool) *exec.Scan {
	if star {
		return exec.NewScan(t)
	}
	var cols []string
	for _, c := range t.Cols {
		if used[c.Name] {
			cols = append(cols, c.Name)
		}
	}
	if len(cols) == 0 {
		cols = []string{t.Cols[0].Name}
	}
	return exec.NewScan(t, cols...)
}

// addRefs adds the column names the expressions reference to set.
func addRefs(set map[string]bool, nodes ...Node) {
	for _, n := range nodes {
		walk(n, func(n Node) error {
			if c, ok := n.(*ColRef); ok {
				set[c.Name] = true
			}
			return nil
		})
	}
}

// ownerTable returns the index of the one table that has every column
// the expression references, or -1 when it references no column or its
// columns do not all resolve in exactly one table.
func ownerTable(n Node, tables []*storage.Table) int {
	refs := map[string]bool{}
	addRefs(refs, n)
	owner := -1
	for i, t := range tables {
		all := len(refs) > 0
		for name := range refs {
			all = all && t.ColIndex(name) >= 0
		}
		if all {
			if owner >= 0 {
				return -1
			}
			owner = i
		}
	}
	return owner
}

func colType(meta []exec.Meta, name string) vec.Type {
	for _, m := range meta {
		if m.Name == name {
			return m.Type
		}
	}
	panic("sql: colType of unknown column " + name)
}

func hasCol(meta []exec.Meta, name string) bool {
	for _, m := range meta {
		if m.Name == name {
			return true
		}
	}
	return false
}

// walk visits every node of an expression tree.
func walk(n Node, f func(Node) error) error {
	if n == nil {
		return nil
	}
	if err := f(n); err != nil {
		return err
	}
	switch x := n.(type) {
	case *BinOp:
		if err := walk(x.L, f); err != nil {
			return err
		}
		return walk(x.R, f)
	case *NotOp:
		return walk(x.L, f)
	case *NegOp:
		return walk(x.L, f)
	case *LikeOp:
		return walk(x.L, f)
	case *InOp:
		if err := walk(x.L, f); err != nil {
			return err
		}
		for _, e := range x.List {
			if err := walk(e, f); err != nil {
				return err
			}
		}
	case *BetweenOp:
		if err := walk(x.L, f); err != nil {
			return err
		}
		if err := walk(x.Lo, f); err != nil {
			return err
		}
		return walk(x.Hi, f)
	case *IsNullOp:
		return walk(x.L, f)
	case *CaseOp:
		for _, w := range x.Whens {
			if err := walk(w.Cond, f); err != nil {
				return err
			}
			if err := walk(w.Then, f); err != nil {
				return err
			}
		}
		return walk(x.Else, f)
	case *FuncCall:
		for _, a := range x.Args {
			if err := walk(a, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// render produces a canonical string for structural equality of
// expressions (aggregate dedup, group-key matching).
func render(n Node) string {
	switch x := n.(type) {
	case *ColRef:
		return "col:" + x.Name
	case *IntLit:
		return fmt.Sprintf("int:%d", x.V)
	case *FloatLit:
		return fmt.Sprintf("f64:%g", x.V)
	case *StrLit:
		return fmt.Sprintf("str:%q", x.V)
	case *NullLit:
		return "null"
	case *BinOp:
		return "(" + render(x.L) + x.Op + render(x.R) + ")"
	case *NotOp:
		return "not(" + render(x.L) + ")"
	case *NegOp:
		return "neg(" + render(x.L) + ")"
	case *LikeOp:
		return fmt.Sprintf("like(%s,%q,%v)", render(x.L), x.Pattern, x.Not)
	case *InOp:
		s := "in(" + render(x.L)
		for _, e := range x.List {
			s += "," + render(e)
		}
		return s + ")"
	case *BetweenOp:
		return "between(" + render(x.L) + "," + render(x.Lo) + "," + render(x.Hi) + ")"
	case *IsNullOp:
		return fmt.Sprintf("isnull(%s,%v)", render(x.L), x.Not)
	case *CaseOp:
		s := "case("
		for _, w := range x.Whens {
			s += render(w.Cond) + "->" + render(w.Then) + ";"
		}
		if x.Else != nil {
			s += "else:" + render(x.Else)
		}
		return s + ")"
	case *FuncCall:
		s := x.Name + "("
		if x.Star {
			s += "*"
		}
		for i, a := range x.Args {
			if i > 0 {
				s += ","
			}
			s += render(a)
		}
		return s + ")"
	}
	return "?"
}

// containsAgg reports whether the expression contains an aggregate call.
func containsAgg(n Node) bool {
	found := false
	walk(n, func(n Node) error {
		if f, ok := n.(*FuncCall); ok && aggNames[f.Name] {
			found = true
		}
		return nil
	})
	return found
}
