package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// FormatNode renders an expression AST back to parsable SQL text. The
// distributed planner uses it to ship rewritten plan fragments (shard
// subqueries with pushed-down filters and partial aggregates) to shard
// processes over the ordinary SQL protocol. Operands are parenthesized
// defensively, so the re-parsed tree is structurally identical regardless
// of the original precedence.
func FormatNode(n Node) string {
	var b strings.Builder
	formatNode(&b, n)
	return b.String()
}

func formatNode(b *strings.Builder, n Node) {
	switch x := n.(type) {
	case *ColRef:
		if x.Table != "" {
			b.WriteString(x.Table)
			b.WriteByte('.')
		}
		b.WriteString(x.Name)
	case *IntLit:
		if x.V < 0 {
			// The lexer has no negative literals; negative values (from
			// programmatic ASTs) render as negations.
			fmt.Fprintf(b, "(- %d)", -x.V)
		} else {
			fmt.Fprintf(b, "%d", x.V)
		}
	case *FloatLit:
		if x.V < 0 {
			b.WriteString("(- " + formatFloat(-x.V) + ")")
		} else {
			b.WriteString(formatFloat(x.V))
		}
	case *StrLit:
		b.WriteString(quoteSQL(x.V))
	case *NullLit:
		b.WriteString("NULL")
	case *BinOp:
		b.WriteByte('(')
		formatNode(b, x.L)
		b.WriteByte(' ')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		formatNode(b, x.R)
		b.WriteByte(')')
	case *NotOp:
		b.WriteString("(NOT ")
		formatNode(b, x.L)
		b.WriteByte(')')
	case *NegOp:
		// The space after '-' keeps a nested negation from lexing as a
		// comment introducer.
		b.WriteString("(- ")
		formatNode(b, x.L)
		b.WriteByte(')')
	case *LikeOp:
		b.WriteByte('(')
		formatNode(b, x.L)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" LIKE ")
		b.WriteString(quoteSQL(x.Pattern))
		b.WriteByte(')')
	case *InOp:
		b.WriteByte('(')
		formatNode(b, x.L)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		for i, e := range x.List {
			if i > 0 {
				b.WriteString(", ")
			}
			formatNode(b, e)
		}
		b.WriteString("))")
	case *BetweenOp:
		b.WriteByte('(')
		formatNode(b, x.L)
		b.WriteString(" BETWEEN ")
		formatNode(b, x.Lo)
		b.WriteString(" AND ")
		formatNode(b, x.Hi)
		b.WriteByte(')')
	case *IsNullOp:
		b.WriteByte('(')
		formatNode(b, x.L)
		b.WriteString(" IS ")
		if x.Not {
			b.WriteString("NOT ")
		}
		b.WriteString("NULL)")
	case *CaseOp:
		b.WriteString("CASE")
		for _, w := range x.Whens {
			b.WriteString(" WHEN ")
			formatNode(b, w.Cond)
			b.WriteString(" THEN ")
			formatNode(b, w.Then)
		}
		if x.Else != nil {
			b.WriteString(" ELSE ")
			formatNode(b, x.Else)
		}
		b.WriteString(" END")
	case *FuncCall:
		b.WriteString(x.Name)
		b.WriteByte('(')
		switch {
		case x.Star:
			b.WriteByte('*')
		case x.Name == "CAST":
			formatNode(b, x.Args[0])
			b.WriteString(" AS FLOAT")
		default:
			if x.Distinct {
				b.WriteString("DISTINCT ")
			}
			for i, a := range x.Args {
				if i > 0 {
					b.WriteString(", ")
				}
				formatNode(b, a)
			}
		}
		b.WriteByte(')')
	default:
		panic(fmt.Sprintf("sql: cannot format node %T", n))
	}
}

// FormatSelect renders a parsed SELECT back to SQL text.
func FormatSelect(stmt *SelectStmt) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range stmt.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteByte('*')
			continue
		}
		formatNode(&b, it.Expr)
		if it.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(it.Alias)
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(stmt.Table)
	for _, j := range stmt.Joins {
		if j.Left {
			b.WriteString(" LEFT JOIN ")
		} else {
			b.WriteString(" JOIN ")
		}
		b.WriteString(j.Table)
		b.WriteString(" ON ")
		formatNode(&b, j.On)
	}
	if stmt.Where != nil {
		b.WriteString(" WHERE ")
		formatNode(&b, stmt.Where)
	}
	if len(stmt.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range stmt.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			formatNode(&b, g)
		}
	}
	if stmt.Having != nil {
		b.WriteString(" HAVING ")
		formatNode(&b, stmt.Having)
	}
	if len(stmt.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range stmt.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			if o.Ordinal > 0 {
				fmt.Fprintf(&b, "%d", o.Ordinal)
			} else {
				b.WriteString(o.Name)
			}
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if stmt.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", stmt.Limit)
	}
	return b.String()
}

// formatFloat renders a float so that it re-lexes as a float literal:
// the lexer has no exponent syntax, so 'f' formatting (shortest decimal
// that round-trips) is used, and a round value ("2") gets a ".0" so it
// does not re-parse as an integer and change type derivation.
func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// quoteSQL single-quotes a string literal with ” escaping.
func quoteSQL(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
