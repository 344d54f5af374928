package exec

import (
	"math"

	"ocht/internal/vec"
)

// ZoneRange is a per-column value interval [Lo, Hi] implied by a
// conjunctive predicate. A scan skips any block whose zone map proves the
// column never intersects the interval (Section II-A: zone maps are kept
// out-of-band per block). Ranges are necessary, not sufficient: surviving
// blocks still run through the filter, so an over-wide range is only a
// missed optimization, never a wrong result.
type ZoneRange struct {
	Col    string
	Lo, Hi int64
}

// zoneRangesOf derives the zone ranges implied by predicate e over the
// given scan schema. Only top-level AND conjuncts of the shape
// <int column> <cmp> <int constant> (either operand order) contribute;
// everything else — OR branches, NE, string and float comparisons,
// computed expressions — is conservatively ignored.
func zoneRangesOf(e *Expr, schema []Meta) []ZoneRange {
	var out []ZoneRange
	collectZoneRanges(e, schema, &out)
	return out
}

func collectZoneRanges(e *Expr, schema []Meta, out *[]ZoneRange) {
	if e == nil {
		return
	}
	switch e.kind {
	case eAnd:
		collectZoneRanges(e.l, schema, out)
		collectZoneRanges(e.r, schema, out)
	case eCmp:
		col, c, op, ok := splitColConst(e)
		if !ok {
			return
		}
		m := schema[col]
		switch m.Type {
		case vec.I8, vec.I16, vec.I32, vec.I64:
		default:
			return
		}
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		switch op {
		case opEQ:
			lo, hi = c, c
		case opLT:
			if c == math.MinInt64 {
				return
			}
			hi = c - 1
		case opLE:
			hi = c
		case opGT:
			if c == math.MaxInt64 {
				return
			}
			lo = c + 1
		case opGE:
			lo = c
		default: // opNE prunes at most one value; not worth a range
			return
		}
		*out = append(*out, ZoneRange{Col: m.Name, Lo: lo, Hi: hi})
	}
}

// splitColConst decomposes a comparison into (column, constant, op); cmp
// has already moved a lone constant to the right.
func splitColConst(e *Expr) (col int, c int64, op cmpOp, ok bool) {
	if e.l.kind == eCol && e.r.kind == eConstInt {
		return e.l.col, e.r.cInt, e.op, true
	}
	return 0, 0, 0, false
}
