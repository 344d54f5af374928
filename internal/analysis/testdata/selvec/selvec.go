// Package fixture seeds selection-vector violations and the corrected
// idioms. The Vector type mirrors vec.Vector's data fields.
//
//ocht:path ocht/internal/agg
package fixture

// Vector mirrors the engine's column layout.
type Vector struct {
	I64   []int64
	F64   []float64
	Nulls []bool
}

// OpMixed indexes the same slice by both the selection position and the
// selected row — one of them is wrong.
func OpMixed(acc *Vector, sel []int32) {
	for i, r := range sel {
		acc.I64[i] += acc.I64[r] // want "indexed by both the selection-vector index"
	}
}

// OpForgot ranges over the selection vector but reads the column at the
// dense loop position — the classic forgot-the-sel bug.
func OpForgot(dst []int64, src *Vector, sel []int32) {
	for i := range sel {
		dst[i] = src.I64[i] // want "read at loop induction variable"
	}
}

// OpGather is the corrected form: the selection element addresses the
// column, the induction variable addresses the dense output.
func OpGather(dst []int64, src *Vector, sel []int32) {
	for i, r := range sel {
		dst[i] = src.I64[r]
	}
}

// OpCompact is the compacted gather: the counter addresses the dense
// output, the selection element the column.
func OpCompact(dst []int64, src *Vector, sel []int32) int {
	k := 0
	for _, r := range sel {
		if src.Nulls[r] {
			continue
		}
		dst[k] = src.I64[r]
		k++
	}
	return k
}

// OpCompactSwapped swaps the two indexes: the column is read at the
// counter.
func OpCompactSwapped(dst []int64, src *Vector, sel []int32) int {
	k := 0
	for _, r := range sel {
		dst[r] = src.I64[k] // want "read at compacted output counter"
		k += 1
	}
	return k
}

// OpDenseInit writes a column at the induction variable with the
// selection ignored — the legitimate dense-initialization idiom.
func OpDenseInit(dst *Vector, rows []int32) {
	for i := range rows {
		dst.Nulls[i] = false
	}
}

// OpConstBounds exercises the vec.MaxLen bounds rules.
func OpConstBounds(sel []int32) int32 {
	sel[0] = 4096    // want "selection-vector entry 4096"
	return sel[1024] // want "selection vector indexed at constant 1024"
}

// OpDenseLoop ranges over plain column data, not a selection vector; the
// analyzer must stay silent.
func OpDenseLoop(dst []int64, src *Vector) {
	for i, v := range src.I64 {
		dst[i] = v
	}
}
