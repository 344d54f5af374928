package agg

import (
	"encoding/binary"

	"ocht/internal/core"
	"ocht/internal/i128"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// Fold folds partial values — what Result emits for the same spec on
// another table, such as a worker's pre-aggregation table or a shard's
// subquery result — into aggregate ai of the active rows' group records
// (recs[row]), the way Update folds input values. A SUM partial may come
// as I64 or I128, a string MIN/MAX partial may be the null reference of a
// group that saw no values, and the MIN/MAX Init sentinels fold as
// identities, so folding is exact under every layout:
//
//   - a split SUM state is the (Lo, Hi) of a 128-bit two's-complement sum,
//     so folding adds the partial's Lo to the hot word and its Hi plus the
//     carry, when not 0, to the exception word;
//   - a split COUNT adds the partial to its hot counter and, once that
//     reaches its 0xFFFF flush threshold, moves the whole count into the
//     exception word;
//   - MIN and MAX of partial extremes are MIN and MAX of the inputs:
//     they fold through Update.
//
//ocht:hot
func (a *Aggregator) Fold(tab *core.Table, ai int, recs, rows []int32, input *vec.Vector) {
	l := a.layouts[ai]
	switch l.kind {
	case kMinFull, kMaxFull, kMinSplit, kMaxSplit:
		a.Update(tab, ai, recs, rows, input)
		return
	}
	// Integer partials (SUM as I64, COUNT) are read through their own
	// slice; ints stays nil for 128-bit SUM partials and string extremes.
	var ints []int64
	if input.Typ != vec.I128 && input.Typ != vec.Str {
		ints = intsAt(input, rows)
	}
	hot, hw := tab.RawHot(), tab.HotWidth()
	cold, cw := tab.RawCold(), tab.ColdWidth()
	hOff := tab.Schema.KeyBytes() + l.hotOff
	cOff := tab.Schema.ColdBytes() + l.coldOff
	switch l.kind {
	case kSumI64:
		for _, r := range rows {
			b := hot[int(recs[r])*hw+hOff:]
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+partialSum(input, ints, r).Lo)
		}
	case kSumFull128:
		for _, r := range rows {
			b := hot[int(recs[r])*hw+hOff:]
			x := i128.Int{Lo: binary.LittleEndian.Uint64(b), Hi: int64(binary.LittleEndian.Uint64(b[8:]))}
			x = i128.Add(x, partialSum(input, ints, r))
			binary.LittleEndian.PutUint64(b, x.Lo)
			binary.LittleEndian.PutUint64(b[8:], uint64(x.Hi))
		}
	case kSumSplit, kSumSplitPos:
		for _, r := range rows {
			x := partialSum(input, ints, r)
			hb := hot[int(recs[r])*hw+hOff:]
			old := binary.LittleEndian.Uint64(hb)
			lo := old + x.Lo
			binary.LittleEndian.PutUint64(hb, lo)
			if lo < old { // carry from the common parts
				x.Hi++
			}
			if x.Hi != 0 { // rare: the exception word changes
				cb := cold[int(recs[r])*cw+cOff:]
				binary.LittleEndian.PutUint64(cb, uint64(int64(binary.LittleEndian.Uint64(cb))+x.Hi))
			}
		}
	case kCountFull:
		for _, r := range rows {
			b := hot[int(recs[r])*hw+hOff:]
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+uint64(ints[r]))
		}
	case kCountSplit:
		for _, r := range rows {
			hb := hot[int(recs[r])*hw+hOff:]
			c := uint64(binary.LittleEndian.Uint16(hb)) + uint64(ints[r])
			if c >= 0xFFFF { // flush the whole count into the cold counter
				cb := cold[int(recs[r])*cw+cOff:]
				binary.LittleEndian.PutUint64(cb, binary.LittleEndian.Uint64(cb)+c)
				c = 0
			}
			binary.LittleEndian.PutUint16(hb, uint16(c))
		}
	case kMinStr, kMaxStr:
		store := tab.Schema.Store
		wantLess := l.kind == kMinStr
		for _, r := range rows {
			v := input.Str[r]
			if v == 0 || v == strs.NullRef {
				continue // the partial saw no values
			}
			b := hot[int(recs[r])*hw+hOff:]
			if cur := vec.StrRef(binary.LittleEndian.Uint64(b)); cur != 0 {
				c := store.Compare(v, cur)
				if (wantLess && c >= 0) || (!wantLess && c <= 0) {
					continue
				}
			}
			binary.LittleEndian.PutUint64(b, uint64(v))
		}
	}
}

// partialSum reads a SUM partial as 128 bits: from ints when the
// partials are integers (intsAt), else from v's 128-bit slice.
func partialSum(v *vec.Vector, ints []int64, r int32) i128.Int {
	if ints != nil {
		return i128.FromInt64(ints[r])
	}
	return v.I128[r]
}
