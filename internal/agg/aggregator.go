package agg

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/i128"
	"ocht/internal/vec"
)

// Func enumerates the aggregate functions of Table I. AVG is rewritten
// into SUM and COUNT by the planner, as in the paper.
type Func uint8

// Aggregate functions.
const (
	Sum Func = iota
	Min
	Max
	Count     // COUNT(col): the planner filters NULLs before Update
	CountStar // COUNT(*)
)

func (f Func) String() string {
	switch f {
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Count:
		return "count"
	case CountStar:
		return "count(*)"
	}
	return "invalid"
}

// Spec describes one aggregate to maintain.
type Spec struct {
	Func    Func
	InType  vec.Type // input column type (drives the vanilla SUM width)
	InDom   domain.D // input value domain (drives SUM width and MIN/MAX bounds)
	MaxRows int64    // worst-case number of input rows (drives SUM width)
}

// kind is the resolved physical implementation of a Spec.
type kind uint8

const (
	kSumI64     kind = iota // sum provably fits 64 bits: 8B hot
	kSumFull128             // full 128-bit sum: 16B hot (the baseline)
	kSumSplit               // optimistic: 8B hot common + 8B cold carry
	kSumSplitPos
	kCountFull  // 8B hot
	kCountSplit // 2B hot + 8B cold
	kMinFull    // 8B hot
	kMinSplit   // 4B hot bound + 8B cold minimum
	kMaxFull
	kMaxSplit
	kMinStr // 8B hot string reference (0 = no value yet)
	kMaxStr
)

type layout struct {
	kind     kind
	hotOff   int
	coldOff  int
	domMin   int64
	maxRows  int64
	positive bool
}

// Aggregator lays aggregate state out across the hot and cold extra areas
// of a core.Table and provides vectorized update/finalize kernels.
type Aggregator struct {
	Flags   core.Flags
	Specs   []Spec
	layouts []layout
	// HotBytes and ColdBytes are the extra record widths to reserve when
	// creating the table.
	HotBytes  int
	ColdBytes int
}

// NewAggregator resolves the physical layout of the given aggregates
// under the given flags (Split selects the optimistic forms).
func NewAggregator(flags core.Flags, specs []Spec) *Aggregator {
	a := &Aggregator{Flags: flags, Specs: specs}
	for _, s := range specs {
		var l layout
		l.domMin = s.InDom.Min
		l.maxRows = s.MaxRows
		switch s.Func {
		case Sum:
			switch {
			case flags.Compress && domain.SumFitsInt64(s.InDom, s.MaxRows):
				// Domain derivation proves 64 bits suffice: no overflow
				// handling needed at all (Section II-A).
				l.kind = kSumI64
			case !flags.Compress && !flags.Split && s.InType.Width() <= 4:
				// Vanilla engines sum narrow integers in 64 bits by SQL
				// typing rules without any overflow analysis.
				l.kind = kSumI64
			case flags.Split && s.InDom.NonNegative():
				// Min/Max information proves all inputs non-negative:
				// the simplified overflow logic applies (Section III-A).
				l.kind = kSumSplitPos
				l.positive = true
			case flags.Split:
				l.kind = kSumSplit
			default:
				l.kind = kSumFull128
			}
		case Count, CountStar:
			if flags.Split {
				l.kind = kCountSplit
			} else {
				l.kind = kCountFull
			}
		case Min:
			switch {
			case s.InType == vec.Str:
				l.kind = kMinStr
			case flags.Split:
				l.kind = kMinSplit
			default:
				l.kind = kMinFull
			}
		case Max:
			switch {
			case s.InType == vec.Str:
				l.kind = kMaxStr
			case flags.Split:
				l.kind = kMaxSplit
			default:
				l.kind = kMaxFull
			}
		}
		l.hotOff = a.HotBytes
		l.coldOff = a.ColdBytes
		a.HotBytes += hotBytes(l.kind)
		a.ColdBytes += coldBytes(l.kind)
		a.layouts = append(a.layouts, l)
	}
	return a
}

func hotBytes(k kind) int {
	switch k {
	case kSumFull128:
		return 16
	case kCountSplit:
		return 2
	case kMinSplit, kMaxSplit:
		return 4
	default:
		return 8
	}
}

func coldBytes(k kind) int {
	switch k {
	case kSumSplit, kSumSplitPos, kCountSplit, kMinSplit, kMaxSplit:
		return 8
	default:
		return 0
	}
}

// Init sets the initial aggregate state of newly created group records.
// Records are zero-initialized by the table; only MIN/MAX need non-zero
// starting values.
func (a *Aggregator) Init(tab *core.Table, recs []int32) {
	minInit, maxInit := MinInitExcept, MaxInitExcept
	for ai, l := range a.layouts {
		switch l.kind {
		case kMinFull:
			for _, rec := range recs {
				binary.LittleEndian.PutUint64(a.hot(tab, rec, ai), uint64(minInit))
			}
		case kMaxFull:
			for _, rec := range recs {
				binary.LittleEndian.PutUint64(a.hot(tab, rec, ai), uint64(maxInit))
			}
		case kMinSplit:
			for _, rec := range recs {
				binary.LittleEndian.PutUint32(a.hot(tab, rec, ai), MinInitBound)
				binary.LittleEndian.PutUint64(a.cold(tab, rec, ai), uint64(minInit))
			}
		case kMaxSplit:
			for _, rec := range recs {
				binary.LittleEndian.PutUint32(a.hot(tab, rec, ai), MaxInitBound)
				binary.LittleEndian.PutUint64(a.cold(tab, rec, ai), uint64(maxInit))
			}
		}
	}
}

func (a *Aggregator) hot(tab *core.Table, rec int32, ai int) []byte {
	return tab.HotRow(rec)[a.layouts[ai].hotOff:]
}

func (a *Aggregator) cold(tab *core.Table, rec int32, ai int) []byte {
	return tab.ColdRow(rec)[a.layouts[ai].coldOff:]
}

// Update folds the active rows' input values into aggregate ai of their
// group records: recs[row] names the record of each active row. For
// CountStar, input may be nil.
func (a *Aggregator) Update(tab *core.Table, ai int, recs []int32, rows []int32, input *vec.Vector) {
	l := a.layouts[ai]
	// Direct offsets into the raw record areas: the table cannot grow
	// during aggregate updates, so the buffers are stable here.
	u := recArea{
		hot: tab.RawHot(), hw: tab.HotWidth(), hOff: tab.Schema.KeyBytes() + l.hotOff,
		cold: tab.RawCold(), cw: tab.ColdWidth(), cOff: tab.Schema.ColdBytes() + l.coldOff,
		recs: recs,
	}
	switch l.kind {
	case kCountFull:
		for _, r := range rows {
			b := u.hotAt(r)
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
		}
		return
	case kCountSplit:
		for _, r := range rows {
			hb := u.hotAt(r)
			c := binary.LittleEndian.Uint16(hb) + 1
			if c == 0xFFFF { // flush into the cold counter
				cb := u.coldAt(r)
				binary.LittleEndian.PutUint64(cb, binary.LittleEndian.Uint64(cb)+0xFFFF)
				c = 0
			}
			binary.LittleEndian.PutUint16(hb, c)
		}
		return
	case kMinStr, kMaxStr:
		// Lexicographic MIN/MAX over string references via the query's
		// string store; reference 0 marks "no value yet".
		store := tab.Schema.Store
		wantLess := l.kind == kMinStr
		refs := input.Str
		for _, r := range rows {
			v := refs[r]
			b := u.hotAt(r)
			cur := vec.StrRef(binary.LittleEndian.Uint64(b))
			if cur == 0 {
				binary.LittleEndian.PutUint64(b, uint64(v))
				continue
			}
			c := store.Compare(v, cur)
			if (wantLess && c < 0) || (!wantLess && c > 0) {
				binary.LittleEndian.PutUint64(b, uint64(v))
			}
		}
		return
	}
	switch input.Typ {
	case vec.I64:
		updateInts(l, u, input.I64, rows)
	case vec.I32:
		updateInts(l, u, input.I32, rows)
	case vec.I16:
		updateInts(l, u, input.I16, rows)
	case vec.I8:
		updateInts(l, u, input.I8, rows)
	default:
		updateInts(l, u, intsAt(input, rows), rows)
	}
}

// recArea addresses the aggregate state of the active rows' group
// records (recs[row]) in a table's raw hot and cold areas.
type recArea struct {
	hot, cold []byte
	hw, hOff  int
	cw, cOff  int
	recs      []int32
}

func (u *recArea) hotAt(r int32) []byte  { return u.hot[int(u.recs[r])*u.hw+u.hOff:] }
func (u *recArea) coldAt(r int32) []byte { return u.cold[int(u.recs[r])*u.cw+u.cOff:] }

// intsAt decodes an integer vector of any type and encoding at the rows,
// widened to int64 and indexed by row: the input of the typed loops when
// it is not a plain integer slice already.
func intsAt(v *vec.Vector, rows []int32) []int64 {
	if v.Enc == vec.EncPlain && v.Typ == vec.I64 {
		return v.I64
	}
	n := 0
	if len(rows) > 0 {
		n = int(slices.Max(rows)) + 1
	}
	d := make([]int64, n)
	v.IntRowsInto(rows, d)
	return d
}

// updateInts folds the integer inputs d[row] into a SUM, MIN or MAX of
// layout l, one loop per kind over the input's own slice type.
//
//ocht:hot
func updateInts[T vec.Int](l layout, u recArea, d []T, rows []int32) {
	switch l.kind {
	case kSumI64:
		for _, r := range rows {
			b := u.hotAt(r)
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+uint64(int64(d[r])))
		}
	case kSumFull128:
		for _, r := range rows {
			b := u.hotAt(r)
			x := i128.Int{Lo: binary.LittleEndian.Uint64(b), Hi: int64(binary.LittleEndian.Uint64(b[8:]))}
			x = i128.AddInt64(x, int64(d[r]))
			binary.LittleEndian.PutUint64(b, x.Lo)
			binary.LittleEndian.PutUint64(b[8:], uint64(x.Hi))
		}
	case kSumSplit:
		for _, r := range rows {
			v := int64(d[r])
			hb := u.hotAt(r)
			sum := binary.LittleEndian.Uint64(hb) + uint64(v)
			binary.LittleEndian.PutUint64(hb, sum)
			overflow := sum < uint64(v)
			positive := v >= 0
			if overflow == positive { // rare: carry/borrow into the cold area
				cb := u.coldAt(r)
				c := int64(binary.LittleEndian.Uint64(cb))
				if positive {
					c++
				} else {
					c--
				}
				binary.LittleEndian.PutUint64(cb, uint64(c))
			}
		}
	case kSumSplitPos:
		for _, r := range rows {
			hb := u.hotAt(r)
			old := binary.LittleEndian.Uint64(hb)
			sum := old + uint64(int64(d[r]))
			binary.LittleEndian.PutUint64(hb, sum)
			if sum < old { // rare carry
				cb := u.coldAt(r)
				binary.LittleEndian.PutUint64(cb, binary.LittleEndian.Uint64(cb)+1)
			}
		}
	case kMinFull:
		for _, r := range rows {
			v := int64(d[r])
			if b := u.hotAt(r); v < int64(binary.LittleEndian.Uint64(b)) {
				binary.LittleEndian.PutUint64(b, uint64(v))
			}
		}
	case kMaxFull:
		for _, r := range rows {
			v := int64(d[r])
			if b := u.hotAt(r); v > int64(binary.LittleEndian.Uint64(b)) {
				binary.LittleEndian.PutUint64(b, uint64(v))
			}
		}
	case kMinSplit:
		for _, r := range rows {
			v := int64(d[r])
			hb := u.hotAt(r)
			bv := boundOf(v, l.domMin)
			if bv > binary.LittleEndian.Uint32(hb) {
				continue // cannot become the new minimum: hot-only check
			}
			if cb := u.coldAt(r); v < int64(binary.LittleEndian.Uint64(cb)) {
				binary.LittleEndian.PutUint64(cb, uint64(v))
				binary.LittleEndian.PutUint32(hb, bv)
			}
		}
	case kMaxSplit:
		for _, r := range rows {
			v := int64(d[r])
			hb := u.hotAt(r)
			bv := boundOf(v, l.domMin)
			if bv < binary.LittleEndian.Uint32(hb) {
				continue // cannot become the new maximum
			}
			if cb := u.coldAt(r); v > int64(binary.LittleEndian.Uint64(cb)) {
				binary.LittleEndian.PutUint64(cb, uint64(v))
				binary.LittleEndian.PutUint32(hb, bv)
			}
		}
	default:
		badKind(l.kind)
	}
}

// badKind panics for a layout kind no kernel knows, off the kernels' code
// path.
func badKind(k kind) {
	panic(fmt.Sprintf("agg: unknown kind %d", k))
}

// ResultType returns the output vector type of aggregate ai.
func (a *Aggregator) ResultType(ai int) vec.Type {
	switch a.layouts[ai].kind {
	case kSumFull128, kSumSplit, kSumSplitPos:
		return vec.I128
	case kMinStr, kMaxStr:
		return vec.Str
	default:
		return vec.I64
	}
}

// Result materializes aggregate ai of the given records into out at the
// given positions, recombining split state (common + exception).
func (a *Aggregator) Result(tab *core.Table, ai int, recs []int32, out *vec.Vector, rows []int32) {
	l := a.layouts[ai]
	for i, rec := range recs {
		r := int(rows[i])
		switch l.kind {
		case kSumI64, kCountFull, kMinFull, kMaxFull:
			out.SetInt64(r, int64(binary.LittleEndian.Uint64(a.hot(tab, rec, ai))))
		case kSumFull128:
			b := a.hot(tab, rec, ai)
			out.I128[r] = i128.Int{Lo: binary.LittleEndian.Uint64(b), Hi: int64(binary.LittleEndian.Uint64(b[8:]))}
		case kSumSplit, kSumSplitPos:
			common := binary.LittleEndian.Uint64(a.hot(tab, rec, ai))
			except := int64(binary.LittleEndian.Uint64(a.cold(tab, rec, ai)))
			out.I128[r] = CombineOpSum(common, except)
		case kCountSplit:
			common := binary.LittleEndian.Uint16(a.hot(tab, rec, ai))
			except := binary.LittleEndian.Uint64(a.cold(tab, rec, ai))
			out.SetInt64(r, CombineOpCount(common, except))
		case kMinSplit, kMaxSplit:
			out.SetInt64(r, int64(binary.LittleEndian.Uint64(a.cold(tab, rec, ai))))
		case kMinStr, kMaxStr:
			ref := vec.StrRef(binary.LittleEndian.Uint64(a.hot(tab, rec, ai)))
			if ref == 0 {
				ref = 1 // all inputs NULL: the null string reference
			}
			out.Str[r] = ref
		}
	}
}
