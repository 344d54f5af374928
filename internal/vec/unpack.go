package vec

// The packed-decode primitive. A frame-of-reference packed vector stores
// per = 64/bits lanes per 64-bit word, lane j at word j/per, shift
// (j%per)*bits, no lane crossing a word boundary (EncPacked integers,
// the bit-packed code words of an EncDict block view, the prefix
// suppression kernels' key words). A random-access read of lane j pays a
// divide; the loops here never do: a dense range walks the words one at a
// time, and selected or gathered rows find their word with a multiply by
// a reciprocal of per computed once per call.

// Int is an integer type a packed lane decodes into.
type Int interface {
	~int8 | ~int16 | ~int32 | ~int64
}

// Lane returns lane j of the packed layout: the random-access read, and
// the reference the decode loops are tested against. bits must be in
// [1, 64].
func Lane(words []uint64, bits, j int) uint64 {
	per := 64 / bits
	return words[j/per] >> (uint(j%per) * uint(bits)) & (uint64(1)<<uint(bits) - 1)
}

// laneReader reads lanes of a packed layout at any positions without a
// divide or a data-dependent branch: the word of lane j is j*recip>>32
// with recip = floor(2^32/per)+1, exact for every j < 2^26 (the error
// j*(recip*per - 2^32) stays below 2^32 while recip*per - 2^32 <= per <=
// 64). A layout of 2^26 lanes or more, far beyond a storage block,
// divides instead.
type laneReader struct {
	words []uint64
	bits  uint
	mask  uint64
	per   int
	recip uint64 // 0 when the layout is too long for the reciprocal
}

func newLaneReader(words []uint64, bits int) laneReader {
	per := 64 / bits
	r := laneReader{words: words, bits: uint(bits), mask: uint64(1)<<uint(bits) - 1, per: per}
	if len(words) <= (1<<26)/per {
		r.recip = 1<<32/uint64(per) + 1
	}
	return r
}

// at returns lane j.
//
//ocht:hot
func (r *laneReader) at(j int) uint64 {
	var wi int
	if r.recip != 0 {
		wi = int(uint64(j) * r.recip >> 32)
	} else {
		wi = j / r.per
	}
	return r.words[wi] >> (uint(j-wi*r.per) * r.bits) & r.mask
}

// UnpackRange decodes lanes [off, off+len(dst)) into dst as base+lane, a
// word at a time. bits must be in [1, 64].
//
//ocht:hot
func UnpackRange[T Int](words []uint64, bits, off int, base int64, dst []T) {
	per := 64 / bits
	b := uint(bits)
	mask := uint64(1)<<b - 1
	wi, lane := off/per, off%per
	for i := 0; i < len(dst); wi, lane = wi+1, 0 {
		w := words[wi] >> (uint(lane) * b)
		end := min(len(dst), i+per-lane)
		for ; i < end; i++ {
			dst[i] = T(base + int64(w&mask))
			w >>= b
		}
	}
}

// UnpackRows decodes lane off+r of every row r into dst[r], leaving the
// other positions of dst untouched: the late-materialization read. Rows
// ascend strictly (a selection vector), and a run without gaps is decoded
// a word at a time.
//
//ocht:hot
func UnpackRows[T Int](words []uint64, bits, off int, base int64, rows []int32, dst []T) {
	if lo, ok := contiguous(rows); ok {
		UnpackRange(words, bits, off+lo, base, dst[lo:lo+len(rows)])
		return
	}
	lr := newLaneReader(words, bits)
	for _, r := range rows {
		dst[r] = T(base + int64(lr.at(off+int(r))))
	}
}

// GatherRows decodes lane off+rows[i] into dst[i]: a gather, whose rows
// may repeat (a probe row matching several build records).
//
//ocht:hot
func GatherRows[T Int](words []uint64, bits, off int, base int64, rows []int32, dst []T) {
	lr := newLaneReader(words, bits)
	for i, r := range rows {
		dst[i] = T(base + int64(lr.at(off+int(r))))
	}
}

// contiguous reports whether strictly ascending rows are the run lo,
// lo+1, ..., lo+len(rows)-1: the endpoints decide it.
func contiguous(rows []int32) (lo int, ok bool) {
	n := len(rows)
	if n == 0 {
		return 0, false
	}
	lo = int(rows[0])
	return lo, int(rows[n-1])-lo == n-1
}

// unpackPacked decodes lanes [0, n) of the EncPacked vector v into the
// plain vector dst.
func (v *Vector) unpackPacked(dst *Vector, n int) {
	w, b, o, m := v.Packed, v.PackBits, v.PackOff, v.PackMin
	switch v.Typ {
	case I8:
		UnpackRange(w, b, o, m, dst.I8[:n])
	case I16:
		UnpackRange(w, b, o, m, dst.I16[:n])
	case I32:
		UnpackRange(w, b, o, m, dst.I32[:n])
	case I64:
		UnpackRange(w, b, o, m, dst.I64[:n])
	default:
		badType("vec: packed vector of type ", v.Typ)
	}
}

// unpackPackedRows is unpackPacked at the given rows only.
func (v *Vector) unpackPackedRows(dst *Vector, rows []int32) {
	w, b, o, m := v.Packed, v.PackBits, v.PackOff, v.PackMin
	switch v.Typ {
	case I8:
		UnpackRows(w, b, o, m, rows, dst.I8)
	case I16:
		UnpackRows(w, b, o, m, rows, dst.I16)
	case I32:
		UnpackRows(w, b, o, m, rows, dst.I32)
	case I64:
		UnpackRows(w, b, o, m, rows, dst.I64)
	default:
		badType("vec: packed vector of type ", v.Typ)
	}
}

// IntsInto decodes positions [0, len(dst)) of an integer vector of any
// encoding, or of a dictionary vector's codes, into dst.
//
//ocht:hot
func (v *Vector) IntsInto(dst []int64) {
	switch v.Enc {
	case EncPacked:
		UnpackRange(v.Packed, v.PackBits, v.PackOff, v.PackMin, dst)
		return
	case EncDict:
		if v.Codes == nil {
			UnpackRange(v.Packed, v.PackBits, v.PackOff, 0, dst)
		} else {
			widen(v.Codes[:len(dst)], dst)
		}
		return
	case EncPlain:
	}
	switch v.Typ {
	case I8:
		widen(v.I8[:len(dst)], dst)
	case I16:
		widen(v.I16[:len(dst)], dst)
	case I32:
		widen(v.I32[:len(dst)], dst)
	case I64:
		copy(dst, v.I64)
	case Bool:
		for i, x := range v.Bool[:len(dst)] {
			dst[i] = b2i(x)
		}
	default:
		badType("vec: IntsInto on ", v.Typ)
	}
}

// IntRowsInto is IntsInto at the given rows only, into the same positions
// of dst.
//
//ocht:hot
func (v *Vector) IntRowsInto(rows []int32, dst []int64) {
	switch v.Enc {
	case EncPacked:
		UnpackRows(v.Packed, v.PackBits, v.PackOff, v.PackMin, rows, dst)
		return
	case EncDict:
		if v.Codes == nil {
			UnpackRows(v.Packed, v.PackBits, v.PackOff, 0, rows, dst)
		} else {
			widenRows(v.Codes, rows, dst)
		}
		return
	case EncPlain:
	}
	switch v.Typ {
	case I8:
		widenRows(v.I8, rows, dst)
	case I16:
		widenRows(v.I16, rows, dst)
	case I32:
		widenRows(v.I32, rows, dst)
	case I64:
		copyRows(v.I64, rows, dst)
	case Bool:
		for _, r := range rows {
			dst[r] = b2i(v.Bool[r])
		}
	default:
		badType("vec: IntRowsInto on ", v.Typ)
	}
}

// GatherInto copies v's values at the given rows densely into
// dst[0:len(rows)], decoding encoded vectors (dictionary codes through
// the code table). dst is a plain vector of v's type; NULL masks are the
// caller's.
//
//ocht:hot
func (v *Vector) GatherInto(dst *Vector, rows []int32) {
	switch v.Enc {
	case EncDict:
		out := dst.Str[:len(rows)]
		if v.Codes != nil {
			for i, r := range rows {
				out[i] = v.DictRef(v.Codes[r])
			}
			return
		}
		lr := newLaneReader(v.Packed, v.PackBits)
		for i, r := range rows {
			out[i] = v.DictRef(int32(lr.at(v.PackOff + int(r))))
		}
		return
	case EncPacked:
		w, b, o, m := v.Packed, v.PackBits, v.PackOff, v.PackMin
		switch v.Typ {
		case I8:
			GatherRows(w, b, o, m, rows, dst.I8)
		case I16:
			GatherRows(w, b, o, m, rows, dst.I16)
		case I32:
			GatherRows(w, b, o, m, rows, dst.I32)
		case I64:
			GatherRows(w, b, o, m, rows, dst.I64)
		default:
			badType("vec: packed vector of type ", v.Typ)
		}
		return
	case EncPlain:
	}
	switch v.Typ {
	case Bool:
		gather(v.Bool, rows, dst.Bool)
	case I8:
		gather(v.I8, rows, dst.I8)
	case I16:
		gather(v.I16, rows, dst.I16)
	case I32:
		gather(v.I32, rows, dst.I32)
	case I64:
		gather(v.I64, rows, dst.I64)
	case I128:
		gather(v.I128, rows, dst.I128)
	case F64:
		gather(v.F64, rows, dst.F64)
	case Str:
		gather(v.Str, rows, dst.Str)
	}
}

// widen copies src into dst as int64.
func widen[T Int](src []T, dst []int64) {
	for i, x := range src {
		dst[i] = int64(x)
	}
}

// widenRows copies src[r] into dst[r] as int64 at every row r.
func widenRows[T Int](src []T, rows []int32, dst []int64) {
	for _, r := range rows {
		dst[r] = int64(src[r])
	}
}

// copyRows copies src[r] into dst[r] at every row r.
func copyRows[T any](src []T, rows []int32, dst []T) {
	for _, r := range rows {
		dst[r] = src[r]
	}
}

// gather copies src[rows[i]] into dst[i].
func gather[T any](src []T, rows []int32, dst []T) {
	dst = dst[:len(rows)]
	for i, r := range rows {
		dst[i] = src[r]
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
