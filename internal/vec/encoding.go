package vec

// Encoding enumerates the in-flight vector representations. The engine's
// compressed-execution model (MorphStore-style holistic processing) lets a
// scan emit blocks in their stored form; operators either understand the
// encoding (filters compare in the pack domain, pre-filter dictionary code
// tables) or materialize the active rows into a plain scratch vector at
// their input boundary.
type Encoding uint8

// Vector encodings.
const (
	// EncPlain is the classic decompressed form: one typed slice.
	EncPlain Encoding = iota
	// EncDict is a dictionary-coded string vector: per-row codes plus a
	// per-block code -> StrRef table.
	EncDict
	// EncPacked is a frame-of-reference bit-packed integer vector.
	EncPacked
)

// String returns the lowercase encoding name.
func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "plain"
	case EncDict:
		return "dict"
	case EncPacked:
		return "packed"
	default:
		return "invalid"
	}
}

// IsPlain reports whether the vector holds decompressed data.
func (v *Vector) IsPlain() bool { return v.Enc == EncPlain }

// packedAt extracts the frame-of-reference value at row i.
//
//ocht:hot
func (v *Vector) packedAt(i int) int64 {
	return v.PackMin + int64(Lane(v.Packed, v.PackBits, v.PackOff+i))
}

// StrRefAt returns the string reference at physical position i, decoding
// dictionary codes through the per-block reference table.
//
//ocht:hot
func (v *Vector) StrRefAt(i int) StrRef {
	if v.Enc == EncDict {
		if v.Codes != nil {
			return v.DictRef(v.Codes[i])
		}
		return v.DictRef(int32(v.packedAt(i)))
	}
	return v.Str[i]
}

// DictRef returns the reference of dictionary entry c of an EncDict
// vector, interning the entry the first time any row reads it.
//
//ocht:hot
func (v *Vector) DictRef(c int32) StrRef {
	if r := v.DictRefs[c]; r != 0 {
		return r
	}
	return v.fillDictRef(c)
}

// fillDictRef interns dictionary entry c and records its reference in the
// code table shared by every window of the block.
func (v *Vector) fillDictRef(c int32) StrRef {
	r := v.DictIntern.InternBytes(v.DictEntry(c))
	v.DictRefs[c] = r
	return r
}

// DictEntry returns the bytes of dictionary entry c, aliasing the block
// view's decode scratch: valid until the scan views its next block.
func (v *Vector) DictEntry(c int32) []byte {
	return v.DictBytes[v.DictOffs[c]:v.DictOffs[c+1]]
}

// CodeAt returns the dictionary code at physical position i of an EncDict
// vector, reading either the plain code slice or the bit-packed code words
// a compressed sealed block aliases into the view (PackMin is always 0
// for code words).
//
//ocht:hot
func (v *Vector) CodeAt(i int) int32 {
	if v.Codes != nil {
		return v.Codes[i]
	}
	return int32(v.packedAt(i))
}

// MaterializeInto decodes every row of v into dst, which must be a plain
// vector of the same type with capacity >= v.Len(). The NULL mask is
// aliased (physical positions are unchanged by decoding). Plain sources
// are copied.
func (v *Vector) MaterializeInto(dst *Vector) {
	n := v.Len()
	dst.Nulls = v.Nulls
	switch v.Enc {
	case EncDict:
		out := dst.Str[:n]
		if v.Codes != nil {
			for i, c := range v.Codes[:n] {
				out[i] = v.DictRef(c)
			}
			return
		}
		lr := newLaneReader(v.Packed, v.PackBits)
		for i := range out {
			out[i] = v.DictRef(int32(lr.at(v.PackOff + i)))
		}
	case EncPacked:
		v.unpackPacked(dst, n)
	default:
		switch v.Typ {
		case Bool:
			copy(dst.Bool, v.Bool)
		case I8:
			copy(dst.I8, v.I8)
		case I16:
			copy(dst.I16, v.I16)
		case I32:
			copy(dst.I32, v.I32)
		case I64:
			copy(dst.I64, v.I64)
		case I128:
			copy(dst.I128, v.I128)
		case F64:
			copy(dst.F64, v.F64)
		case Str:
			copy(dst.Str, v.Str)
		}
	}
}

// MaterializeRowsInto decodes only the given physical rows of v into the
// same positions of dst — the late-materialization step: rows shed by
// filters or Bloom passes never pay decompression. dst must be a plain
// vector of the same type sized to cover every row position; the NULL mask
// is aliased.
//
//ocht:hot
func (v *Vector) MaterializeRowsInto(dst *Vector, rows []int32) {
	dst.Nulls = v.Nulls
	switch v.Enc {
	case EncDict:
		// refs is hoisted: a fill writes into the same backing array.
		refs := v.DictRefs
		if v.Codes != nil {
			for _, r := range rows {
				c := v.Codes[r]
				ref := refs[c]
				if ref == 0 {
					ref = v.fillDictRef(c)
				}
				dst.Str[r] = ref
			}
			return
		}
		lr := newLaneReader(v.Packed, v.PackBits)
		for _, r := range rows {
			c := int32(lr.at(v.PackOff + int(r)))
			ref := refs[c]
			if ref == 0 {
				ref = v.fillDictRef(c)
			}
			dst.Str[r] = ref
		}
	case EncPacked:
		v.unpackPackedRows(dst, rows)
	default:
		switch v.Typ {
		case Bool:
			copyRows(v.Bool, rows, dst.Bool)
		case I8:
			copyRows(v.I8, rows, dst.I8)
		case I16:
			copyRows(v.I16, rows, dst.I16)
		case I32:
			copyRows(v.I32, rows, dst.I32)
		case I64:
			copyRows(v.I64, rows, dst.I64)
		case I128:
			copyRows(v.I128, rows, dst.I128)
		case F64:
			copyRows(v.F64, rows, dst.F64)
		case Str:
			copyRows(v.Str, rows, dst.Str)
		}
	}
}

// Materialize returns v unchanged when it is already plain, otherwise a
// freshly allocated plain vector holding the decoded values — the mandatory
// fallback path: every operator works on the result regardless of what a
// scan emitted.
func (v *Vector) Materialize() *Vector {
	if v.Enc == EncPlain {
		return v
	}
	dst := New(v.Typ, v.Len())
	v.MaterializeInto(dst)
	return dst
}
