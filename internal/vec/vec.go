// Package vec provides the vectorized execution substrate: typed column
// vectors, selection vectors and batches.
//
// Like the paper's engine (Vectorwise), all primitives in this repository
// process cache-resident vectors of (by default) 1024 values in tight
// loops, optionally restricted by a selection vector.
package vec

import "ocht/internal/i128"

// Size is the default number of values per vector.
const Size = 1024

// MaxLen is the batch capacity: every selection-vector entry is a
// physical row position and must stay below it. The selvec analyzer and
// the ocht_debug AssertSel check both enforce this bound.
const MaxLen = Size

// Type enumerates the physical column types the engine understands.
type Type uint8

// Physical types.
const (
	Bool Type = iota
	I8
	I16
	I32
	I64
	I128
	F64
	Str // string reference (StrRef)
)

// String returns the lowercase type name.
func (t Type) String() string {
	switch t {
	case Bool:
		return "bool"
	case I8:
		return "i8"
	case I16:
		return "i16"
	case I32:
		return "i32"
	case I64:
		return "i64"
	case I128:
		return "i128"
	case F64:
		return "f64"
	case Str:
		return "str"
	default:
		return "invalid"
	}
}

// Width returns the byte width of one value of type t as materialized in a
// hash-table record (string refs are 8-byte handles, like the paper's
// 64-bit string pointers).
func (t Type) Width() int {
	switch t {
	case Bool, I8:
		return 1
	case I16:
		return 2
	case I32:
		return 4
	case I64, F64, Str:
		return 8
	case I128:
		return 16
	default:
		return 0
	}
}

// Bits returns the bit width of type t.
func (t Type) Bits() int { return t.Width() * 8 }

// IsInt reports whether t is one of the integer types the prefix-suppression
// kernels can pack.
func (t Type) IsInt() bool {
	switch t {
	case I8, I16, I32, I64, I128:
		return true
	}
	return false
}

// StrRef is a 64-bit string handle. In the paper strings in-flight are raw
// pointers, and USSR residency is tested with a mask on the pointer bits.
// Go forbids that, so a StrRef is a tagged handle:
//
//   - USSR-resident strings: ussrTag | slot, where slot is the 16-bit slot
//     number of the string's first data word in the USSR region.
//   - Heap strings: the arena offset in the query's string heap.
//
// The residency test is the same single mask-and-compare as the paper's
// pointer test. Ref 0 is reserved as the invalid/exception marker used by
// Optimistic Splitting (Section IV-F).
type StrRef uint64

// USSRTag is the tag bit marking a StrRef as USSR-resident. It mirrors the
// fixed 45-bit pointer prefix of the paper's self-aligned region.
const USSRTag StrRef = 1 << 63

// InUSSR reports whether r refers into the USSR region.
func (r StrRef) InUSSR() bool { return r&USSRTag != 0 }

// USSRSlot returns the 16-bit USSR slot number of r. Only meaningful when
// InUSSR() is true. This is the paper's "(p >> 3) & 65535".
func (r StrRef) USSRSlot() uint16 { return uint16(r) }

// HeapOffset returns the string-heap offset of r. Only meaningful when
// InUSSR() is false.
func (r StrRef) HeapOffset() uint64 { return uint64(r) &^ uint64(USSRTag) }

// Interner interns the bytes of a dictionary entry; strs.Store implements
// it. The bytes alias scratch, so an implementation copies what it keeps.
type Interner interface {
	InternBytes(b []byte) StrRef
}

// Vector is a typed array of values. For plain vectors exactly one of the
// data slices is non-nil, matching Typ. Nulls, when non-nil, marks NULL
// values at the same physical positions as the data.
//
// A vector may instead carry a compressed encoding (Enc != EncPlain), in
// which case the plain data slice is nil and the values live in the
// encoding-specific fields below. The virtual accessors (Int64At, StrRefAt)
// decode transparently; operators that need raw slices call Materialize
// first. This is the holistic compressed-execution exchange format: scans
// emit blocks in their stored encoding and operators materialize late.
type Vector struct {
	Typ   Type
	Nulls []bool

	Bool []bool
	I8   []int8
	I16  []int16
	I32  []int32
	I64  []int64
	I128 []i128.Int
	F64  []float64
	Str  []StrRef

	// Enc selects the in-flight representation; EncPlain (the zero value)
	// means the typed slice above holds the data directly.
	Enc Encoding

	// EncDict (Str only): Codes holds per-row dictionary codes into
	// DictRefs, the per-block code -> string-reference table. DictRefs are
	// ordinary StrRefs (USSR-resident or heap), so string resolution stays
	// a plain array lookup at emission time. When Codes is nil the codes
	// are instead bit-packed in the Packed* fields below (PackMin 0) —
	// the zero-copy view of a compressed sealed block's code column; use
	// CodeAt/StrRefAt, or branch on Codes once per kernel.
	//
	// A block view interns its dictionary lazily: DictRefs starts zeroed
	// (StrRef 0 is never an interned reference), entry c's bytes are
	// DictBytes[DictOffs[c]:DictOffs[c+1]], and DictRef — hence StrRefAt,
	// MaterializeInto and MaterializeRowsInto — interns an entry through
	// DictIntern the first time a row reads it, so an entry no surviving
	// row needs is never interned. Windows of one block share DictRefs,
	// so a fill is seen by all of them. DictBytes and DictOffs alias the
	// scan's decode scratch, which the next block overwrites; read entries
	// through DictEntry and never keep the slices. A vector without
	// DictIntern carries a complete DictRefs table.
	//
	// DictID is the view's identity: storage.Column.ViewBlock stamps every
	// view with a fresh, process-unique nonzero value and windows of the
	// view keep it, so two vectors with one DictID read every code as the
	// same bytes. Per-code work may be cached by DictID (the aggregation's
	// code memo, DESIGN.md), never by the identity of DictRefs, whose
	// memory a later view reuses. 0 means no identity: nothing is cached.
	Codes      []int32
	DictRefs   []StrRef
	DictBytes  []byte
	DictOffs   []int32
	DictIntern Interner
	DictID     uint64

	// EncPacked (integer types): values are stored as PackBits-wide
	// unsigned offsets from PackMin (frame of reference), packed into
	// 64-bit words without crossing word boundaries — the same layout the
	// prefix-suppression kernels use. PackOff is the offset of this view's
	// row 0 within Packed (vector windows over a block share the block's
	// words) and PackLen the number of rows.
	Packed   []uint64
	PackBits int
	PackMin  int64
	PackOff  int
	PackLen  int
}

// New allocates a vector of n values of type t.
func New(t Type, n int) *Vector {
	v := &Vector{Typ: t}
	switch t {
	case Bool:
		v.Bool = make([]bool, n)
	case I8:
		v.I8 = make([]int8, n)
	case I16:
		v.I16 = make([]int16, n)
	case I32:
		v.I32 = make([]int32, n)
	case I64:
		v.I64 = make([]int64, n)
	case I128:
		v.I128 = make([]i128.Int, n)
	case F64:
		v.F64 = make([]float64, n)
	case Str:
		v.Str = make([]StrRef, n)
	}
	return v
}

// Len returns the physical length of the vector.
func (v *Vector) Len() int {
	switch v.Enc {
	case EncDict:
		if v.Codes != nil {
			return len(v.Codes)
		}
		return v.PackLen // bit-packed codes from a compressed sealed block
	case EncPacked:
		return v.PackLen
	case EncPlain:
		// length lives in the typed payload slice below
	}
	switch v.Typ {
	case Bool:
		return len(v.Bool)
	case I8:
		return len(v.I8)
	case I16:
		return len(v.I16)
	case I32:
		return len(v.I32)
	case I64:
		return len(v.I64)
	case I128:
		return len(v.I128)
	case F64:
		return len(v.F64)
	case Str:
		return len(v.Str)
	}
	return 0
}

// Int64At returns the value at physical position i widened to int64.
// It panics for non-integer vectors.
//
//ocht:hot
func (v *Vector) Int64At(i int) int64 {
	if v.Enc == EncPacked {
		return v.packedAt(i)
	}
	switch v.Typ {
	case I8:
		return int64(v.I8[i])
	case I16:
		return int64(v.I16[i])
	case I32:
		return int64(v.I32[i])
	case I64:
		return v.I64[i]
	case Bool:
		if v.Bool[i] {
			return 1
		}
		return 0
	}
	badType("vec: Int64At on ", v.Typ)
	return 0
}

// badType panics for an unsupported vector type. It is hoisted out of the
// hot kernels so the panic's interface boxing stays off their code path.
func badType(msg string, t Type) {
	panic(msg + t.String())
}

// SetInt64 stores x at physical position i, narrowing to the vector type.
func (v *Vector) SetInt64(i int, x int64) {
	switch v.Typ {
	case I8:
		v.I8[i] = int8(x)
	case I16:
		v.I16[i] = int16(x)
	case I32:
		v.I32[i] = int32(x)
	case I64:
		v.I64[i] = x
	case Bool:
		v.Bool[i] = x != 0
	default:
		panic("vec: SetInt64 on " + v.Typ.String())
	}
}

// IsNull reports whether position i is NULL.
func (v *Vector) IsNull(i int) bool {
	return v.Nulls != nil && v.Nulls[i]
}

// SetNull marks position i as NULL, allocating the null mask on first use.
func (v *Vector) SetNull(i int) {
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.Len())
	}
	v.Nulls[i] = true
}

// HasNulls reports whether any position is NULL.
func (v *Vector) HasNulls() bool {
	for _, n := range v.Nulls {
		if n {
			return true
		}
	}
	return false
}

// Batch is a set of equally-sized vectors plus an optional selection vector.
// When Sel is non-nil the active rows are the physical positions
// Sel[0:N]; otherwise the active rows are 0..N-1.
type Batch struct {
	Vecs []*Vector
	Sel  []int32
	N    int
}

// NewBatch allocates a batch of vectors with the given types, each of
// capacity Size.
func NewBatch(types ...Type) *Batch {
	b := &Batch{Vecs: make([]*Vector, len(types))}
	for i, t := range types {
		b.Vecs[i] = New(t, Size)
	}
	return b
}

// FullSel is a reusable identity selection vector of length Size.
var FullSel = func() []int32 {
	s := make([]int32, Size)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// Rows returns the active physical row positions of the batch. When no
// selection vector is set it returns a shared identity vector, so callers
// must not modify the result.
func (b *Batch) Rows() []int32 {
	if b.Sel != nil {
		return b.Sel[:b.N]
	}
	if b.N <= Size {
		return FullSel[:b.N]
	}
	s := make([]int32, b.N)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// Selectivity returns the active fraction N / physical length, used by the
// micro-adaptive full-vector packing decision (Section II-C).
func (b *Batch) Selectivity() float64 {
	if b.Sel == nil || len(b.Sel) == 0 {
		return 1
	}
	phys := 0
	for _, v := range b.Vecs {
		if l := v.Len(); l > phys {
			phys = l
		}
	}
	if phys == 0 {
		return 1
	}
	return float64(b.N) / float64(phys)
}
