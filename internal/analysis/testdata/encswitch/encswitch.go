// Package fixture seeds encoding-dispatch violations. Vector/Encoding
// mirror the engine's vec types by name, which is how the analyzer
// matches; the virtual path puts the payload-access rule in scope.
//
//ocht:path ocht/internal/exec
package fixture

// Encoding mirrors vec.Encoding.
type Encoding uint8

// The three encodings every dispatch must account for.
const (
	EncPlain Encoding = iota
	EncDict
	EncPacked
)

// StrRef mirrors vec.StrRef.
type StrRef struct{ Off, Len uint32 }

// Vector mirrors vec.Vector's payload layout, including the lazily
// interned dictionary of a block view.
type Vector struct {
	Enc       Encoding
	I64       []int64
	Str       []StrRef
	Codes     []uint32
	Packed    []uint64
	DictRefs  []StrRef
	DictBytes []byte
	DictOffs  []int32
}

// DictRef mirrors vec.Vector.DictRef: it interns entry c on first use.
func (v *Vector) DictRef(c uint32) StrRef { return StrRef{Off: c} }

// DictEntry mirrors vec.Vector.DictEntry.
func (v *Vector) DictEntry(c uint32) []byte { _ = c; return nil }

// Batch mirrors vec.Batch: its vectors arrive in their stored encoding.
type Batch struct {
	Vecs []*Vector
}

// New mirrors vec.New: a freshly allocated vector is plain.
func New() *Vector { return &Vector{} }

// Materialize decodes into a fresh plain vector.
func (v *Vector) Materialize() *Vector { return New() }

// lenBad dispatches on the encoding but forgets the packed case.
func lenBad(v *Vector) int {
	switch v.Enc { // want "does not handle EncPacked"
	case EncPlain:
		return len(v.I64)
	case EncDict:
		return len(v.Codes)
	}
	return 0
}

// lenDefault is exhaustive by way of a default clause.
func lenDefault(v *Vector) int {
	switch v.Enc {
	case EncDict:
		return len(v.Codes)
	default:
		return len(v.I64)
	}
	return 0
}

// chainBad dispatches with an if chain and drops packed vectors on the
// floor.
func chainBad(v *Vector) int64 {
	if v.Enc == EncPlain { // want "missing EncPacked"
		return v.I64[0]
	} else if v.Enc == EncDict {
		return int64(v.Codes[0])
	}
	return 0
}

// chainElse is fine: the trailing else catches every encoding.
func chainElse(v *Vector) int64 {
	if v.Enc == EncPlain {
		return v.I64[0]
	} else if v.Enc == EncDict {
		return int64(v.Codes[0])
	} else {
		return int64(v.Packed[0])
	}
}

// fastPath is a single guard, not a dispatch: exempt.
func fastPath(v *Vector) int64 {
	if v.Enc == EncPacked {
		return int64(v.Packed[0])
	}
	return v.I64[0]
}

// rawAccess indexes a batch vector's payload with no encoding proof.
func rawAccess(b *Batch) int64 {
	v := b.Vecs[0]
	return v.I64[0] // want "may still be dict- or FoR-encoded"
}

// rawDirect indexes the batch slot inline; same violation.
func rawDirect(b *Batch) int64 {
	return b.Vecs[1].I64[0] // want "may still be dict- or FoR-encoded"
}

// guarded proves plainness by branching on the encoding first.
func guarded(b *Batch) int64 {
	v := b.Vecs[0]
	if v.Enc == EncPlain {
		return v.I64[0]
	}
	return 0
}

// materialized decodes before touching the payload.
func materialized(b *Batch) int64 {
	v := b.Vecs[0]
	v = v.Materialize()
	return v.I64[0]
}

// viewOf passes a batch vector through: it earns the encoded-source fact.
func viewOf(b *Batch) *Vector { return b.Vecs[1] }

// viaFact shows the fact propagating through the call.
func viaFact(b *Batch) int64 {
	v := viewOf(b)
	return v.I64[0] // want "may still be dict- or FoR-encoded"
}

// fresh returns a materializer result: it earns the plain-result fact.
func fresh() *Vector { return New() }

// viaPlainFact assigns from a plain-result function: clean.
func viaPlainFact(b *Batch) int64 {
	_ = b
	v := fresh()
	return v.I64[0]
}

// suppressed documents a deliberate raw read.
func suppressed(b *Batch) int64 {
	v := b.Vecs[0]
	//ocht:allow(encswitch) decoder self-test reads raw words deliberately
	return v.I64[0]
}

// rawDictRef indexes the code table under an EncDict guard: the guard
// proves the encoding, not that the entry was interned.
func rawDictRef(b *Batch) StrRef {
	v := b.Vecs[0]
	if v.Enc == EncDict {
		return v.DictRefs[v.Codes[0]] // want "fills on first use"
	}
	return StrRef{}
}

// rangeDictRefs reads every entry's reference by value.
func rangeDictRefs(v *Vector) int {
	n := 0
	for _, r := range v.DictRefs { // want "fills on first use"
		n += int(r.Len)
	}
	return n
}

// rawDictBytes slices the decode scratch by hand.
func rawDictBytes(v *Vector, c int32) []byte {
	lo := v.DictOffs[c]     // want "v.DictOffs read raw"
	return v.DictBytes[lo:] // want "read entries through DictRef/StrRefAt or DictEntry"
}

// dictAccessors are the sanctioned reads: the accessors, the table's
// length and identity, and ranging over its indices.
func dictAccessors(b *Batch, ok []bool) int {
	v := b.Vecs[0]
	n := len(v.DictRefs)
	for c := range v.DictRefs {
		ok[c] = len(v.DictEntry(uint32(c))) > 0
	}
	table := v.DictRefs
	_ = table
	if v.Enc == EncDict {
		n += int(v.DictRef(v.Codes[0]).Len)
	}
	return n
}
