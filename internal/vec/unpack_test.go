package vec

import (
	"math/rand"
	"slices"
	"testing"
)

// refLane is the lane-at-a-time reference the decoders are pinned to.
func refLane(words []uint64, bits, j int) uint64 {
	if bits == 64 {
		return words[j]
	}
	per := 64 / bits
	return words[j/per] >> (uint(j%per) * uint(bits)) & (1<<uint(bits) - 1)
}

// decodeRowSets are the row shapes every decoder must handle: the
// identity, sparse, gaps wider than a word, repeats (gathers), a single
// row and none.
func decodeRowSets(rng *rand.Rand, n, per int) map[string][]int32 {
	sets := map[string][]int32{"empty": nil, "single": {int32(n / 2)}}
	var ident, sparse, gaps, reps []int32
	for i := 0; i < n; i++ {
		ident = append(ident, int32(i))
		if rng.Intn(5) == 0 {
			sparse = append(sparse, int32(i))
		}
	}
	for i := rng.Intn(3); i < n; i += 2*per + 1 + rng.Intn(3*per+1) {
		gaps = append(gaps, int32(i))
	}
	for i := 0; i < n; i += 1 + rng.Intn(3) {
		for k := rng.Intn(3); k >= 0; k-- {
			reps = append(reps, int32(i))
		}
	}
	sets["identity"], sets["sparse"], sets["gaps"], sets["repeats"] = ident, sparse, gaps, reps
	return sets
}

// TestUnpackMatchesLane pins the decoders (dense, at rows, gathered) against the random-access reference at every width, with
// view offsets that are not multiples of the lanes per word.
func TestUnpackMatchesLane(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n = 300
	for bits := 1; bits <= 64; bits++ {
		per := 64 / bits
		words := make([]uint64, 4+(3*per+n)/per)
		for i := range words {
			words[i] = rng.Uint64()
		}
		for _, off := range []int{0, 1, per - 1, per + 1, 3*per + 1} {
			base := rng.Int63n(1000) - 500
			want := func(r int32) int64 { return base + int64(refLane(words, bits, off+int(r))) }
			for _, m := range []int{0, 1, per, per + 1, n} {
				dst := make([]int64, m)
				UnpackRange(words, bits, off, base, dst)
				for i := range dst {
					if dst[i] != want(int32(i)) {
						t.Fatalf("bits=%d off=%d UnpackRange[%d] = %d, want %d", bits, off, i, dst[i], want(int32(i)))
					}
				}
			}
			for name, rows := range decodeRowSets(rng, n, per) {
				got := make([]int64, len(rows))
				GatherRows(words, bits, off, base, rows, got)
				for i, r := range rows {
					if got[i] != want(r) {
						t.Fatalf("bits=%d off=%d %s row %d: GatherRows %d, want %d", bits, off, name, r, got[i], want(r))
					}
				}
				if name == "repeats" {
					continue // not a selection vector
				}
				at := make([]int64, n)
				for i := range at {
					at[i] = 99
				}
				UnpackRows(words, bits, off, base, rows, at)
				for i, r := range rows {
					if at[r] != want(r) {
						t.Fatalf("bits=%d off=%d %s row %d: UnpackRows %d, want %d", bits, off, name, r, at[r], want(r))
					}
					at[r] = 99
					if i > 0 && rows[i-1] >= r {
						t.Fatalf("%s is not a selection", name)
					}
				}
				for i := range at {
					if at[i] != 99 {
						t.Fatalf("bits=%d off=%d %s: UnpackRows wrote unselected position %d", bits, off, name, i)
					}
				}
			}
		}
	}
}

// TestLaneReaderReciprocalBound reads the top lanes of the longest layout
// the reciprocal word index covers (2^26 lanes) and of one a word longer,
// which divides instead: both must agree with the reference.
func TestLaneReaderReciprocalBound(t *testing.T) {
	for _, words := range []int{1 << 20, 1<<20 + 1} { // bits 1: 64 lanes a word
		w := make([]uint64, words)
		rng := rand.New(rand.NewSource(67))
		for i := len(w) - 4; i < len(w); i++ {
			w[i] = rng.Uint64()
		}
		if r := newLaneReader(w, 1); (r.recip != 0) != (words == 1<<20) {
			t.Fatalf("%d words: recip %d", words, r.recip)
		}
		lanes := words * 64
		rows := []int32{int32(lanes - 200), int32(lanes - 131), int32(lanes - 64), int32(lanes - 1)}
		got := make([]int64, len(rows))
		GatherRows(w, 1, 0, 0, rows, got)
		for i, r := range rows {
			if want := int64(refLane(w, 1, int(r))); got[i] != want {
				t.Fatalf("%d words, lane %d: %d, want %d", words, r, got[i], want)
			}
		}
	}
}

// TestPackedVectorDecoders checks every Vector decoder of packed integers
// (I8..I64) and of bit-packed dictionary codes against the per-row
// accessors, and that the at-rows decoders leave unselected positions
// alone.
func TestPackedVectorDecoders(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const n = 200
	for _, typ := range []Type{I8, I16, I32, I64} {
		for _, bits := range []int{1, 3, 7, 8, 13, 32} {
			if bits > typ.Bits()-1 {
				continue
			}
			per := 64 / bits
			vals := make([]int64, n)
			min := int64(-(1 << (typ.Bits() - 2)))
			for i := range vals {
				vals[i] = min + rng.Int63n(1<<uint(bits))
			}
			for _, off := range []int{0, 1, per + 1} {
				v := packedVec(typ, vals, min, bits, off)
				checkVectorDecoders(t, v, rng, n, per)
			}
		}
	}
	for _, bits := range []int{1, 4, 7, 16} {
		per := 64 / bits
		codes := make([]int64, n)
		refs := make([]StrRef, 1<<bits)
		for i := range refs {
			refs[i] = StrRef(1000 + i)
		}
		for i := range codes {
			codes[i] = rng.Int63n(int64(len(refs)))
		}
		for _, off := range []int{0, 3, per + 1} {
			v := packedVec(Str, codes, 0, bits, off)
			v.Enc, v.DictRefs = EncDict, refs
			checkVectorDecoders(t, v, rng, n, per)
		}
	}
}

func checkVectorDecoders(t *testing.T, v *Vector, rng *rand.Rand, n, per int) {
	t.Helper()
	dense := New(v.Typ, n)
	v.MaterializeInto(dense)
	ints := make([]int64, n)
	if v.Typ != Str {
		v.IntsInto(ints)
	}
	for i := 0; i < n; i++ {
		if v.Typ == Str {
			if dense.Str[i] != v.StrRefAt(i) {
				t.Fatalf("%v bits=%d off=%d: MaterializeInto[%d] = %d, want %d", v.Typ, v.PackBits, v.PackOff, i, dense.Str[i], v.StrRefAt(i))
			}
			continue
		}
		if dense.Int64At(i) != v.Int64At(i) || ints[i] != v.Int64At(i) {
			t.Fatalf("%v bits=%d off=%d: row %d decodes to %d / %d, want %d", v.Typ, v.PackBits, v.PackOff, i, dense.Int64At(i), ints[i], v.Int64At(i))
		}
	}
	for name, rows := range decodeRowSets(rng, n, per) {
		gat := New(v.Typ, len(rows))
		v.GatherInto(gat, rows)
		for i, r := range rows {
			if valueAt(gat, i) != valueAt(v, int(r)) {
				t.Fatalf("%v bits=%d off=%d %s row %d: gathered %d, want %d",
					v.Typ, v.PackBits, v.PackOff, name, r, valueAt(gat, i), valueAt(v, int(r)))
			}
		}
		if name == "repeats" {
			continue // not a selection vector
		}
		at := New(v.Typ, n)
		for i := 0; i < n; i++ {
			poison(at, i)
		}
		v.MaterializeRowsInto(at, rows)
		sel := map[int32]bool{}
		for _, r := range rows {
			sel[r] = true
			if valueAt(at, int(r)) != valueAt(v, int(r)) {
				t.Fatalf("%v bits=%d off=%d %s row %d: at-rows %d, want %d",
					v.Typ, v.PackBits, v.PackOff, name, r, valueAt(at, int(r)), valueAt(v, int(r)))
			}
		}
		for i := 0; i < n; i++ {
			if !sel[int32(i)] && valueAt(at, i) != 99 {
				t.Fatalf("%v %s: unselected row %d written", v.Typ, name, i)
			}
		}
		if v.Typ != Str {
			ints := make([]int64, n)
			v.IntRowsInto(rows, ints)
			for _, r := range rows {
				if ints[r] != v.Int64At(int(r)) {
					t.Fatalf("%v %s: IntRowsInto row %d = %d, want %d", v.Typ, name, r, ints[r], v.Int64At(int(r)))
				}
			}
		}
	}
}

// poison and valueAt let the decoder checks treat string and integer
// vectors alike: 99 marks a position no decoder may write.
func poison(v *Vector, i int) {
	if v.Typ == Str {
		v.Str[i] = 99
	} else {
		v.SetInt64(i, 99)
	}
}

func valueAt(v *Vector, i int) int64 {
	if v.Typ == Str {
		return int64(v.StrRefAt(i))
	}
	return v.Int64At(i)
}

// FuzzUnpack pins the decoders to the random-access reference on
// arbitrary widths, offsets and ascending row sets: with repeats for the
// gather, without for the at-rows decoder.
func FuzzUnpack(f *testing.F) {
	f.Add(uint8(7), uint16(3), int64(-5), []byte{0, 1, 1, 9, 200, 3})
	f.Add(uint8(64), uint16(0), int64(0), []byte{})
	f.Add(uint8(1), uint16(63), int64(1), []byte{255, 255, 0})
	f.Fuzz(func(t *testing.T, b uint8, off uint16, base int64, steps []byte) {
		bits := int(b%64) + 1
		per := 64 / bits
		o := int(off) % 512
		var rows []int32
		r := 0
		for _, s := range steps {
			r += int(s) % 130 // 0 repeats a row; up to two words and more apart
			rows = append(rows, int32(r))
		}
		words := make([]uint64, (o+r+1)/per+2)
		rng := rand.New(rand.NewSource(int64(b) ^ int64(off)<<8 ^ base))
		for i := range words {
			words[i] = rng.Uint64()
		}
		got := make([]int64, len(rows))
		GatherRows(words, bits, o, base, rows, got)
		sel := slices.Compact(slices.Clone(rows))
		at := make([]int64, r+1)
		UnpackRows(words, bits, o, base, sel, at)
		for _, r := range sel {
			if want := base + int64(refLane(words, bits, o+int(r))); at[r] != want {
				t.Fatalf("bits=%d off=%d row %d: UnpackRows %d, want %d", bits, o, r, at[r], want)
			}
		}
		dense := make([]int64, r+1)
		UnpackRange(words, bits, o, base, dense)
		for i := range dense {
			if want := base + int64(refLane(words, bits, o+i)); dense[i] != want {
				t.Fatalf("bits=%d off=%d UnpackRange[%d] = %d, want %d", bits, o, i, dense[i], want)
			}
		}
		for i, r := range rows {
			if want := base + int64(refLane(words, bits, o+int(r))); got[i] != want {
				t.Fatalf("bits=%d off=%d row %d: GatherRows %d, want %d", bits, o, r, got[i], want)
			}
		}
	})
}
