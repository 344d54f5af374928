package pack

import (
	"encoding/binary"

	"ocht/internal/vec"
)

// FullProcessThreshold is the micro-adaptive selectivity threshold of
// Section II-C: when at least this fraction of a batch is still active the
// pack kernels process the vector fully (branch-free) instead of gathering
// through the selection vector.
const FullProcessThreshold = 0.25

// wordSlice is a pre-resolved slice descriptor used by the kernels.
type wordSlice struct {
	get      func(int) uint64 // raw value accessor, sign-extended to 64 bits
	base     uint64           // domain minimum (as uint64, wrap-around subtract)
	srcShift uint
	mask     uint64
	outShift uint
}

// kernels returns the resolved slice parameters for output word w.
func (p *Plan) kernels(w int, cols []*vec.Vector) []wordSlice {
	var ks []wordSlice
	for _, s := range p.Slices {
		if s.Word != w {
			continue
		}
		c := p.Cols[s.Col]
		ks = append(ks, wordSlice{
			get:      getter(cols[s.Col]),
			base:     uint64(c.Dom.Min),
			srcShift: uint(s.SrcShift),
			mask:     s.Mask(),
			outShift: uint(s.OutShift),
		})
	}
	return ks
}

// getter returns an accessor producing the raw value at a physical
// position as a sign-extended uint64 (so wrap-around subtraction of the
// domain base yields the non-negative offset).
func getter(v *vec.Vector) func(int) uint64 {
	switch v.Typ {
	case vec.I8:
		d := v.I8
		return func(i int) uint64 { return uint64(int64(d[i])) }
	case vec.I16:
		d := v.I16
		return func(i int) uint64 { return uint64(int64(d[i])) }
	case vec.I32:
		d := v.I32
		return func(i int) uint64 { return uint64(int64(d[i])) }
	case vec.I64:
		d := v.I64
		return func(i int) uint64 { return uint64(d[i]) }
	case vec.Str:
		d := v.Str
		return func(i int) uint64 { return uint64(d[i]) }
	case vec.Bool:
		d := v.Bool
		return func(i int) uint64 {
			if d[i] {
				return 1
			}
			return 0
		}
	default:
		panic("pack: unsupported input type " + v.Typ.String())
	}
}

// PackWord computes output word w of the plan for the given rows, writing
// out[pos] for every active physical position pos. Implements the paper's
// pack2_i32_i16_to_i32-style kernels with runtime per-column parameters,
// including the micro-adaptive full-vector mode and the zero-base fast
// path (Section II-C).
//
// out must be at least as long as the physical vectors. When the active
// fraction is at least FullProcessThreshold the kernel computes all
// physical positions (cheaper than gathering); otherwise only the selected
// ones.
func (p *Plan) PackWord(w int, cols []*vec.Vector, rows []int32, out []uint64) {
	phys := physLen(cols)
	full := len(rows) >= int(FullProcessThreshold*float64(phys))
	p.PackWordMode(w, cols, rows, out, full)
}

// PackWordMode is PackWord with the micro-adaptive decision overridden:
// full=true processes every physical position, full=false gathers through
// the selection vector. Exposed for the micro-adaptivity ablation bench.
func (p *Plan) PackWordMode(w int, cols []*vec.Vector, rows []int32, out []uint64, full bool) {
	if p.packWordI64(w, cols, rows, out, full) {
		return
	}
	ks := p.kernels(w, cols)
	phys := physLen(cols)

	allZeroBase := true
	for _, k := range ks {
		if k.base != 0 {
			allZeroBase = false
			break
		}
	}

	if full {
		if allZeroBase {
			for i := 0; i < phys; i++ {
				var word uint64
				for _, k := range ks {
					word |= (k.get(i) >> k.srcShift & k.mask) << k.outShift
				}
				out[i] = word
			}
			return
		}
		for i := 0; i < phys; i++ {
			var word uint64
			for _, k := range ks {
				word |= ((k.get(i) - k.base) >> k.srcShift & k.mask) << k.outShift
			}
			out[i] = word
		}
		return
	}
	if allZeroBase {
		for _, r := range rows {
			i := int(r)
			var word uint64
			for _, k := range ks {
				word |= (k.get(i) >> k.srcShift & k.mask) << k.outShift
			}
			out[i] = word
		}
		return
	}
	for _, r := range rows {
		i := int(r)
		var word uint64
		for _, k := range ks {
			word |= ((k.get(i) - k.base) >> k.srcShift & k.mask) << k.outShift
		}
		out[i] = word
	}
}

// InDomain writes match[pos] = whether every plan column's value at the
// active positions lies inside its domain. Probe-side values outside the
// build-side domain cannot match any stored key, so compressed comparison
// first filters them out (Section II-D).
//
//ocht:hot
func (p *Plan) InDomain(cols []*vec.Vector, rows []int32, match []bool) {
	for _, r := range rows {
		match[r] = true
	}
	for ci, c := range p.Cols {
		if !c.Dom.Valid {
			continue
		}
		lo, hi := c.Dom.Min, c.Dom.Max
		if cols[ci].Typ == vec.I64 {
			d := cols[ci].I64
			for _, r := range rows {
				if v := d[r]; v < lo || v > hi {
					match[r] = false
				}
			}
			continue
		}
		get := getter(cols[ci])
		for _, r := range rows {
			v := int64(get(int(r)))
			if v < lo || v > hi {
				match[r] = false
			}
		}
	}
}

// PackRecords packs the given rows into NSM records: for active position
// rows[i], the record at byte offset recIdx[i]*stride (+off) inside dst.
// This is the pack-then-scatter step of the build phase (Section II-C).
// scratch must hold at least the physical vector length; it is reused
// across words.
func (p *Plan) PackRecords(cols []*vec.Vector, rows []int32, dst []byte, recIdx []int32, stride, off int, scratch []uint64) {
	wb := p.WordBits / 8
	for w := 0; w < p.Words; w++ {
		p.PackWord(w, cols, rows, scratch)
		wordOff := off + w*wb
		if p.WordBits == 32 {
			for i, r := range rows {
				pos := int(recIdx[i])*stride + wordOff
				binary.LittleEndian.PutUint32(dst[pos:], uint32(scratch[r]))
			}
		} else {
			for i, r := range rows {
				pos := int(recIdx[i])*stride + wordOff
				binary.LittleEndian.PutUint64(dst[pos:], scratch[r])
			}
		}
	}
}

// UnpackColumn decompresses column c of the plan from NSM records into
// out at the active positions: out[rows[i]] = base + unpacked bits of the
// record at recIdx[i]. It mirrors the paper's unpack2_i32_i16_to_i16
// fetch-decompress kernels: up to 4 slices are fetched from the record and
// stitched back together (Section II-C).
func (p *Plan) UnpackColumn(c int, recs []byte, recIdx []int32, stride, off int, out *vec.Vector, rows []int32) {
	base := uint64(p.Cols[c].Dom.Min)
	slices := p.byCol[c]
	wb := p.WordBits / 8
	set := setter(out)
	if len(slices) == 0 {
		// Constant column: singleton domain, value is the base.
		for _, r := range rows {
			set(int(r), base)
		}
		return
	}
	for i, ri := range recIdx {
		rec := recs[int(ri)*stride+off:]
		var v uint64
		for _, si := range slices {
			s := p.Slices[si]
			var word uint64
			if p.WordBits == 32 {
				word = uint64(binary.LittleEndian.Uint32(rec[s.Word*wb:]))
			} else {
				word = binary.LittleEndian.Uint64(rec[s.Word*wb:])
			}
			v |= (word >> uint(s.OutShift) & s.Mask()) << uint(s.SrcShift)
		}
		set(int(rows[i]), v+base)
	}
}

// setter returns a store function narrowing a reconstructed uint64 into
// the output vector's type.
func setter(v *vec.Vector) func(int, uint64) {
	switch v.Typ {
	case vec.I8:
		d := v.I8
		return func(i int, x uint64) { d[i] = int8(x) }
	case vec.I16:
		d := v.I16
		return func(i int, x uint64) { d[i] = int16(x) }
	case vec.I32:
		d := v.I32
		return func(i int, x uint64) { d[i] = int32(x) }
	case vec.I64:
		d := v.I64
		return func(i int, x uint64) { d[i] = int64(x) }
	case vec.Str:
		d := v.Str
		return func(i int, x uint64) { d[i] = vec.StrRef(x) }
	case vec.Bool:
		d := v.Bool
		return func(i int, x uint64) { d[i] = x != 0 }
	default:
		panic("pack: unsupported output type " + v.Typ.String())
	}
}

// MatchRecords compares pre-packed probe key words against stored records:
// match[rows[i]] &&= (all plan words of record recIdx[i] equal
// probeWords[w][rows[i]]). Comparison happens directly on compressed data;
// the probe key was brought into the stored representation first
// (Section II-D: compress B, compare to stored A).
func (p *Plan) MatchRecords(probeWords [][]uint64, recs []byte, recIdx []int32, stride, off int, rows []int32, match []bool) {
	wb := p.WordBits / 8
	for w := 0; w < p.Words; w++ {
		pw := probeWords[w]
		wordOff := off + w*wb
		if p.WordBits == 32 {
			for i, r := range rows {
				if !match[r] {
					continue
				}
				rec := int(recIdx[i])*stride + wordOff
				if uint32(pw[r]) != binary.LittleEndian.Uint32(recs[rec:]) {
					match[r] = false
				}
			}
		} else {
			for i, r := range rows {
				if !match[r] {
					continue
				}
				rec := int(recIdx[i])*stride + wordOff
				if pw[r] != binary.LittleEndian.Uint64(recs[rec:]) {
					match[r] = false
				}
			}
		}
	}
}

// HashWords folds the packed key words of each active row into a 64-bit
// hash. Packing multiple key columns into one word halves hashing work
// (Section II, PARTSUPP example): the hash is computed on the packed words
// rather than on each original column.
func HashWords(probeWords [][]uint64, rows []int32, out []uint64) {
	if len(probeWords) == 0 {
		for _, r := range rows {
			out[r] = 0
		}
		return
	}
	w0 := probeWords[0]
	if DenseRows(rows) {
		// Unfiltered batches hash through the word-parallel four-chain
		// kernels (bit-identical to the per-row loop below).
		n := len(rows)
		Mix64Batch(w0, out, n)
		for _, pw := range probeWords[1:] {
			Mix64BatchFold(pw, out, n)
		}
		return
	}
	for _, r := range rows {
		out[r] = Mix64(w0[r])
	}
	for _, pw := range probeWords[1:] {
		for _, r := range rows {
			out[r] = Mix64(out[r] ^ Mix64(pw[r]))
		}
	}
}

// Mix64 is a cheap invertible 64-bit finalizer (splitmix64 finalization),
// the hash function used across the hash tables in this repository.
//
//ocht:hot
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashBytes is the engine's string hash: the string heap, the USSR's
// pre-computed hashes and the hash-table operators all hash strings through
// it. Its cost grows with the string's length — exactly the cost the USSR's
// stored hashes avoid (Section IV-E), which is what makes the hashing
// speedups of Figure 7 grow with string length.
func HashBytes[T string | []byte](s T) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ uint64(len(s))*hashPrime
	for ; len(s) >= 8; s = s[8:] {
		h = hashMix(h ^ (uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56))
	}
	if len(s) > 0 {
		var tail uint64
		for i := len(s) - 1; i >= 0; i-- {
			tail = tail<<8 | uint64(s[i])
		}
		h = hashMix(h ^ tail)
	}
	return hashMix(h)
}

const hashPrime = 0xff51afd7ed558ccd

// hashMix is HashBytes' word mixer (the murmur3 finalizer's first half).
func hashMix(x uint64) uint64 {
	x ^= x >> 33
	x *= hashPrime
	return x ^ x>>33
}

func physLen(cols []*vec.Vector) int {
	n := 0
	for _, c := range cols {
		if l := c.Len(); l > n {
			n = l
		}
	}
	return n
}

// i64Slice is a closure-free slice descriptor for the specialized int64
// kernel below.
type i64Slice struct {
	data     []int64
	base     uint64
	srcShift uint
	mask     uint64
	outShift uint
}

// packWordI64 is the specialized kernel for the common case where every
// input of word w is an int64 column: no accessor closures, direct slice
// loads. Reports whether it handled the word.
func (p *Plan) packWordI64(w int, cols []*vec.Vector, rows []int32, out []uint64, full bool) bool {
	var ks [MaxSlicesPerWord]i64Slice
	n := 0
	for _, s := range p.Slices {
		if s.Word != w {
			continue
		}
		if cols[s.Col].Typ != vec.I64 {
			return false
		}
		ks[n] = i64Slice{
			data:     cols[s.Col].I64,
			base:     uint64(p.Cols[s.Col].Dom.Min),
			srcShift: uint(s.SrcShift),
			mask:     s.Mask(),
			outShift: uint(s.OutShift),
		}
		n++
	}
	sl := ks[:n]
	if full {
		phys := physLen(cols)
		for i := 0; i < phys; i++ {
			var word uint64
			for _, k := range sl {
				word |= ((uint64(k.data[i]) - k.base) >> k.srcShift & k.mask) << k.outShift
			}
			out[i] = word
		}
		return true
	}
	for _, r := range rows {
		i := int(r)
		var word uint64
		for _, k := range sl {
			word |= ((uint64(k.data[i]) - k.base) >> k.srcShift & k.mask) << k.outShift
		}
		out[i] = word
	}
	return true
}
