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

// key is a slice type the pack kernels read and write: the integer
// types, widened by sign extension, and string references.
type key interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint64
}

// sliceKernel is one slice of an output word, resolved for a kernel
// call: out |= ((value - base) >> src & mask) << shift.
type sliceKernel struct {
	base  uint64 // domain minimum (as uint64, wrap-around subtract)
	src   uint
	mask  uint64
	shift uint
	first bool // the word's first slice assigns instead of ORing
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
// The word is built a slice (a column) at a time, each by a loop typed
// for its column.
//
//ocht:hot
func (p *Plan) PackWordMode(w int, cols []*vec.Vector, rows []int32, out []uint64, full bool) {
	n := -1
	if full {
		n = physLen(cols)
	}
	first := true
	for _, s := range p.Slices {
		if s.Word != w {
			continue
		}
		k := sliceKernel{
			base: uint64(p.Cols[s.Col].Dom.Min), src: uint(s.SrcShift),
			mask: s.Mask(), shift: uint(s.OutShift), first: first,
		}
		first = false
		switch v := cols[s.Col]; v.Typ {
		case vec.I8:
			packSlice(k, v.I8, rows, out, n)
		case vec.I16:
			packSlice(k, v.I16, rows, out, n)
		case vec.I32:
			packSlice(k, v.I32, rows, out, n)
		case vec.I64:
			packSlice(k, v.I64, rows, out, n)
		case vec.Str:
			packSlice(k, v.Str, rows, out, n)
		case vec.Bool:
			packSlice(k, boolInts(v.Bool, rows, n), rows, out, n)
		default:
			badType("pack: unsupported input type ", v.Typ)
		}
	}
	if first { // a word without slices packs to zero
		if n >= 0 {
			clear(out[:n])
			return
		}
		for _, r := range rows {
			out[r] = 0
		}
	}
}

// packSlice ORs (or, for the word's first slice, stores) one slice of
// column d into the output words: at every position below n when n >= 0,
// else at the active rows.
//
//ocht:hot
func packSlice[T key](k sliceKernel, d []T, rows []int32, out []uint64, n int) {
	base, src, mask, shift := k.base, k.src, k.mask, k.shift
	switch {
	case n >= 0 && k.first:
		for i, x := range d[:n] {
			out[i] = (uint64(int64(x)) - base) >> src & mask << shift
		}
	case n >= 0:
		for i, x := range d[:n] {
			out[i] |= (uint64(int64(x)) - base) >> src & mask << shift
		}
	case k.first:
		for _, r := range rows {
			out[r] = (uint64(int64(d[r])) - base) >> src & mask << shift
		}
	default:
		for _, r := range rows {
			out[r] |= (uint64(int64(d[r])) - base) >> src & mask << shift
		}
	}
}

// boolInts widens a Boolean key column to 0/1 at the positions a kernel
// reads (every position below n when n >= 0, else the active rows), into
// a fresh slice: no plan packs Booleans on a hot path.
func boolInts(b []bool, rows []int32, n int) []int8 {
	d := make([]int8, len(b))
	if n >= 0 {
		rows = nil
		for i, x := range b[:n] {
			if x {
				d[i] = 1
			}
		}
	}
	for _, r := range rows {
		if b[r] {
			d[r] = 1
		}
	}
	return d
}

// badType panics for an unsupported vector type, off the kernels' code
// path.
func badType(msg string, t vec.Type) {
	panic(msg + t.String())
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
		switch v := cols[ci]; v.Typ {
		case vec.I8:
			inDomain(v.I8, lo, hi, rows, match)
		case vec.I16:
			inDomain(v.I16, lo, hi, rows, match)
		case vec.I32:
			inDomain(v.I32, lo, hi, rows, match)
		case vec.I64:
			inDomain(v.I64, lo, hi, rows, match)
		case vec.Str:
			inDomain(v.Str, lo, hi, rows, match)
		case vec.Bool:
			inDomain(boolInts(v.Bool, rows, -1), lo, hi, rows, match)
		default:
			badType("pack: unsupported input type ", v.Typ)
		}
	}
}

// inDomain clears match at the rows whose value of d lies outside
// [lo, hi].
//
//ocht:hot
func inDomain[T key](d []T, lo, hi int64, rows []int32, match []bool) {
	for _, r := range rows {
		if v := int64(d[r]); v < lo || v > hi {
			match[r] = false
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
	recs = recs[off:]
	switch out.Typ {
	case vec.I8:
		unpackCol(p, c, recs, recIdx, stride, out.I8, rows)
	case vec.I16:
		unpackCol(p, c, recs, recIdx, stride, out.I16, rows)
	case vec.I32:
		unpackCol(p, c, recs, recIdx, stride, out.I32, rows)
	case vec.I64:
		unpackCol(p, c, recs, recIdx, stride, out.I64, rows)
	case vec.Str:
		unpackCol(p, c, recs, recIdx, stride, out.Str, rows)
	case vec.Bool:
		d := boolInts(out.Bool, nil, -1) // zeroed scratch
		unpackCol(p, c, recs, recIdx, stride, d, rows)
		for _, r := range rows {
			out.Bool[r] = d[r] != 0
		}
	default:
		badType("pack: unsupported output type ", out.Typ)
	}
}

// unpackCol stores the value of column c of record recIdx[i] at
// out[rows[i]]: the base plus the column's stitched slices (the base
// alone for a constant column, which has none).
//
//ocht:hot
func unpackCol[T key](p *Plan, c int, recs []byte, recIdx []int32, stride int, out []T, rows []int32) {
	base := uint64(p.Cols[c].Dom.Min)
	slices := p.byCol[c]
	wb := p.WordBits / 8
	for i, ri := range recIdx {
		rec := recs[int(ri)*stride:]
		v := base
		for _, si := range slices {
			s := &p.Slices[si]
			var word uint64
			if wb == 4 {
				word = uint64(binary.LittleEndian.Uint32(rec[s.Word*4:]))
			} else {
				word = binary.LittleEndian.Uint64(rec[s.Word*8:])
			}
			v += (word >> uint(s.OutShift) & s.Mask()) << uint(s.SrcShift)
		}
		out[rows[i]] = T(v)
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
