package pack

import (
	mbits "math/bits"

	"ocht/internal/vec"
)

// SWAR (SIMD-within-a-register) kernels over bit-packed words.
//
// A frame-of-reference packed vector stores per = 64/bits lanes per
// 64-bit word, lane j at word j/per, shift (j%per)*bits (the layout of
// vec.EncPacked and of the key words Plan.PackWord produces). Go has no
// SIMD intrinsics, but a 64-bit integer IS a vector register for lanes
// this narrow: one subtraction compares up to 32 packed keys at once
// (Upscaledb's integer-key lesson, PAPERS.md). The kernels here evaluate
// comparison verdicts and batch hashes word-parallel and are pinned
// byte-identical to their scalar references by the property tests in
// swar_test.go.
//
// The comparison trick is the classic guard-bit subtract. Active lanes
// are split into even and odd groups so every active k-bit lane has (at
// least) k zero bits above it; ORing a guard bit G at position (l+1)*k
// and subtracting the broadcast constant C makes each lane's guard bit a
// GE verdict:
//
//	field = a + 2^k          (guard ORed in; a, c <= mask < 2^k)
//	field - c ∈ [2^k - mask, 2^k + mask]   — never borrows out, so
//	guard(d) = 1  ⟺  a >= c                 lanes stay independent
//
// Equality uses the same subtract on z = a^c against the constant 1:
// guard set ⟺ z >= 1 ⟺ a != c. GT is GE against c+1; LT/LE/NE are
// complements. A lane whose guard bit would be bit 64 (the word's top
// lane when per*bits == 64) is shifted down to lane 0 and compared there.

// CmpOp is a SWAR comparison operator.
type CmpOp uint8

// Comparison operators, in the order exec's expression compiler uses.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// swarCmp is one comparison canonicalized to a single guard-bit subtract
// per even/odd lane group, plus an optional complement, built once per
// call. Group g's lanes are masked out of the word, XORed with xr[g] (the
// broadcast constant for EQ/NE, 0 otherwise), ORed with the guard bits
// and reduced by sub[g] (broadcast ones for EQ/NE, the GE constant
// otherwise).
type swarCmp struct {
	mask, guard, xr, sub [2]uint64
	inv                  uint64 // all ones when the verdict is complemented
	bits                 uint
	top                  uint // the guard-less top lane's shift, or 0
}

// init canonicalizes op against c (GE(c): EQ/NE -> nonzero test, GT ->
// GE(c+1), LT/LE -> inverted). constant reports a comparison whose
// verdict is the same for every lane (GT or LE against the top of the
// domain); v is that verdict.
func (s *swarCmp) init(bits int, c uint64, op CmpOp) (constant, v bool) {
	mask := uint64(1)<<uint(bits) - 1
	var cc uint64
	eqMode := false
	switch op {
	case CmpEQ:
		eqMode, s.inv = true, ^uint64(0)
	case CmpNE:
		eqMode = true
	case CmpGE:
		cc = c
	case CmpLT:
		cc, s.inv = c, ^uint64(0)
	case CmpGT:
		if c == mask { // nothing exceeds the top of the domain
			return true, false
		}
		cc = c + 1
	case CmpLE:
		if c == mask {
			return true, true
		}
		cc, s.inv = c+1, ^uint64(0)
	}
	// The top lane's guard bit would be bit 64 when per*bits == 64; that
	// lane is left out of the groups and compared shifted down to lane 0.
	per := 64 / bits
	s.bits = uint(bits)
	lanes := per
	if per*bits == 64 {
		lanes--
		s.top = uint(lanes * bits)
	}
	for l := 0; l < lanes; l++ {
		g := l & 1
		sh := uint(l * bits)
		s.mask[g] |= mask << sh
		s.guard[g] |= 1 << (sh + uint(bits))
		if eqMode {
			s.xr[g] |= c << sh
			s.sub[g] |= 1 << sh
		} else {
			s.sub[g] |= cc << sh
		}
	}
	return false, false
}

// fill writes to verd[j] the verdicts for every lane of words[j]: lane
// l's verdict at bit l*bits, the other bits 0. The guard-less top lane of
// a gapless word is compared shifted down to lane 0.
//
//ocht:hot
func (s *swarCmp) fill(words, verd []uint64) {
	m0, m1, g0, g1 := s.mask[0], s.mask[1], s.guard[0], s.guard[1]
	x0, x1, s0, s1 := s.xr[0], s.xr[1], s.sub[0], s.sub[1]
	inv, sh, top := s.inv, s.bits&63, s.top&63
	for j, w := range words {
		v := ((w&m0^x0|g0)-s0)&g0 | ((w&m1^x1|g1)-s1)&g1
		v = (v ^ inv) & (g0 | g1) >> sh
		if top != 0 {
			v |= ((w>>top&m0 ^ x0 | g0) - s0 ^ inv) >> sh & 1 << top
		}
		verd[j] = v
	}
}

// SwarCmpConst writes out[i] = cmp(lane(off+i), c) for i in [0, n) over
// the packed little-endian-lane layout described above. c is in the pack
// domain and must satisfy c <= 2^bits - 1; out-of-domain constants
// collapse to constant verdicts and belong to the caller. bits must be in
// [1, 64]. The kernel is word-parallel for bits <= 32 and falls back to
// the scalar reference for wider lanes and partial head/tail words.
//
//ocht:hot
func SwarCmpConst(words []uint64, bits, off, n int, c uint64, op CmpOp, out []bool) {
	if n <= 0 {
		return
	}
	per := 64 / bits
	if bits > 32 || per < 2 || n < 2*per {
		swarCmpScalar(words, bits, off, 0, n, c, op, out)
		return
	}
	var s swarCmp
	if constant, v := s.init(bits, c, op); constant {
		for i := 0; i < n; i++ {
			out[i] = v
		}
		return
	}
	// Head: lanes before the first word boundary.
	i := 0
	if r := off % per; r != 0 {
		i = min(per-r, n)
		swarCmpScalar(words, bits, off, 0, i, c, op, out)
	}
	// Middle: full words, two guard-bit subtracts each, a chunk of words
	// at a time.
	var verd [64]uint64
	for wi := (off + i) / per; i+per <= n; {
		nw := min((n-i)/per, len(verd))
		s.fill(words[wi:wi+nw], verd[:nw])
		for _, v := range verd[:nw] {
			for l := i; l < i+per; l++ {
				out[l] = v&1 == 1
				v >>= s.bits & 63
			}
			i += per
		}
		wi += nw
	}
	// Tail: the final partial word.
	if i < n {
		swarCmpScalar(words, bits, off, i, n, c, op, out)
	}
}

// SwarSelConst is SwarCmpConst writing a selection instead of verdicts:
// the positions i in [0, n) whose lane off+i satisfies cmp(lane, c) go
// to out in ascending order, and the count is returned. out must hold n
// entries. The same domain rules and fallbacks apply.
//
//ocht:hot
func SwarSelConst(words []uint64, bits, off, n int, c uint64, op CmpOp, out []int32) int {
	if n <= 0 {
		return 0
	}
	per := 64 / bits
	if bits > 32 || per < 2 || n < 2*per {
		return swarSelScalar(words, bits, off, 0, n, c, op, out, 0)
	}
	var s swarCmp
	if constant, v := s.init(bits, c, op); constant {
		if !v {
			return 0
		}
		for i := 0; i < n; i++ {
			out[i] = int32(i)
		}
		return n
	}
	i, k := 0, 0
	if r := off % per; r != 0 {
		i = min(per-r, n)
		k = swarSelScalar(words, bits, off, 0, i, c, op, out, 0)
	}
	// Verdicts first, a chunk of words at a time, then the compaction:
	// two short loops keep their state in registers.
	var verd [64]uint64
	var laneOf [64]uint8
	for b := range laneOf {
		laneOf[b] = uint8(b / bits)
	}
	for wi := (off + i) / per; i+per <= n; {
		nw := min((n-i)/per, len(verd))
		s.fill(words[wi:wi+nw], verd[:nw])
		k = swarEmit(verd[:nw], per, &laneOf, int32(i), out, k)
		i, wi = i+nw*per, wi+nw
	}
	if i < n {
		k = swarSelScalar(words, bits, off, i, n, c, op, out, k)
	}
	return k
}

// swarEmit writes the positions of the holding lanes of consecutive
// verdict words (lane l's verdict at bit l*bits), the first lane at
// position base, to out[k:] and returns the new count. It visits only
// the set verdict bits; laneOf maps a bit position to its lane.
//
//ocht:hot
func swarEmit(verd []uint64, per int, laneOf *[64]uint8, base int32, out []int32, k int) int {
	for _, v := range verd {
		for ; v != 0; v &= v - 1 {
			out[k] = base + int32(laneOf[mbits.TrailingZeros64(v)])
			k++
		}
		base += int32(per)
	}
	return k
}

// swarCmpScalar is the scalar reference: it evaluates lanes [lo, hi) of
// the same comparison one at a time. The property tests pin SwarCmpConst
// against it; the fast path uses it for heads, tails and narrow batches.
//
//ocht:hot
func swarCmpScalar(words []uint64, bits, off, lo, hi int, c uint64, op CmpOp, out []bool) {
	for i := lo; i < hi; i++ {
		out[i] = swarCmpOne(vec.Lane(words, bits, off+i), c, op)
	}
}

// swarSelScalar appends to out[k:] the positions in [lo, hi) whose lane
// satisfies the comparison and returns the new count.
//
//ocht:hot
func swarSelScalar(words []uint64, bits, off, lo, hi int, c uint64, op CmpOp, out []int32, k int) int {
	for i := lo; i < hi; i++ {
		if swarCmpOne(vec.Lane(words, bits, off+i), c, op) {
			out[k] = int32(i)
			k++
		}
	}
	return k
}

func swarCmpOne(a, c uint64, op CmpOp) bool {
	switch op {
	case CmpEQ:
		return a == c
	case CmpNE:
		return a != c
	case CmpLT:
		return a < c
	case CmpLE:
		return a <= c
	case CmpGT:
		return a > c
	case CmpGE:
		return a >= c
	}
	return false
}

// Mix64Batch writes out[i] = Mix64(w[i]) for i in [0, n): the per-key
// splitmix64 finalizer unrolled into four independent chains so the three
// multiply/shift dependency chains of neighboring keys overlap in the
// pipeline instead of serializing behind one another. Bit-identical to
// calling Mix64 per key.
//
//ocht:hot
func Mix64Batch(w, out []uint64, n int) {
	i := 0
	for ; i+4 <= n; i += 4 {
		x0, x1, x2, x3 := w[i], w[i+1], w[i+2], w[i+3]
		x0 ^= x0 >> 30
		x1 ^= x1 >> 30
		x2 ^= x2 >> 30
		x3 ^= x3 >> 30
		x0 *= 0xbf58476d1ce4e5b9
		x1 *= 0xbf58476d1ce4e5b9
		x2 *= 0xbf58476d1ce4e5b9
		x3 *= 0xbf58476d1ce4e5b9
		x0 ^= x0 >> 27
		x1 ^= x1 >> 27
		x2 ^= x2 >> 27
		x3 ^= x3 >> 27
		x0 *= 0x94d049bb133111eb
		x1 *= 0x94d049bb133111eb
		x2 *= 0x94d049bb133111eb
		x3 *= 0x94d049bb133111eb
		x0 ^= x0 >> 31
		x1 ^= x1 >> 31
		x2 ^= x2 >> 31
		x3 ^= x3 >> 31
		out[i], out[i+1], out[i+2], out[i+3] = x0, x1, x2, x3
	}
	for ; i < n; i++ {
		out[i] = Mix64(w[i])
	}
}

// Mix64BatchFold writes out[i] = Mix64(out[i] ^ Mix64(w[i])), the
// multi-word hash-combining step of HashWords, with the same four-chain
// unroll as Mix64Batch.
//
//ocht:hot
func Mix64BatchFold(w, out []uint64, n int) {
	i := 0
	for ; i+4 <= n; i += 4 {
		x0, x1, x2, x3 := w[i], w[i+1], w[i+2], w[i+3]
		x0 ^= x0 >> 30
		x1 ^= x1 >> 30
		x2 ^= x2 >> 30
		x3 ^= x3 >> 30
		x0 *= 0xbf58476d1ce4e5b9
		x1 *= 0xbf58476d1ce4e5b9
		x2 *= 0xbf58476d1ce4e5b9
		x3 *= 0xbf58476d1ce4e5b9
		x0 ^= x0 >> 27
		x1 ^= x1 >> 27
		x2 ^= x2 >> 27
		x3 ^= x3 >> 27
		x0 *= 0x94d049bb133111eb
		x1 *= 0x94d049bb133111eb
		x2 *= 0x94d049bb133111eb
		x3 *= 0x94d049bb133111eb
		x0 ^= x0 >> 31
		x1 ^= x1 >> 31
		x2 ^= x2 >> 31
		x3 ^= x3 >> 31
		x0 ^= out[i]
		x1 ^= out[i+1]
		x2 ^= out[i+2]
		x3 ^= out[i+3]
		x0 ^= x0 >> 30
		x1 ^= x1 >> 30
		x2 ^= x2 >> 30
		x3 ^= x3 >> 30
		x0 *= 0xbf58476d1ce4e5b9
		x1 *= 0xbf58476d1ce4e5b9
		x2 *= 0xbf58476d1ce4e5b9
		x3 *= 0xbf58476d1ce4e5b9
		x0 ^= x0 >> 27
		x1 ^= x1 >> 27
		x2 ^= x2 >> 27
		x3 ^= x3 >> 27
		x0 *= 0x94d049bb133111eb
		x1 *= 0x94d049bb133111eb
		x2 *= 0x94d049bb133111eb
		x3 *= 0x94d049bb133111eb
		x0 ^= x0 >> 31
		x1 ^= x1 >> 31
		x2 ^= x2 >> 31
		x3 ^= x3 >> 31
		out[i], out[i+1], out[i+2], out[i+3] = x0, x1, x2, x3
	}
	for ; i < n; i++ {
		out[i] = Mix64(out[i] ^ Mix64(w[i]))
	}
}

// DenseRows reports whether rows is exactly the identity selection
// 0..len(rows)-1, the shape unfiltered batches arrive in. Selection
// vectors are strictly ascending (the selvec invariant), so checking the
// endpoints suffices.
func DenseRows(rows []int32) bool {
	n := len(rows)
	return n > 0 && rows[0] == 0 && int(rows[n-1]) == n-1
}
