package pack

import (
	"math/rand"
	"testing"
)

// laneAt extracts lane j of the packed layout the SWAR kernels operate on.
func laneAt(words []uint64, bits, j int) uint64 {
	if bits == 64 {
		return words[j]
	}
	per := 64 / bits
	mask := uint64(1)<<uint(bits) - 1
	return words[j/per] >> (uint(j%per) * uint(bits)) & mask
}

func cmpModel(a, c uint64, op CmpOp) bool {
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
	panic("bad op")
}

var allOps = []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}

// TestSwarCmpConstProperty pins SwarCmpConst against the lane-at-a-time
// model over random widths, offsets, lengths and constants — including
// the domain boundaries c = 0 and c = mask, where GT and LE collapse to
// constant verdicts.
func TestSwarCmpConstProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 4000; iter++ {
		bits := 1 + rng.Intn(64)
		per := 64 / bits
		if bits == 64 {
			per = 1
		}
		maxLanes := 6*per + rng.Intn(3*per+1)
		words := make([]uint64, (maxLanes+per-1)/per+1)
		for i := range words {
			words[i] = rng.Uint64()
		}
		mask := uint64(1)<<uint(bits) - 1
		if bits == 64 {
			mask = ^uint64(0)
		}
		off := rng.Intn(2 * per)
		n := 1 + rng.Intn(maxLanes)
		if off+n > len(words)*per {
			n = len(words)*per - off
		}
		var c uint64
		switch rng.Intn(4) {
		case 0:
			c = 0
		case 1:
			c = mask
		default:
			c = rng.Uint64() & mask
		}
		op := allOps[rng.Intn(len(allOps))]

		checkSwarKernels(t, words, bits, off, n, c, op)
	}
}

// checkSwarKernels pins SwarCmpConst and SwarSelConst against the
// lane-at-a-time model for one shape.
func checkSwarKernels(t *testing.T, words []uint64, bits, off, n int, c uint64, op CmpOp) {
	t.Helper()
	out := make([]bool, n)
	SwarCmpConst(words, bits, off, n, c, op, out)
	var wantSel []int32
	for i := 0; i < n; i++ {
		want := cmpModel(laneAt(words, bits, off+i), c, op)
		if out[i] != want {
			t.Fatalf("bits=%d off=%d n=%d c=%#x op=%d lane %d: got %v want %v",
				bits, off, n, c, op, i, out[i], want)
		}
		if want {
			wantSel = append(wantSel, int32(i))
		}
	}
	sel := make([]int32, n)
	k := SwarSelConst(words, bits, off, n, c, op, sel)
	if k != len(wantSel) {
		t.Fatalf("bits=%d off=%d n=%d c=%#x op=%d: SwarSelConst selected %d, want %d",
			bits, off, n, c, op, k, len(wantSel))
	}
	for i, r := range wantSel {
		if sel[i] != r {
			t.Fatalf("bits=%d off=%d n=%d c=%#x op=%d: sel[%d] = %d, want %d",
				bits, off, n, c, op, i, sel[i], r)
		}
	}
}

// TestSwarCmpConstWordBoundaries hits the exact shapes the fast path
// special-cases: identity offsets, offsets straddling a word boundary,
// lengths ending one lane short of / exactly at / one lane past a word,
// and the guard-less top lane of gapless layouts (per*bits == 64).
func TestSwarCmpConstWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, bits := range []int{1, 2, 3, 4, 5, 7, 8, 11, 16, 21, 31, 32} {
		per := 64 / bits
		words := make([]uint64, 8)
		for i := range words {
			words[i] = rng.Uint64()
		}
		mask := uint64(1)<<uint(bits) - 1
		for _, off := range []int{0, 1, per - 1, per, per + 1, 3*per - 1} {
			for _, n := range []int{1, 2, per - 1, per, per + 1, 2 * per, 4*per - 1, 4*per + 1} {
				if n <= 0 || off+n > len(words)*per {
					continue
				}
				for _, c := range []uint64{0, 1, mask >> 1, mask} {
					for _, op := range allOps {
						checkSwarKernels(t, words, bits, off, n, c, op)
					}
				}
			}
		}
	}
}

// TestMix64BatchMatchesScalar pins the unrolled batch hashes bit-identical
// to the per-key Mix64 they replace, across every tail length of the
// four-chain unroll.
func TestMix64BatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 1021} {
		w := make([]uint64, n)
		for i := range w {
			w[i] = rng.Uint64()
		}
		out := make([]uint64, n)
		Mix64Batch(w, out, n)
		for i := 0; i < n; i++ {
			if want := Mix64(w[i]); out[i] != want {
				t.Fatalf("n=%d Mix64Batch[%d] = %#x, want %#x", n, i, out[i], want)
			}
		}

		seed := make([]uint64, n)
		for i := range seed {
			seed[i] = rng.Uint64()
		}
		fold := append([]uint64(nil), seed...)
		Mix64BatchFold(w, fold, n)
		for i := 0; i < n; i++ {
			if want := Mix64(seed[i] ^ Mix64(w[i])); fold[i] != want {
				t.Fatalf("n=%d Mix64BatchFold[%d] = %#x, want %#x", n, i, fold[i], want)
			}
		}
	}
}

// TestHashWordsDenseMatchesSparse pins the dense batch-hash fast path of
// HashWords against the per-row path on the same words.
func TestHashWordsDenseMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, nw := range []int{1, 2, 3} {
		n := 777
		words := make([][]uint64, nw)
		for w := range words {
			words[w] = make([]uint64, n)
			for i := range words[w] {
				words[w][i] = rng.Uint64()
			}
		}
		dense := make([]int32, n)
		for i := range dense {
			dense[i] = int32(i)
		}
		// Identity selection minus the first row: same rows, not dense.
		sparse := dense[1:]

		got := make([]uint64, n)
		HashWords(words, dense, got)
		want := make([]uint64, n)
		HashWords(words, sparse, want)
		for _, r := range sparse {
			if got[r] != want[r] {
				t.Fatalf("words=%d row %d: dense %#x, sparse %#x", nw, r, got[r], want[r])
			}
		}
	}
}

func TestDenseRows(t *testing.T) {
	cases := []struct {
		rows []int32
		want bool
	}{
		{nil, false},
		{[]int32{0}, true},
		{[]int32{1}, false},
		{[]int32{0, 1, 2, 3}, true},
		{[]int32{0, 1, 2, 4}, false},
		{[]int32{1, 2, 3}, false},
	}
	for _, c := range cases {
		if got := DenseRows(c.rows); got != c.want {
			t.Fatalf("DenseRows(%v) = %v, want %v", c.rows, got, c.want)
		}
	}
}
