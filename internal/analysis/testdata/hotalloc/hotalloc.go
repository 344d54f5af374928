// Package fixture seeds hotalloc violations and their corrected forms.
//
//ocht:path ocht/internal/vec
package fixture

// sink is an interface-taking helper; passing a concrete value to it
// boxes the argument.
func sink(v interface{}) {}

// cleanup is a plain helper so defer statements don't also box arguments.
func cleanup() {}

type pair struct{ a, b int64 }

// OpBad is hot by the primitive naming convention and allocates every
// which way.
func OpBad(dst, src []int64, rows []int32) {
	tmp := make([]int64, 16) // want "make() inside hot kernel OpBad"
	_ = tmp
	f := func(x int64) int64 { return x + 1 } // want "closure allocated inside hot kernel OpBad"
	for i, r := range rows {
		dst[i] = f(src[r])
	}
	p := &pair{a: 1, b: 2} // want "heap allocation (&composite literal) inside hot kernel OpBad"
	_ = p
	xs := []int64{1, 2} // want "slice/map literal allocation inside hot kernel OpBad"
	_ = xs
	defer cleanup() // want "defer inside hot kernel OpBad"
}

// HashBad boxes and copies strings inside the loop.
func HashBad(dst []uint64, keys []string) {
	for i, k := range keys {
		b := []byte(k) // want "string<->[]byte conversion allocates inside hot kernel HashBad"
		_ = b
		sink(i)             // want "argument boxed into interface parameter inside hot kernel HashBad"
		v := interface{}(k) // want "interface conversion (boxing) inside hot kernel HashBad"
		_ = v
		dst[i] = uint64(len(k))
	}
}

// inDomainish is outside the naming convention but opts in.
//
//ocht:hot
func inDomainish(lo, hi, x int64) bool {
	bounds := []int64{lo, hi} // want "slice/map literal allocation inside hot kernel inDomainish"
	return x >= bounds[0] && x <= bounds[1]
}

// OpClean is a hot kernel written the right way: no allocations, scalar
// work only.
func OpClean(dst, src []int64, rows []int32) {
	for i, r := range rows {
		dst[i] = src[r] + 1
	}
}

// buildPlan is per-batch setup — not hot by name, not annotated — where
// allocating closures and slices is exactly where they belong.
func buildPlan(n int) (func(int64) int64, []int64) {
	scratch := make([]int64, n)
	add := func(x int64) int64 { return x + int64(n) }
	return add, scratch
}

// SwarBad is hot by the SWAR kernel naming convention.
func SwarBad(words []uint64, out []bool) {
	scratch := make([]uint64, 2) // want "make() inside hot kernel SwarBad"
	_ = scratch
	for i := range out {
		out[i] = words[i/8]&1 == 1
	}
}

// mixBatchBad is the unexported batch-hash spelling.
func mixBatchBad(w, out []uint64) {
	lanes := []uint64{0, 1} // want "slice/map literal allocation inside hot kernel mixBatchBad"
	for i := range w {
		out[i] = w[i] ^ lanes[i&1]
	}
}

// cmpPackedish follows the comparison-kernel convention and stays clean.
func cmpPackedish(words []uint64, c uint64, out []bool) {
	for i := range out {
		out[i] = words[i] >= c
	}
}

// opWordish converts to and passes values of a type parameter, which
// boxes nothing: generic code runs on the concrete value.
func opWordish[W uint32 | uint64](ws []uint64, out []W) {
	for i := range out {
		out[i] = maxWord(W(ws[i]), out[i])
	}
}

func maxWord[W uint32 | uint64](a, b W) W {
	if a > b {
		return a
	}
	return b
}
