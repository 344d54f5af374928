package strs

import (
	"fmt"
	"strings"
	"testing"

	"ocht/internal/pack"
	"ocht/internal/vec"
)

func TestInternPrefersUSSR(t *testing.T) {
	st := NewStore(true)
	r := st.Intern("frequent")
	if !r.InUSSR() {
		t.Fatal("small string must land in the USSR")
	}
	if st.Get(r) != "frequent" {
		t.Error("round trip")
	}
	// A huge string falls back to the heap.
	big := strings.Repeat("B", 100_000)
	rb := st.Intern(big)
	if rb.InUSSR() {
		t.Fatal("100 kB string cannot be USSR-resident")
	}
	if st.Get(rb) != big {
		t.Error("heap round trip")
	}
}

func TestVanillaStoreNeverUsesUSSR(t *testing.T) {
	st := NewStore(false)
	r := st.Intern("anything")
	if r.InUSSR() {
		t.Fatal("vanilla store must heap-allocate")
	}
	r2 := st.Intern("anything")
	if r == r2 {
		t.Error("the heap performs no deduplication")
	}
	if !st.Equal(r, r2) {
		t.Error("equal content must compare equal across handles")
	}
}

// TestHeapRoundTrip: a store without the USSR keeps every string on its
// heap, which hands out untagged references and never reuses 0 (the
// exception marker) or 1 (NullRef).
func TestHeapRoundTrip(t *testing.T) {
	st := NewStore(false)
	for _, w := range []string{"", "a", "hello", strings.Repeat("z", 10_000)} {
		r := st.Intern(w)
		if r.InUSSR() || r == 0 || r == NullRef {
			t.Fatalf("heap reference %#x for %q", r, w)
		}
		if st.Get(r) != w || st.Len(r) != len(w) || st.Hash(r) != pack.HashBytes(w) {
			t.Errorf("round trip of %q", w)
		}
	}
}

func TestEqualFastPath(t *testing.T) {
	st := NewStore(true)
	a := st.Intern("x")
	b := st.Intern("x")
	c := st.Intern("y")
	st.ResetCounters()
	if !st.Equal(a, b) || st.Equal(a, c) {
		t.Fatal("equality results wrong")
	}
	if st.EqualFast != 2 || st.EqualSlow != 0 {
		t.Errorf("expected 2 fast comparisons, got fast=%d slow=%d", st.EqualFast, st.EqualSlow)
	}
}

func TestHashFastPath(t *testing.T) {
	st := NewStore(true)
	a := st.Intern("hashed")
	h := st.Intern(strings.Repeat("H", 50_000)) // heap-backed
	st.ResetCounters()
	if st.Hash(a) != pack.HashBytes("hashed") {
		t.Error("USSR hash mismatch")
	}
	if st.Hash(h) != pack.HashBytes(strings.Repeat("H", 50_000)) {
		t.Error("heap hash mismatch")
	}
	if st.HashFast != 1 || st.HashSlow != 1 {
		t.Errorf("counters: fast=%d slow=%d", st.HashFast, st.HashSlow)
	}
}

// TestCompare checks Compare, CompareString and EqualString against
// strings.Compare over every pairing of backings (USSR-resident and heap),
// including the empty string, a proper prefix, an embedded NUL (the USSR
// zero-pads its slot words) and a string longer than one slot word.
func TestCompare(t *testing.T) {
	st := NewStore(true)
	words := []string{"", "a", "apple", "apple\x00", "apple pie and custard", "banana", "b\xffz"}
	var resident, heap []refOf
	for _, w := range words {
		r := st.Intern(w)
		if !r.InUSSR() {
			t.Fatalf("%q must be USSR-resident", w)
		}
		resident = append(resident, refOf{r, w})
		heap = append(heap, refOf{st.heap.put(w), w})
	}
	all := append(append([]refOf{}, resident...), heap...)
	for _, a := range all {
		for _, b := range all {
			want := strings.Compare(a.s, b.s)
			if got := st.Compare(a.r, b.r); got != want {
				t.Errorf("Compare(%q[ussr=%v], %q[ussr=%v]) = %d, want %d", a.s, a.r.InUSSR(), b.s, b.r.InUSSR(), got, want)
			}
			if got := st.CompareString(a.r, b.s); got != want {
				t.Errorf("CompareString(%q[ussr=%v], %q) = %d, want %d", a.s, a.r.InUSSR(), b.s, got, want)
			}
			if got := st.EqualString(a.r, b.s); got != (want == 0) {
				t.Errorf("EqualString(%q[ussr=%v], %q) = %v", a.s, a.r.InUSSR(), b.s, got)
			}
		}
	}
}

type refOf struct {
	r vec.StrRef
	s string
}

// TestCompareDoesNotAllocate pins the per-row cost of string </> filters,
// string MIN/MAX and the result sink's reject path: once the store's
// scratch has grown to the longest resident operand, no compare allocates.
func TestCompareDoesNotAllocate(t *testing.T) {
	st := NewStore(true)
	long := strings.Repeat("resident string of some length ", 8)
	sa, sb := long+"a", long+"b"
	ra, rb := st.Intern(sa), st.Intern(sb)
	if !ra.InUSSR() || !rb.InUSSR() {
		t.Fatal("operands must be USSR-resident")
	}
	ha := st.heap.put(sa)
	sink := 0
	for name, f := range map[string]func(){
		"resident/resident": func() { sink += st.Compare(ra, rb) },
		"resident/heap":     func() { sink += st.Compare(rb, ha) + st.Compare(ha, rb) },
		"ref/string":        func() { sink += st.CompareString(ra, sb) + st.CompareString(ha, sb) },
		"EqualString": func() {
			if st.EqualString(ra, sa) {
				sink++
			}
		},
	} {
		f() // grow the scratch
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per compare, want 0", name, n)
		}
	}
	_ = sink
}

func TestEqualString(t *testing.T) {
	st := NewStore(true)
	r := st.Intern("constant")
	if !st.EqualString(r, "constant") || st.EqualString(r, "other") {
		t.Error("EqualString")
	}
}

func TestMixedBackingEquality(t *testing.T) {
	st := NewStore(true)
	// Fill the USSR so later strings overflow to the heap.
	for i := 0; i < 40_000; i++ {
		st.Intern(fmt.Sprintf("filler-%06d", i))
	}
	target := "resident-target"
	ru := st.Intern(target) // may or may not be resident by now
	rh := st.heap.put(target)
	if !st.Equal(ru, rh) {
		t.Error("equal strings with mixed backing must compare equal")
	}
	if st.Hash(ru) != st.Hash(rh) {
		t.Error("hash must agree across backings")
	}
	if st.Len(ru) != len(target) || st.Len(rh) != len(target) {
		t.Error("Len across backings")
	}
}

func TestMemoryBytes(t *testing.T) {
	vanilla := NewStore(false)
	before := vanilla.MemoryBytes()
	vanilla.Intern(strings.Repeat("m", 1000))
	if vanilla.MemoryBytes() <= before {
		t.Error("heap growth must show in MemoryBytes")
	}
	withU := NewStore(true)
	if withU.MemoryBytes() < 768*1024 {
		t.Error("USSR-enabled store must account its fixed 768 kB")
	}
}
