package strs

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ocht/internal/pack"
	"ocht/internal/ussr"
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
		heap = append(heap, refOf{heapPut(st, w), w})
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

// heapPut places s on st's own heap, bypassing the USSR.
func heapPut(st *Store, s string) vec.StrRef {
	return put(&st.heap, s, pack.HashBytes(s))
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
	ha := heapPut(st, sa)
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
	rh := heapPut(st, target)
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

// TestHashIsStoredForEveryKind pins Hash(Intern(s)) == pack.HashBytes(s)
// for each way a string can end up stored — resident, rejected by length,
// rejected because the region is full, the empty string — and that Hash
// never recomputes: the heap returns the hash Intern stored.
func TestHashIsStoredForEveryKind(t *testing.T) {
	st := NewStore(true)
	check := func(kind, s string, wantResident bool) vec.StrRef {
		t.Helper()
		r := st.Intern(s)
		if r.InUSSR() != wantResident {
			t.Fatalf("%s: resident=%v, want %v", kind, r.InUSSR(), wantResident)
		}
		if got := st.Hash(r); got != pack.HashBytes(s) {
			t.Errorf("%s: Hash = %#x, want %#x", kind, got, pack.HashBytes(s))
		}
		if st.Get(r) != s {
			t.Errorf("%s: round trip", kind)
		}
		return r
	}
	check("resident", "resident", true)
	check("empty", "", true)
	check("rejected by length", strings.Repeat("L", 100_000), false)

	// Fill the region with two-slot strings until no slot pair is free.
	for i := 0; st.U.Stats().SizeBytes < (ussr.DataSlots-2)*8; i++ {
		if i > 1_000_000 {
			t.Fatal("region never filled")
		}
		st.Intern(fmt.Sprintf("%08d", i))
	}
	rejected := st.U.Stats().Rejected
	full := check("rejected, region full", "z", false)
	if st.U.Stats().Rejected != rejected+1 {
		t.Error("a full region must count the rejection")
	}
	vanilla := NewStore(false)
	if r := vanilla.Intern(""); vanilla.Hash(r) != pack.HashBytes("") {
		t.Error("empty heap string hash")
	}
	if st.Hash(NullRef) != nullHash || st.Hash(NullRef) == pack.HashBytes("") {
		t.Error("NULL hashes to its own fixed value")
	}

	// Hash is a load: overwrite the stored word and Hash returns it.
	c, off := st.heap.at(full)
	binary.LittleEndian.PutUint64(c[off:], 42)
	if st.Hash(full) != 42 {
		t.Error("Hash must read the stored word, not rehash the bytes")
	}
}

// TestEqualComparesHashesFirst: two heap strings with the same bytes but
// different stored hashes compare unequal, so Equal decided on the hash
// word without reading the bytes.
func TestEqualComparesHashesFirst(t *testing.T) {
	st := NewStore(false)
	a := put(&st.heap, "same", pack.HashBytes("same"))
	b := put(&st.heap, "same", pack.HashBytes("same")^1)
	c := put(&st.heap, "same", pack.HashBytes("same"))
	if st.Equal(a, b) {
		t.Error("differing stored hashes must decide inequality")
	}
	if !st.Equal(a, c) {
		t.Error("equal hashes and bytes are equal")
	}
}

// TestShardedHeaps covers parallel execution's shard-tagged references:
// worker stores intern into private heaps behind a frozen USSR, and any
// store holding the shard table hashes and compares any worker's
// reference — hashes come from the owning heap's stored word.
func TestShardedHeaps(t *testing.T) {
	parent := NewStore(true)
	parent.Intern("warm")
	parent.U.Freeze()
	workers := parent.Shard(2)
	long := strings.Repeat("w", 20_000) // rejected by length: heap-backed
	r0 := workers[0].Intern(long)
	r1 := workers[1].Intern(long)
	other := workers[1].Intern(long + "!")
	if r0.InUSSR() || r1.InUSSR() || r0 == r1 {
		t.Fatalf("worker refs %#x %#x must be distinct heap refs", r0, r1)
	}
	if r := workers[0].Intern("warm"); !r.InUSSR() {
		t.Error("a frozen region still resolves resident strings")
	}
	for _, st := range []*Store{parent, workers[0], workers[1]} {
		if st.Hash(r0) != pack.HashBytes(long) || st.Hash(r1) != pack.HashBytes(long) {
			t.Error("shard-tagged hash")
		}
		if !st.Equal(r0, r1) {
			t.Error("the same string on two worker heaps must compare equal")
		}
		if st.Equal(r0, other) {
			t.Error("different strings on two worker heaps must differ")
		}
		if st.Get(r1) != long {
			t.Error("shard-tagged round trip")
		}
	}
}

// TestMemoryBytesSumsShards: after Shard, the parent's footprint includes
// every worker heap.
func TestMemoryBytesSumsShards(t *testing.T) {
	parent := NewStore(false)
	parent.Intern("parent")
	before := parent.MemoryBytes()
	workers := parent.Shard(2)
	workers[0].Intern(strings.Repeat("a", 1000))
	workers[1].Intern(strings.Repeat("b", 2000))
	want := before + 2*4 + 3000 + 2*heapHeader
	if got := parent.MemoryBytes(); got != want {
		t.Errorf("parent MemoryBytes = %d, want %d (own heap plus both worker heaps)", got, want)
	}
}

// TestHeapChunks places more than a chunk's worth of strings plus one
// longer than a chunk, and checks every reference still resolves to its
// bytes and hash — across chunk boundaries and after later puts — and
// that MemoryBytes counts bytes in use, not chunk capacity.
func TestHeapChunks(t *testing.T) {
	st := NewStore(false)
	var refs []refOf
	used := 4
	for i := 0; used < 3*chunkSize; i++ {
		s := fmt.Sprintf("string-%07d-%s", i, strings.Repeat("x", i%200))
		if i == 1000 {
			s = strings.Repeat("L", chunkSize+5)
		}
		refs = append(refs, refOf{st.Intern(s), s})
		used += heapHeader + len(s)
	}
	if len(st.heap.chunks) < 4 {
		t.Fatalf("%d chunks, want the strings to span at least four", len(st.heap.chunks))
	}
	for _, c := range st.heap.chunks[1:] {
		if len(c) > chunkSize && len(c) != heapHeader+chunkSize+5 {
			t.Fatalf("chunk of %d bytes holds more than one chunk's worth of small strings", len(c))
		}
	}
	for _, r := range refs {
		if st.Get(r.r) != r.s || st.Hash(r.r) != pack.HashBytes(r.s) {
			t.Fatalf("reference %#x no longer resolves to %.20q", r.r, r.s)
		}
	}
	if st.MemoryBytes() != used {
		t.Errorf("MemoryBytes = %d, want %d", st.MemoryBytes(), used)
	}
}

// BenchmarkHash times Store.Hash per backing: a USSR-resident string and a
// heap string (rejected by length) both answer with one stored-word load,
// so the heap case no longer grows with the string's length.
func BenchmarkHash(b *testing.B) {
	st := NewStore(true)
	refs := map[string]vec.StrRef{
		"resident": st.Intern("a resident string of forty bytes or so.."),
		"heap-40":  heapPut(st, "a heap string of forty bytes or so......"),
		"heap-10k": st.Intern(strings.Repeat("h", 10_000)),
	}
	for name, r := range refs {
		b.Run(name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= st.Hash(r)
			}
			hashSink = sink
		})
	}
}

var hashSink uint64
