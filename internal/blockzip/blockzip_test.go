package blockzip

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// corpus builds n pseudo-sentences from a small vocabulary — the shape of
// TPC-H comment columns, where pair tables shine.
func corpus(n int, seed int64) []string {
	words := []string{
		"furiously", "carefully", "quickly", "express", "regular", "special",
		"pending", "ironic", "final", "bold", "deposits", "requests",
		"accounts", "packages", "instructions", "theodolites", "pinto",
		"beans", "foxes", "dependencies", "sleep", "nag", "haggle", "wake",
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		for w := 0; w < 4+rng.Intn(5); w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		out[i] = b.String()
	}
	return out
}

func buildOrDie(t *testing.T, strs []string) *Dict {
	t.Helper()
	d, err := Build(strs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRoundTripAllEntries(t *testing.T) {
	for _, tc := range [][]string{
		{""},
		{"", "a", "aa", "ab"},
		{"solo"},
		corpus(7, 1),     // partial bucket
		corpus(16, 2),    // exactly one bucket
		corpus(1000, 3),  // many buckets
		{"x", "x", "x"},  // duplicates allowed
		{"\x00\xff\x00"}, // binary-unsafe bytes
	} {
		d := buildOrDie(t, tc)
		if d.Len() != len(tc) {
			t.Fatalf("Len %d, want %d", d.Len(), len(tc))
		}
		var buf []byte
		for i, want := range tc {
			var got []byte
			got, _, buf = d.StrAt(i, buf)
			if string(got) != want {
				t.Fatalf("StrAt(%d) = %q, want %q", i, got, want)
			}
		}
		seen := 0
		d.ForEach(func(i int, s []byte) {
			if string(s) != tc[i] {
				t.Fatalf("ForEach(%d) = %q, want %q", i, s, tc[i])
			}
			seen++
		})
		if seen != len(tc) {
			t.Fatalf("ForEach visited %d of %d", seen, len(tc))
		}
		data, offs := d.AppendEntries([]byte("stale"), []int32{5})
		if len(offs) != len(tc)+1 {
			t.Fatalf("AppendEntries gave %d offsets for %d entries", len(offs), len(tc))
		}
		for i, want := range tc {
			if got := string(data[offs[i]:offs[i+1]]); got != want {
				t.Fatalf("AppendEntries entry %d = %q, want %q", i, got, want)
			}
		}
	}
}

// TestStrAtDecodesOnlyTheBucket is the random-access acceptance check: a
// point access must decompress only the requested entry's bucket chain,
// never the whole dictionary.
func TestStrAtDecodesOnlyTheBucket(t *testing.T) {
	strs := corpus(4096, 7)
	sorted, _ := SortWithPermutation(strs)
	d := buildOrDie(t, sorted)
	total := d.RawBytes()
	var buf []byte
	for _, i := range []int{0, 1, 15, 16, 100, 4095} {
		var dec int
		_, dec, buf = d.StrAt(i, buf)
		// The chain decodes at most a bucket's worth of strings; with
		// ~16-60 byte entries that is orders of magnitude below the
		// dictionary, but assert the hard structural bound too.
		chain := i%16 + 1
		if maxChain := chain * (d.MaxLen() + 1); dec > maxChain {
			t.Fatalf("StrAt(%d) decoded %d bytes, bucket chain bound is %d", i, dec, maxChain)
		}
		if int64(dec)*20 > total {
			t.Fatalf("StrAt(%d) decoded %d of %d total bytes — not random access", i, dec, total)
		}
	}
}

func TestCompressionRatioOnRedundantText(t *testing.T) {
	strs := corpus(20000, 11)
	sorted, _ := SortWithPermutation(strs)
	d := buildOrDie(t, sorted)
	raw := d.RawBytes()
	comp := int64(d.CompressedBytes())
	if comp*2 > raw {
		t.Fatalf("compressed %d bytes of %d raw — expected at least 2x on redundant text", comp, raw)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, strs := range [][]string{
		{"", "b", "c"},
		corpus(777, 5),
	} {
		sorted, _ := SortWithPermutation(strs)
		d := buildOrDie(t, sorted)
		blob := d.Marshal()
		d2, err := Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, d2.Marshal()) {
			t.Fatal("marshal round trip is not byte-identical")
		}
		var buf []byte
		for i, want := range sorted {
			var got []byte
			got, _, buf = d2.StrAt(i, buf)
			if string(got) != want {
				t.Fatalf("after round trip StrAt(%d) = %q, want %q", i, got, want)
			}
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	sorted, _ := SortWithPermutation(corpus(300, 9))
	d := buildOrDie(t, sorted)
	good := d.Marshal()
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil blob accepted")
	}
	for n := 0; n < len(good); n += 13 {
		if _, err := Unmarshal(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Every byte, three mutations: must never panic, and whatever parses
	// must decode every entry without panicking.
	for at := 0; at < len(good); at++ {
		for _, mut := range []byte{good[at] ^ 0x01, good[at] ^ 0x80, 0xff} {
			bad := append([]byte(nil), good...)
			bad[at] = mut
			d2, err := Unmarshal(bad)
			if err != nil {
				continue
			}
			d2.ForEach(func(int, []byte) {})
			var buf []byte
			_, _, buf = d2.StrAt(d2.Len()-1, buf)
			_ = buf
		}
	}
}

func TestBudgetError(t *testing.T) {
	big := []string{strings.Repeat("x", 100), strings.Repeat("y", 100)}
	if _, err := Build(big, 150); err == nil {
		t.Fatal("over-budget dictionary accepted")
	} else if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := Build(nil, 0); err == nil {
		t.Fatal("empty dictionary accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	strs, _ := SortWithPermutation(corpus(2000, 13))
	a := buildOrDie(t, strs).Marshal()
	b := buildOrDie(t, strs).Marshal()
	if !bytes.Equal(a, b) {
		t.Fatal("Build is not deterministic")
	}
}

func TestSortWithPermutation(t *testing.T) {
	strs := []string{"pear", "apple", "fig", "apple2"}
	sorted, remap := SortWithPermutation(strs)
	for old, s := range strs {
		if sorted[remap[old]] != s {
			t.Fatalf("remap broken: strs[%d]=%q landed at %d=%q", old, s, remap[old], sorted[remap[old]])
		}
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatalf("not sorted: %q > %q", sorted[i-1], sorted[i])
		}
	}
}

func TestPackedU32(t *testing.T) {
	for _, max := range []uint32{0, 1, 2, 7, 255, 1 << 20} {
		vals := make([]uint32, 1000)
		rng := rand.New(rand.NewSource(int64(max) + 1))
		for i := range vals {
			vals[i] = rng.Uint32() % (max + 1)
		}
		p := PackU32(vals, max)
		if p.N != len(vals) || len(p.Words) != WordsFor(p.N, p.Bits) {
			t.Fatalf("max %d: sizing mismatch", max)
		}
		for i, v := range vals {
			if got := p.At(i); got != v {
				t.Fatalf("max %d: At(%d) = %d, want %d", max, i, got, v)
			}
		}
	}
}

func BenchmarkStrAt(b *testing.B) {
	sorted, _ := SortWithPermutation(corpus(65536/4, 21))
	d, err := Build(sorted, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, buf = d.StrAt(i%d.Len(), buf)
	}
}

func ExampleDict_StrAt() {
	sorted, remap := SortWithPermutation([]string{"pending deposits", "pending requests", "bold accounts"})
	d, _ := Build(sorted, 0)
	s, _, _ := d.StrAt(int(remap[0]), nil)
	fmt.Println(string(s))
	// Output: pending deposits
}
