package ussr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ocht/internal/pack"
	"ocht/internal/vec"
)

func TestInsertLookupRoundTrip(t *testing.T) {
	u := New()
	words := []string{"", "a", "Hello", "Test", "Hello World", strings.Repeat("x", 100)}
	refs := make([]vec.StrRef, len(words))
	for i, w := range words {
		r, ok := u.Insert(w)
		if !ok {
			t.Fatalf("insert %q failed", w)
		}
		refs[i] = r
		if !r.InUSSR() {
			t.Fatalf("ref for %q not tagged as USSR", w)
		}
	}
	for i, w := range words {
		if got := u.Get(refs[i]); got != w {
			t.Errorf("Get = %q, want %q", got, w)
		}
		if u.Len(refs[i]) != len(w) {
			t.Errorf("Len(%q) = %d", w, u.Len(refs[i]))
		}
		if r, ok := u.Lookup(w); !ok || r != refs[i] {
			t.Errorf("Lookup(%q) = %v,%v", w, r, ok)
		}
	}
}

func TestUniqueness(t *testing.T) {
	// Inserting the same string twice must return the same reference:
	// this is what makes pointer equality valid (Section IV-E).
	u := New()
	r1, _ := u.Insert("duplicated")
	r2, ok := u.Insert("duplicated")
	if !ok || r1 != r2 {
		t.Fatalf("duplicate insert: %v vs %v", r1, r2)
	}
	if u.Stats().Count != 1 {
		t.Errorf("count = %d, want 1", u.Stats().Count)
	}
	if u.Stats().Candidates != 2 {
		t.Errorf("candidates = %d, want 2", u.Stats().Candidates)
	}
}

func TestPrecomputedHash(t *testing.T) {
	u := New()
	s := "precomputed hash lives in the slot before the string"
	r, _ := u.Insert(s)
	if u.Hash(r) != pack.HashBytes(s) {
		t.Error("stored hash must equal the string hash")
	}
}

func TestSlotNumberRoundTrip(t *testing.T) {
	// Section IV-F: a USSR string is translated to a 16-bit slot number
	// and back (base + slot*8).
	u := New()
	r, _ := u.Insert("slot-coded")
	slot := r.USSRSlot()
	if slot == 0 {
		t.Fatal("slot 0 is reserved for exceptions")
	}
	if RefForSlot(slot) != r {
		t.Error("RefForSlot must invert USSRSlot")
	}
}

func TestLongStringRejected(t *testing.T) {
	u := New()
	// Fresh region: free = 65535, limit = free/64 = 1023 slots (~8 kB).
	big := strings.Repeat("y", 9000) // needs 1126 slots > 1023
	if _, ok := u.Insert(big); ok {
		t.Fatal("9 kB string must be rejected by the sampling policy")
	}
	st := u.Stats()
	if st.Rejected != 1 || st.Count != 0 {
		t.Errorf("stats after rejection: %+v", st)
	}
	// An 8 kB-ish string below the limit is accepted.
	if _, ok := u.Insert(strings.Repeat("z", 8000)); !ok {
		t.Error("8 kB string should fit under the initial limit")
	}
}

func TestFillUpAndReject(t *testing.T) {
	u := New()
	inserted, rejected := 0, 0
	for i := 0; ; i++ {
		s := fmt.Sprintf("string-%08d-%s", i, strings.Repeat("p", 40))
		if _, ok := u.Insert(s); ok {
			inserted++
		} else {
			rejected++
			if rejected > 100 {
				break
			}
		}
		if i > 100_000 {
			t.Fatal("the region never filled up")
		}
	}
	st := u.Stats()
	if st.SizeBytes > DataSlots*8 {
		t.Errorf("size %d exceeds the 512 kB region", st.SizeBytes)
	}
	if inserted == 0 || st.Count != inserted {
		t.Errorf("inserted=%d stats=%+v", inserted, st)
	}
	// All previously inserted strings must still be retrievable.
	for i := 0; i < 10; i++ {
		s := fmt.Sprintf("string-%08d-%s", i, strings.Repeat("p", 40))
		if _, ok := u.Lookup(s); !ok {
			t.Errorf("string %d lost after fill-up", i)
		}
	}
}

func TestCapacityBound(t *testing.T) {
	// Each string takes >= 2 slots, so at most 32 k strings fit.
	u := New()
	n := 0
	for i := 0; i < 50_000; i++ {
		if _, ok := u.Insert(fmt.Sprintf("%07d", i)); ok {
			n++
		}
	}
	if n > DataSlots/2 {
		t.Errorf("%d strings exceed the 32 k structural bound", n)
	}
	if n < 20_000 {
		t.Errorf("only %d short strings fit; expected tens of thousands", n)
	}
}

func TestRejectionRatio(t *testing.T) {
	s := Stats{Candidates: 200, Rejected: 50}
	if s.RejectionRatio() != 25 {
		t.Errorf("ratio = %f", s.RejectionRatio())
	}
	if (Stats{}).RejectionRatio() != 0 {
		t.Error("empty ratio")
	}
}

func TestReset(t *testing.T) {
	u := New()
	u.Insert("before reset")
	u.Reset()
	if _, ok := u.Lookup("before reset"); ok {
		t.Error("lookup must miss after Reset")
	}
	st := u.Stats()
	if st.Count != 0 || st.SizeBytes != 0 || st.Candidates != 0 {
		t.Errorf("stats after reset: %+v", st)
	}
	if _, ok := u.Insert("after reset"); !ok {
		t.Error("insert after reset")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := New()
	oracle := map[string]vec.StrRef{}
	for i := 0; i < 20_000; i++ {
		s := fmt.Sprintf("k%d", rng.Intn(5000))
		r, ok := u.Insert(s)
		if !ok {
			continue
		}
		if prev, seen := oracle[s]; seen {
			if prev != r {
				t.Fatalf("string %q changed reference", s)
			}
		} else {
			oracle[s] = r
		}
		if u.Get(r) != s {
			t.Fatalf("Get(%q) mismatch", s)
		}
	}
	if len(oracle) == 0 {
		t.Fatal("nothing inserted")
	}
}
