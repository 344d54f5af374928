// Package ussr implements the Unique Strings Self-aligned Region
// (Section IV of the paper): a query-lifetime dictionary of frequent
// strings with a fixed 768 kB budget — a 512 kB data region of 64 k
// 8-byte slots plus a 256 kB linear hash table of 64 k 4-byte buckets.
//
// All strings inside the USSR are unique, so equality of resident strings
// is reference equality, and every resident string's hash is materialized
// in the slot immediately before its bytes, so hashing is a single load.
//
// Substitution note: the paper aligns the data region to a self-aligned
// address so that USSR residency is a pointer-mask test and the
// pre-computed hash is reachable as ((uint64*)s)[-1]. Go forbids raw
// pointer arithmetic, so references are tagged 64-bit handles
// (vec.StrRef): the residency test is the same single mask-and-compare,
// and the hash load is Data[slot-1]. A side array of 16-bit lengths
// stands in for C's NUL terminators, because Go strings carry explicit
// lengths.
package ussr

import (
	"encoding/binary"
	"slices"

	"ocht/internal/pack"
	"ocht/internal/vec"
)

const (
	// DataSlots is the number of 8-byte slots in the data region (512 kB).
	DataSlots = 1 << 16
	// Buckets is the number of 4-byte buckets in the linear hash table
	// (256 kB). With at most 32 k strings the load factor stays below 50%.
	Buckets = 1 << 16
	// MaxProbe is the probe-sequence cap: inserts encountering a longer
	// sequence fail, keeping negative lookups fast (Section IV-D).
	MaxProbe = 3
	// firstSlot is the first allocatable slot. Slot 0 stays free so the
	// slot number 0 can mark exceptions in Optimistic Splitting
	// (Section IV-F), and the first string's hash lives at slot 1.
	firstSlot = 1
)

// Stats records the insertion statistics reported in Table III.
type Stats struct {
	Candidates int // insert attempts
	Rejected   int // failed inserts (sampling policy, region full, probe cap)
	Count      int // strings resident
	SizeBytes  int // data-region bytes in use
	StrBytes   int // raw bytes of resident strings (excludes hashes/padding)
}

// AvgLen returns the average resident string length in bytes.
func (s Stats) AvgLen() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.StrBytes) / float64(s.Count)
}

// RejectionRatio returns Rejected/Candidates as a percentage.
func (s Stats) RejectionRatio() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return 100 * float64(s.Rejected) / float64(s.Candidates)
}

// USSR is a single query's Unique Strings Self-aligned Region.
// It is not safe for concurrent use; each query pipeline owns one.
type USSR struct {
	// AcceptLong disables the long-string sampling policy of
	// Section IV-D (ablation only): any string fitting the free space is
	// accepted, letting few large strings crowd out many small ones.
	AcceptLong bool

	data    []uint64 // DataSlots slots: hash word, then string bytes
	lens    []uint16 // string length per starting slot
	buckets []uint32 // hi 16 bits: hash extract; lo 16 bits: slot; 0=empty
	next    int      // next free slot
	frozen  bool     // read-only: inserts panic (parallel sharing contract)
	stats   Stats
}

// New allocates an empty USSR.
func New() *USSR {
	return &USSR{
		data:    make([]uint64, DataSlots),
		lens:    make([]uint16, DataSlots),
		buckets: make([]uint32, Buckets),
		next:    firstSlot,
	}
}

// Reset clears the region for reuse by the next query.
func (u *USSR) Reset() {
	for i := range u.buckets {
		u.buckets[i] = 0
	}
	u.next = firstSlot
	u.frozen = false
	u.stats = Stats{}
}

// Freeze marks the region read-only. After Freeze, Insert panics; lookups,
// hashes and reads remain valid and — because nothing mutates — are safe to
// share across goroutines. The parallel executor freezes the USSR after its
// single-threaded warmup pass and before spawning workers.
func (u *USSR) Freeze() { u.frozen = true }

// Frozen reports whether the region has been frozen.
func (u *USSR) Frozen() bool { return u.frozen }

// Stats returns a snapshot of the insertion statistics.
func (u *USSR) Stats() Stats {
	s := u.stats
	s.SizeBytes = (u.next - firstSlot) * 8
	return s
}

// Insert finds or inserts s and returns its reference. ok is false when s
// is not resident and could not be inserted (sampling rejection, region
// full, or probe-sequence cap); the caller then falls back to the heap.
func (u *USSR) Insert(s string) (vec.StrRef, bool) {
	return InsertHashed(u, s, pack.HashBytes(s))
}

// Lookup finds s without inserting.
func (u *USSR) Lookup(s string) (vec.StrRef, bool) {
	return LookupHashed(u, s, pack.HashBytes(s))
}

// InsertHashed is Insert for callers that already computed h =
// pack.HashBytes(s); s may be a string or bytes aliasing a scratch buffer
// (the region copies what it keeps).
func InsertHashed[S string | []byte](u *USSR, s S, h uint64) (vec.StrRef, bool) {
	if u.frozen {
		panic("ussr: Insert after Freeze (region is shared read-only)")
	}
	u.stats.Candidates++
	idx := uint32(h) & (Buckets - 1)
	extract := uint16(h >> 16)
	freeAt := -1
	for i := 0; i < MaxProbe; i++ {
		b := u.buckets[(idx+uint32(i))&(Buckets-1)]
		if b == 0 {
			freeAt = int((idx + uint32(i)) & (Buckets - 1))
			break
		}
		if uint16(b>>16) == extract {
			slot := uint16(b)
			if u.data[slot-1] == h && equalAt(u, slot, s) {
				return vec.USSRTag | vec.StrRef(slot), true
			}
		}
	}
	if freeAt < 0 {
		// Probe sequence longer than MaxProbe: highly infrequent at <50%
		// load, but gives up rather than degrade negative lookups.
		u.stats.Rejected++
		return 0, false
	}

	// Sampling policy (Section IV-D): a string occupying more than
	// min(F, max(2, floor(F/64))) slots is rejected, preferring many small
	// strings over few large ones as space fills up.
	strSlots := (len(s) + 7) / 8
	if strSlots == 0 {
		strSlots = 1 // the empty string still takes a slot
	}
	need := 1 + strSlots // hash slot + string slots
	free := DataSlots - u.next
	limit := free / 64
	if limit < 2 {
		limit = 2
	}
	if limit > free {
		limit = free
	}
	if u.AcceptLong {
		limit = free
	}
	if need > limit {
		u.stats.Rejected++
		return 0, false
	}

	// Materialize: hash word, then the zero-padded string bytes.
	u.data[u.next] = h
	slot := u.next + 1
	copyIntoSlots(u.data[slot:slot+strSlots], s)
	u.lens[slot] = uint16(len(s))
	u.next = slot + strSlots
	u.buckets[freeAt] = uint32(extract)<<16 | uint32(uint16(slot))
	u.stats.Count++
	u.stats.StrBytes += len(s)
	return vec.USSRTag | vec.StrRef(uint16(slot)), true
}

// LookupHashed is Lookup for callers that already computed h =
// pack.HashBytes(s). It only reads, so it is the probe a frozen region
// answers.
func LookupHashed[S string | []byte](u *USSR, s S, h uint64) (vec.StrRef, bool) {
	idx := uint32(h) & (Buckets - 1)
	extract := uint16(h >> 16)
	for i := 0; i < MaxProbe; i++ {
		b := u.buckets[(idx+uint32(i))&(Buckets-1)]
		if b == 0 {
			return 0, false
		}
		if uint16(b>>16) == extract {
			slot := uint16(b)
			if u.data[slot-1] == h && equalAt(u, slot, s) {
				return vec.USSRTag | vec.StrRef(slot), true
			}
		}
	}
	return 0, false
}

// Hash returns the pre-computed hash of a resident string: a single load
// from the slot preceding the string (Section IV-E).
func (u *USSR) Hash(r vec.StrRef) uint64 {
	if DebugAsserts {
		u.AssertResident(r)
	}
	return u.data[r.USSRSlot()-1]
}

// Get materializes the resident string r.
func (u *USSR) Get(r vec.StrRef) string {
	if DebugAsserts {
		u.AssertResident(r)
	}
	slot := r.USSRSlot()
	return string(u.bytesAt(slot))
}

// Len returns the length of the resident string r.
func (u *USSR) Len(r vec.StrRef) int { return int(u.lens[r.USSRSlot()]) }

// RefForSlot rebuilds a reference from a 16-bit slot number, the inverse
// of vec.StrRef.USSRSlot used when unpacking hot-area slot codes
// (Section IV-F: base address + slot*8).
func RefForSlot(slot uint16) vec.StrRef {
	return vec.USSRTag | vec.StrRef(slot)
}

// SlotCodes is RefForSlot's inverse over a batch: codes[r] receives the
// 16-bit slot code of refs[r] for every active row — the slot of a resident
// string, or 0, the exception code, for any other reference (Section IV-F).
func SlotCodes(refs, codes []vec.StrRef, rows []int32) {
	for _, r := range rows {
		if ref := refs[r]; ref.InUSSR() {
			codes[r] = vec.StrRef(ref.USSRSlot())
		} else {
			codes[r] = 0
		}
	}
}

func (u *USSR) bytesAt(slot uint16) []byte {
	return u.appendBytes(nil, slot)
}

// appendBytes appends the resident string's bytes to buf.
func (u *USSR) appendBytes(buf []byte, slot uint16) []byte {
	n := int(u.lens[slot])
	start := len(buf)
	padded := (n + 7) &^ 7 // whole slot words; allocates only when buf lacks the capacity
	buf = slices.Grow(buf, padded)[:start+padded]
	for i, w := 0, int(slot); i < n; i, w = i+8, w+1 {
		binary.LittleEndian.PutUint64(buf[start+i:], u.data[w])
	}
	return buf[:start+n]
}

// AppendBytes appends the bytes of resident string r to buf and returns
// the extended slice; allocation-free when buf has capacity.
func (u *USSR) AppendBytes(buf []byte, r vec.StrRef) []byte {
	return u.appendBytes(buf, r.USSRSlot())
}

// EqualBytes compares resident string r against raw bytes without
// materializing the resident string.
func (u *USSR) EqualBytes(r vec.StrRef, b []byte) bool {
	return equalAt(u, r.USSRSlot(), b)
}

// equalAt compares the string at slot with s, 8 bytes at a time against
// the slot words.
func equalAt[S string | []byte](u *USSR, slot uint16, s S) bool {
	if int(u.lens[slot]) != len(s) {
		return false
	}
	i := 0
	w := int(slot)
	for ; i+8 <= len(s); i += 8 {
		if u.data[w] != le64(s[i:]) {
			return false
		}
		w++
	}
	if i < len(s) {
		var tail uint64
		for j := len(s) - 1; j >= i; j-- {
			tail = tail<<8 | uint64(s[j])
		}
		if u.data[w] != tail {
			return false
		}
	}
	return true
}

func copyIntoSlots[S string | []byte](dst []uint64, s S) {
	i := 0
	w := 0
	for ; i+8 <= len(s); i += 8 {
		dst[w] = le64(s[i:])
		w++
	}
	if i < len(s) {
		var tail uint64
		for j := len(s) - 1; j >= i; j-- {
			tail = tail<<8 | uint64(s[j])
		}
		dst[w] = tail
	} else if len(s) == 0 && len(dst) > 0 {
		dst[0] = 0
	}
}

func le64[S string | []byte](s S) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}
