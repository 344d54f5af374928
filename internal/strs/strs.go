// Package strs unifies the two string backings of a query — the USSR and
// the fall-back string heap — behind one Store, mirroring Section IV-B:
// "both heap-backed and USSR-backed strings are represented as normal
// pointers, which means that query engine operators can treat all strings
// uniformly".
package strs

import (
	"bytes"
	"encoding/binary"

	"ocht/internal/pack"
	"ocht/internal/ussr"
	"ocht/internal/vec"
)

// Shard-tagged heap references: during parallel execution every worker
// interns into a private heap, and the owning shard is recorded in bits
// 48..62 of the reference (bit 63 stays the USSR tag). Any store holding
// the shared shard table can then resolve any worker's reference, which is
// what lets the merge phase compare and re-hash group keys produced by
// different workers without re-interning. Serial execution never sets
// shard bits, so references stay byte-identical to the single-store
// engine.
const (
	shardShift = 48
	shardBits  = 15
	shardMask  = vec.StrRef((1<<shardBits)-1) << shardShift
)

// Store owns a query's string memory. When UseUSSR is false (the vanilla
// baseline) every Intern allocates on the heap.
type Store struct {
	U       *ussr.USSR
	UseUSSR bool

	heap   arena      // strings Intern could not place in the USSR
	shard  vec.StrRef // this store's pre-shifted shard tag; 0 in serial mode
	shards []*arena   // shared shard table; nil outside parallel execution

	// Counters for the Figure 6 breakdown.
	HashFast, HashSlow   int // pre-computed vs computed hashes
	EqualFast, EqualSlow int // pointer vs byte-wise comparisons

	// cmpA and cmpB receive USSR-resident operands of Compare, EqualString
	// and CompareString (Raw copies the slot words out), grown once and
	// reused; like the counters they make a Store single-goroutine.
	cmpA, cmpB []byte
}

// NewStore creates a store; useUSSR selects whether Intern tries the USSR
// first.
func NewStore(useUSSR bool) *Store {
	s := &Store{UseUSSR: useUSSR}
	if useUSSR {
		s.U = ussr.New()
	}
	return s
}

// NewStoreUSSR creates a USSR-enabled store around an existing region
// instead of allocating one. The query service pools regions across
// requests this way; u must be unfrozen and empty (ussr.Reset).
func NewStoreUSSR(u *ussr.USSR) *Store {
	return &Store{UseUSSR: true, U: u}
}

// Shard prepares the store for parallel execution and returns n worker
// stores. Each worker store shares the (frozen or about-to-be-frozen)
// USSR and the shard table but owns a private heap, so worker Interns
// never contend; the parent keeps shard 0. Shard must be called before
// the workers start — the shard table grows only between runs and is
// read-only while workers execute. Calling Shard again (a context reused
// across several Runs, as the benchmark loops do) appends fresh worker
// heaps after the existing shards, so references issued by earlier runs
// keep resolving.
func (st *Store) Shard(n int) []*Store {
	if st.shards == nil {
		st.shards = []*arena{&st.heap}
	}
	base := len(st.shards)
	if base+n > 1<<shardBits {
		panic("strs: shard table exhausted; reuse of one query context across too many parallel runs")
	}
	workers := make([]*Store, n)
	for i := range workers {
		w := &Store{
			U:       st.U,
			UseUSSR: st.UseUSSR,
			shard:   vec.StrRef(base+i) << shardShift,
			shards:  nil, // set below, after the table stops growing
		}
		st.shards = append(st.shards, &w.heap)
		workers[i] = w
	}
	for _, w := range workers {
		w.shards = st.shards
	}
	return workers
}

// heapBytes returns the bytes of heap reference r, aliasing the owning
// arena: the shard tag routes it to a worker's heap, and outside parallel
// execution (shards == nil) references carry no shard bits and resolve
// against the store's own heap.
func (st *Store) heapBytes(r vec.StrRef) []byte {
	if r == NullRef {
		return nil
	}
	h := &st.heap
	if st.shards != nil {
		h, r = st.shards[r>>shardShift&((1<<shardBits)-1)], r&^shardMask
	}
	return h.bytes(r)
}

// Intern returns a reference for s: USSR-resident when possible, otherwise
// heap-allocated. Scans call this when setting up per-block dictionary
// arrays; expression evaluation calls it for computed strings. Once the
// USSR is frozen, Intern consults it read-only (Lookup) and falls back to
// this store's private heap, so concurrent workers can keep interning.
func (st *Store) Intern(s string) vec.StrRef {
	if st.UseUSSR {
		if st.U.Frozen() {
			if r, ok := st.U.Lookup(s); ok {
				return r
			}
		} else if r, ok := st.U.Insert(s); ok {
			return r
		}
	}
	return st.heap.put(s) | st.shard
}

// Warm inserts s into the USSR without a heap fallback: rejected strings
// are simply not resident. The parallel executor warms scan dictionaries
// and plan constants through this before freezing the region.
func (st *Store) Warm(s string) {
	if st.UseUSSR && !st.U.Frozen() {
		st.U.Insert(s)
	}
}

// Get materializes the string behind r.
func (st *Store) Get(r vec.StrRef) string {
	if r.InUSSR() {
		return st.U.Get(r)
	}
	return string(st.heapBytes(r))
}

// Len returns the byte length of the string behind r.
func (st *Store) Len(r vec.StrRef) int {
	if r.InUSSR() {
		return st.U.Len(r)
	}
	return len(st.heapBytes(r))
}

// Hash returns the hash of the string behind r. For USSR-resident strings
// this is the pre-computed hash — one load instead of a length-proportional
// computation (the paper's inline hash(char*) of Section IV-E).
func (st *Store) Hash(r vec.StrRef) uint64 {
	if r.InUSSR() {
		st.HashFast++
		return st.U.Hash(r)
	}
	if r == NullRef {
		return 0x9e3779b97f4a7c15 // fixed hash for SQL NULL
	}
	st.HashSlow++
	return pack.HashBytes(st.heapBytes(r))
}

// NullRef is the reference representing SQL NULL strings. It compares
// equal only to itself (grouping semantics), never to any real string.
const NullRef = vec.StrRef(1)

// Equal compares the strings behind a and b. When both are USSR-resident,
// uniqueness makes reference equality sufficient (Section IV-E's equal()).
func (st *Store) Equal(a, b vec.StrRef) bool {
	if a.InUSSR() && b.InUSSR() {
		st.EqualFast++
		return a == b
	}
	if a == b {
		return true // same handle, including NullRef==NullRef
	}
	if a == NullRef || b == NullRef {
		return false
	}
	st.EqualSlow++
	// Mixed backing: compare the heap bytes against the USSR words in
	// place, without materializing the resident string.
	if a.InUSSR() {
		return st.U.EqualBytes(a, st.heapBytes(b))
	}
	if b.InUSSR() {
		return st.U.EqualBytes(b, st.heapBytes(a))
	}
	return bytes.Equal(st.heapBytes(a), st.heapBytes(b))
}

// Raw returns the bytes of the string behind r without allocating when
// possible: heap strings alias the arena, USSR strings are materialized
// into scratch. The returned scratch (possibly grown) must be threaded
// into the next call; the data slice is only valid until then.
func (st *Store) Raw(r vec.StrRef, scratch []byte) (data, scratchOut []byte) {
	if r.InUSSR() {
		out := st.U.AppendBytes(scratch[:0], r)
		return out, out
	}
	return st.heapBytes(r), scratch
}

// EqualString compares the string behind r with a Go string.
func (st *Store) EqualString(r vec.StrRef, s string) bool {
	var d []byte
	d, st.cmpA = st.Raw(r, st.cmpA)
	return string(d) == s
}

// Compare orders the strings behind a and b lexicographically.
func (st *Store) Compare(a, b vec.StrRef) int {
	if a.InUSSR() && b.InUSSR() && a == b {
		return 0
	}
	var da, db []byte
	da, st.cmpA = st.Raw(a, st.cmpA)
	db, st.cmpB = st.Raw(b, st.cmpB)
	return bytes.Compare(da, db)
}

// CompareString orders the string behind r against a Go string — the
// result sink's compare of an in-flight reference with an already boxed
// cell. Like Compare and EqualString it reads r through Raw into the
// store's own scratch, so none of the three allocates (the conversions
// below are comparison operands, which the compiler does not copy).
func (st *Store) CompareString(r vec.StrRef, s string) int {
	var d []byte
	d, st.cmpA = st.Raw(r, st.cmpA)
	if string(d) < s {
		return -1
	}
	if string(d) > s {
		return 1
	}
	return 0
}

// MemoryBytes reports the string memory footprint: the heap arena plus the
// USSR's fixed region when enabled.
func (st *Store) MemoryBytes() int {
	n := len(st.heap.buf)
	if st.U != nil {
		n += ussr.DataSlots*8 + ussr.Buckets*4
	}
	return n
}

// ResetCounters zeroes the fast/slow path counters.
func (st *Store) ResetCounters() {
	st.HashFast, st.HashSlow, st.EqualFast, st.EqualSlow = 0, 0, 0, 0
}

// arena is the baseline query string heap. Without the USSR, materializing
// operators allocate every string here (Section IV-A). It performs no
// deduplication — every put appends, which is what makes peak memory grow
// with duplicate-heavy string data and what the USSR's opportunistic
// deduplication avoids. A reference is the byte offset of the string's
// 4-byte length prefix (USSR tag clear); the zero value is ready to use.
type arena struct{ buf []byte }

func (a *arena) put(s string) vec.StrRef {
	if len(a.buf) == 0 {
		// Offsets 0 and 1 stay reserved: StrRef 0 is the exception
		// marker and NullRef is 1.
		a.buf = append(a.buf, 0, 0, 0, 0)
	}
	off := len(a.buf)
	a.buf = binary.LittleEndian.AppendUint32(a.buf, uint32(len(s)))
	a.buf = append(a.buf, s...)
	return vec.StrRef(off)
}

// bytes returns the string at r, aliasing the arena: it must not be
// modified or retained across puts.
func (a *arena) bytes(r vec.StrRef) []byte {
	off := int(r.HeapOffset())
	n := int(binary.LittleEndian.Uint32(a.buf[off:]))
	return a.buf[off+4 : off+4+n]
}
