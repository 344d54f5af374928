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
// what lets a partition owner compare and re-hash group keys produced by
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

	// Counters for the Figure 6 breakdown. Every hash is one load of a
	// stored word; HashFast counts those of USSR-resident strings and
	// HashSlow those of heap strings.
	HashFast, HashSlow   int
	EqualFast, EqualSlow int // reference vs hash-then-byte comparisons

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

// heapOf routes heap reference r to its owning arena: the shard tag
// selects a worker's heap, and outside parallel execution (shards == nil)
// references carry no shard bits and resolve against the store's own heap.
// It returns r with the shard bits cleared.
func (st *Store) heapOf(r vec.StrRef) (*arena, vec.StrRef) {
	if st.shards != nil {
		return st.shards[r>>shardShift&((1<<shardBits)-1)], r &^ shardMask
	}
	return &st.heap, r
}

// heapBytes returns the bytes of heap reference r, aliasing the owning
// arena.
func (st *Store) heapBytes(r vec.StrRef) []byte {
	if r == NullRef {
		return nil
	}
	h, r := st.heapOf(r)
	return h.bytes(r)
}

// heapHash returns the hash stored with heap reference r.
func (st *Store) heapHash(r vec.StrRef) uint64 {
	h, r := st.heapOf(r)
	return h.hash(r)
}

// Intern returns a reference for s: USSR-resident when possible, otherwise
// heap-allocated. Expression evaluation calls it for computed strings and
// query constants; scans intern a dictionary entry through InternBytes the
// first time a row reads it. The hash is computed here, once: the USSR
// stores it in the slot before a resident string, the heap in the word
// before a rejected one. Once the USSR is frozen, Intern consults it
// read-only and falls back to this store's private heap, so concurrent
// workers can keep interning.
func (st *Store) Intern(s string) vec.StrRef { return intern(st, s) }

// InternBytes is Intern for bytes that alias a scratch buffer, such as a
// decoded dictionary entry; what the store keeps, it copies.
func (st *Store) InternBytes(b []byte) vec.StrRef { return intern(st, b) }

func intern[S string | []byte](st *Store, s S) vec.StrRef {
	h := pack.HashBytes(s)
	if st.UseUSSR {
		var r vec.StrRef
		var ok bool
		if st.U.Frozen() {
			r, ok = ussr.LookupHashed(st.U, s, h)
		} else {
			r, ok = ussr.InsertHashed(st.U, s, h)
		}
		if ok {
			return r
		}
	}
	return put(&st.heap, s, h) | st.shard
}

// Warm inserts b into the USSR without a heap fallback: rejected strings
// are simply not resident. The parallel executor warms scan dictionaries
// and plan constants through this before freezing the region.
func (st *Store) Warm(b []byte) {
	if st.UseUSSR && !st.U.Frozen() {
		ussr.InsertHashed(st.U, b, pack.HashBytes(b))
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

// Hash returns the hash of the string behind r: one load, from the slot
// before a USSR-resident string or from the word before a heap string,
// never a computation over the bytes (the paper's inline hash(char*) of
// Section IV-E, extended to the strings the USSR rejected). HashFast counts
// resident strings and HashSlow heap strings.
func (st *Store) Hash(r vec.StrRef) uint64 {
	if r.InUSSR() {
		st.HashFast++
		return st.U.Hash(r)
	}
	if r == NullRef {
		return nullHash
	}
	st.HashSlow++
	return st.heapHash(r)
}

// NullRef is the reference representing SQL NULL strings. It compares
// equal only to itself (grouping semantics), never to any real string.
const NullRef = vec.StrRef(1)

// nullHash is the fixed hash of SQL NULL.
const nullHash = 0x9e3779b97f4a7c15

// Equal compares the strings behind a and b. When both are USSR-resident,
// uniqueness makes reference equality sufficient (Section IV-E's equal()).
// Otherwise the stored hashes are compared before any byte — the
// hash == hash && !strcmp order — so unequal strings rarely reach the
// byte comparison.
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
		return st.U.Hash(a) == st.heapHash(b) && st.U.EqualBytes(a, st.heapBytes(b))
	}
	if b.InUSSR() {
		return st.U.Hash(b) == st.heapHash(a) && st.U.EqualBytes(b, st.heapBytes(a))
	}
	return st.heapHash(a) == st.heapHash(b) && bytes.Equal(st.heapBytes(a), st.heapBytes(b))
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

// MemoryBytes reports the string memory footprint: the heap arenas plus
// the USSR's fixed region when enabled. After Shard, the heaps are every
// shard's — the parent's and each worker's — so call it only while no
// worker is interning.
func (st *Store) MemoryBytes() int {
	n := st.heap.used
	if st.shards != nil {
		n = 0
		for _, h := range st.shards {
			n += h.used
		}
	}
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
// deduplication avoids. A string is laid out as [hash u64][len u32][bytes],
// so the heap, like the USSR, answers a hash with one load.
//
// The heap is a list of chunks of up to chunkSize bytes, so growing it
// never copies the strings already placed (one flat buffer grown by append
// copied every string on each doubling and held both copies meanwhile). A
// reference is chunk<<chunkShift | the offset of the hash word within the
// chunk (USSR tag clear); a string longer than a chunk gets a chunk of its
// own. The zero value is ready to use.
type arena struct {
	chunks [][]byte
	used   int // bytes in use over all chunks
}

const (
	// heapHeader is the size of the hash word plus the length prefix.
	heapHeader = 12

	chunkShift = 20
	chunkSize  = 1 << chunkShift
)

func put[S string | []byte](a *arena, s S, h uint64) vec.StrRef {
	need := heapHeader + len(s)
	if len(a.chunks) == 0 {
		// Offsets 0 and 1 of the first chunk stay reserved: StrRef 0 is
		// the exception marker (and an unfilled dictionary entry) and
		// NullRef is 1. The first chunk grows from small, so a query
		// that places a few strings keeps a small heap.
		a.chunks = append(a.chunks, make([]byte, 4, 4+need))
		a.used = 4
	} else if c := a.chunks[len(a.chunks)-1]; len(c)+need > chunkSize {
		a.chunks = append(a.chunks, make([]byte, 0, max(chunkSize, need)))
	}
	i := len(a.chunks) - 1
	c := a.chunks[i]
	off := len(c)
	c = binary.LittleEndian.AppendUint64(c, h)
	c = binary.LittleEndian.AppendUint32(c, uint32(len(s)))
	a.chunks[i] = append(c, s...)
	a.used += need
	return vec.StrRef(i)<<chunkShift | vec.StrRef(off)
}

// at returns the chunk holding r and r's offset within it.
func (a *arena) at(r vec.StrRef) ([]byte, int) {
	off := r.HeapOffset()
	return a.chunks[off>>chunkShift], int(off & (chunkSize - 1))
}

// hash returns the hash stored with the string at r.
func (a *arena) hash(r vec.StrRef) uint64 {
	c, off := a.at(r)
	return binary.LittleEndian.Uint64(c[off:])
}

// bytes returns the string at r, aliasing the arena: it must not be
// modified.
func (a *arena) bytes(r vec.StrRef) []byte {
	c, off := a.at(r)
	n := int(binary.LittleEndian.Uint32(c[off+8:]))
	return c[off+heapHeader : off+heapHeader+n]
}
