package storage

import (
	"sort"
	"sync/atomic"

	"ocht/internal/strs"
	"ocht/internal/vec"
)

// MorselRows is the row count of a parallel scan's morsel: eight vectors.
// A morsel is the unit of work a worker claims, not the storage unit
// (Leis et al., "Morsel-Driven Parallelism"): with block-sized morsels a
// one-block table — every TPC-H table but lineitem and orders at SF 0.05 —
// ran each of its phases on one worker, and orders' two blocks of 65 536
// and 9 464 rows split 87/13. It tiles BlockRows, so a morsel never
// straddles a block: dictionaries and zone maps stay per block, and only
// a block's last morsel can be partial.
const MorselRows = 8 * vec.Size

// MorselQueue hands out morsels to a set of worker goroutines. A table's
// queue (Table.MorselsFor, Table.MorselSlabs) numbers its morsels block by
// block, each block cut into MorselRows-row ranges by its own length, and
// NextRows returns a claim as a block's row range. A bare queue
// (NewMorselQueue and its variants) hands out plain indices, such as an
// aggregation's radix partitions.
//
// The queue is a set of contiguous morsel ranges, each with its own atomic
// claim cursor. A single-range queue (NewMorselQueue, NewMorselQueueRange)
// is shared by all callers. An affinity queue (NewMorselQueueAffinity) has
// one range per worker: NextFor(w) drains worker w's own range first — so
// consecutive morsels of one worker are adjacent rows of one block, whose
// decoded dictionaries the worker's scan keeps — and steals from the
// most-loaded other range only when its own is empty, which preserves work
// conservation under skew. Claims are wait-free: a cursor only moves
// forward, and an overshoot past the range end simply reads as exhausted.
type MorselQueue struct {
	ranges []morselRange
	layout *morselLayout // a table queue's morsel → rows map; nil for a bare queue
}

// morselRange is one claimable morsel range [cursor, hi). The padding
// keeps each cursor on its own cache line so workers draining their own
// ranges never false-share.
type morselRange struct {
	next atomic.Int64
	hi   int64
	_    [48]byte
}

// NewMorselQueue creates a queue over indices [0, n) with a single shared
// range.
func NewMorselQueue(n int) *MorselQueue {
	return NewMorselQueueRange(0, n)
}

// NewMorselQueueRange creates a single-range queue over indices [lo, hi).
func NewMorselQueueRange(lo, hi int) *MorselQueue {
	q := &MorselQueue{ranges: make([]morselRange, 1)}
	q.ranges[0].hi = int64(hi)
	q.ranges[0].next.Store(int64(lo))
	return q
}

// NewMorselQueueAffinity creates a queue over [0, n) split into one
// contiguous range per worker. Worker w claims from range w via NextFor
// and steals from other ranges when its own runs dry.
func NewMorselQueueAffinity(n, workers int) *MorselQueue {
	if workers < 1 {
		workers = 1
	}
	if workers > n && n > 0 {
		workers = n
	}
	q := &MorselQueue{ranges: make([]morselRange, workers)}
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		q.ranges[w].next.Store(int64(lo))
		q.ranges[w].hi = int64(hi)
	}
	return q
}

// Next claims the next unclaimed index; ok is false when the queue is
// exhausted. Equivalent to NextFor(0).
func (q *MorselQueue) Next() (i int, ok bool) { return q.NextFor(0) }

// NextFor claims the next index for worker w: from w's own range while it
// lasts, then from whichever other range has the most unclaimed morsels
// (steal-on-empty). ok is false only when every range is exhausted.
func (q *MorselQueue) NextFor(w int) (i int, ok bool) {
	if len(q.ranges) == 0 {
		return 0, false
	}
	own := w % len(q.ranges)
	if i, ok = q.ranges[own].claim(); ok {
		return i, true
	}
	for {
		victim, best := -1, int64(0)
		for r := range q.ranges {
			if r == own {
				continue
			}
			if left := q.ranges[r].remaining(); left > best {
				victim, best = r, left
			}
		}
		if victim < 0 {
			return 0, false
		}
		if i, ok = q.ranges[victim].claim(); ok {
			return i, true
		}
		// Lost the race for the victim's last morsels; rescan.
	}
}

// NextRows claims worker w's next morsel of a table queue, as NextFor
// does, and returns it as the row range [lo, hi) of block bi.
func (q *MorselQueue) NextRows(w int) (bi, lo, hi int, ok bool) {
	m, ok := q.NextFor(w)
	if !ok {
		return 0, 0, 0, false
	}
	bi, lo, hi = q.layout.rows(m)
	return bi, lo, hi, true
}

func (r *morselRange) claim() (int, bool) {
	// Opportunistic read first: keeps exhausted ranges read-only so
	// repeated steal scans do not bounce their cache lines.
	if r.next.Load() >= r.hi {
		return 0, false
	}
	n := r.next.Add(1) - 1
	if n >= r.hi {
		return 0, false
	}
	return int(n), true
}

func (r *morselRange) remaining() int64 {
	left := r.hi - r.next.Load()
	if left < 0 {
		return 0
	}
	return left
}

// morselLayout numbers a table's morsels: block b holds morsels
// first[b] .. first[b+1]-1, ceil(n[b] / MorselRows) of them for its n[b]
// rows, so no morsel id is empty.
type morselLayout struct {
	first []int
	n     []int
}

// newMorselLayout lays out the morsels of t's sealed blocks. Every column
// of a table has the same block boundaries, so one layout drives a
// multi-column scan.
func newMorselLayout(t *Table) *morselLayout {
	l := &morselLayout{first: []int{0}}
	if len(t.Cols) == 0 {
		return l
	}
	for _, b := range t.Cols[0].blocks {
		l.n = append(l.n, b.N)
		l.first = append(l.first, l.first[len(l.first)-1]+(b.N+MorselRows-1)/MorselRows)
	}
	return l
}

// len returns the table's morsel count.
func (l *morselLayout) len() int { return l.first[len(l.first)-1] }

// rows returns morsel m as the row range [lo, hi) of block bi.
func (l *morselLayout) rows(m int) (bi, lo, hi int) {
	bi = sort.Search(len(l.n), func(b int) bool { return l.first[b+1] > m })
	lo = (m - l.first[bi]) * MorselRows
	return bi, lo, min(lo+MorselRows, l.n[bi])
}

// MorselsFor returns an affinity queue over the table's morsels, split
// into one contiguous range per worker (see NewMorselQueueAffinity).
func (t *Table) MorselsFor(workers int) *MorselQueue {
	l := newMorselLayout(t)
	q := NewMorselQueueAffinity(l.len(), workers)
	q.layout = l
	return q
}

// MorselSlabs returns n single-range queues that cut the table's morsels
// into n contiguous slabs in row order: slab i holds the rows before slab
// i+1's, so concatenating per-slab outputs reproduces the serial row
// order.
func (t *Table) MorselSlabs(n int) []*MorselQueue {
	l := newMorselLayout(t)
	m := l.len()
	slabs := make([]*MorselQueue, n)
	for i := range slabs {
		slabs[i] = NewMorselQueueRange(i*m/n, (i+1)*m/n)
		slabs[i].layout = l
	}
	return slabs
}

// WarmDictionaries inserts every per-block dictionary string of the column
// into the store's USSR (no heap fallback — rejected strings simply stay
// dictionary-only). The parallel executor runs this single-threaded before
// freezing the USSR, for the columns its operators hash as keys only, so
// that the workers' first-touch interning of those columns resolves by
// lookup against a read-only region and their keys compare by slot — the
// paper's "the scan inserts all dictionary strings into the USSR" (Section
// IV-D) hoisted into a warm-up pass. A column that is only filtered, read
// through a function or carried as payload is not warmed: decoding and
// hashing every entry of, say, a comment column costs the driver more
// than the workers' private-heap interning of the few entries rows use.
// Entries are decoded into one reused buffer and hashed once each, so the
// warm-up allocates nothing per entry.
func (c *Column) WarmDictionaries(st *strs.Store) {
	if c.Type != vec.Str {
		return
	}
	var data []byte
	var offs []int32
	for _, b := range c.blocks {
		data, offs = decodeDict(b, data, offs)
		for i := 1; i < len(offs); i++ {
			st.Warm(data[offs[i-1]:offs[i]])
		}
	}
}
