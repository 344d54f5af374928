package storage

import (
	"sync/atomic"

	"ocht/internal/strs"
	"ocht/internal/vec"
)

// MorselQueue hands out block-aligned morsels of a table to a set of
// worker goroutines. A morsel is one sealed block (BlockRows rows): large
// enough to amortize dispatch, small enough that workers load-balance over
// skewed pipelines, and — because blocks are the dictionary/zone-map
// granularity — scans never straddle a block boundary, so per-block
// dictionary setup stays identical to the serial path.
//
// The queue is a set of contiguous block ranges, each with its own atomic
// claim cursor. A plain queue (NewMorselQueue) has one range shared by all
// callers, exactly the old single-counter behavior. An affinity queue
// (NewMorselQueueAffinity) has one range per worker: NextFor(w) drains
// worker w's own range first — so consecutive morsels of one worker are
// physically adjacent blocks, keeping dictionary and zone-map state warm
// in that core's cache — and steals from the most-loaded other range only
// when its own is empty, which preserves work conservation under skew.
// Claims are wait-free: a cursor only moves forward, and an overshoot past
// the range end simply reads as exhausted.
type MorselQueue struct {
	ranges []morselRange
}

// morselRange is one claimable block range [cursor, hi). The padding keeps
// each cursor on its own cache line so workers draining their own ranges
// never false-share.
type morselRange struct {
	next atomic.Int64
	hi   int64
	_    [48]byte
}

// NewMorselQueue creates a queue over block indices [0, blocks) with a
// single shared range.
func NewMorselQueue(blocks int) *MorselQueue {
	return NewMorselQueueRange(0, blocks)
}

// NewMorselQueueRange creates a single-range queue over block indices
// [lo, hi). Range queues give each worker a contiguous slab of the table,
// which keeps the concatenation of per-worker outputs in serial row order
// — required when the parallel pipeline has no aggregation frontier to
// merge under.
func NewMorselQueueRange(lo, hi int) *MorselQueue {
	q := &MorselQueue{ranges: make([]morselRange, 1)}
	q.ranges[0].hi = int64(hi)
	q.ranges[0].next.Store(int64(lo))
	return q
}

// NewMorselQueueAffinity creates a queue over [0, blocks) split into one
// contiguous range per worker. Worker w claims from range w via NextFor
// and steals from other ranges when its own runs dry.
func NewMorselQueueAffinity(blocks, workers int) *MorselQueue {
	if workers < 1 {
		workers = 1
	}
	if workers > blocks && blocks > 0 {
		workers = blocks
	}
	q := &MorselQueue{ranges: make([]morselRange, workers)}
	for w := 0; w < workers; w++ {
		lo, hi := w*blocks/workers, (w+1)*blocks/workers
		q.ranges[w].next.Store(int64(lo))
		q.ranges[w].hi = int64(hi)
	}
	return q
}

// Next claims the next unclaimed block index; ok is false when the table
// is exhausted. Equivalent to NextFor(0).
func (q *MorselQueue) Next() (bi int, ok bool) { return q.NextFor(0) }

// NextFor claims the next block for worker w: from w's own range while it
// lasts, then from whichever other range has the most unclaimed blocks
// (steal-on-empty). ok is false only when every range is exhausted.
func (q *MorselQueue) NextFor(w int) (bi int, ok bool) {
	if len(q.ranges) == 0 {
		return 0, false
	}
	own := w % len(q.ranges)
	if bi, ok = q.ranges[own].claim(); ok {
		return bi, true
	}
	for {
		victim, best := -1, int64(0)
		for i := range q.ranges {
			if i == own {
				continue
			}
			if left := q.ranges[i].remaining(); left > best {
				victim, best = i, left
			}
		}
		if victim < 0 {
			return 0, false
		}
		if bi, ok = q.ranges[victim].claim(); ok {
			return bi, true
		}
		// Lost the race for the victim's last blocks; rescan.
	}
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

// Blocks returns the total number of morsels the queue dispenses.
func (q *MorselQueue) Blocks() int {
	n := int64(0)
	for i := range q.ranges {
		if q.ranges[i].hi > n {
			n = q.ranges[i].hi
		}
	}
	return int(n)
}

// Morsels returns a queue over all sealed blocks of the table. Every
// column of a table has the same block boundaries, so one queue drives a
// multi-column scan.
func (t *Table) Morsels() *MorselQueue {
	if len(t.Cols) == 0 {
		return NewMorselQueue(0)
	}
	return NewMorselQueue(t.Cols[0].Blocks())
}

// MorselsFor returns an affinity queue over all sealed blocks of the
// table, split into one contiguous range per worker (see
// NewMorselQueueAffinity).
func (t *Table) MorselsFor(workers int) *MorselQueue {
	if len(t.Cols) == 0 {
		return NewMorselQueue(0)
	}
	return NewMorselQueueAffinity(t.Cols[0].Blocks(), workers)
}

// WarmDictionaries inserts every per-block dictionary string of the column
// into the store's USSR (no heap fallback — rejected strings simply stay
// dictionary-only). The parallel executor runs this single-threaded before
// freezing the USSR, so that the parallel scans' first-touch interning
// resolves by lookup against a read-only region — the paper's "the scan
// inserts all dictionary strings into the USSR" (Section IV-D) hoisted
// into a warmup pass. Entries are decoded into one reused buffer and
// hashed once each, so the warm-up allocates nothing per entry.
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
