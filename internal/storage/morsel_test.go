package storage

import (
	"sync"
	"testing"

	"ocht/internal/vec"
)

func TestMorselQueueSequential(t *testing.T) {
	q := NewMorselQueue(3)
	for want := 0; want < 3; want++ {
		bi, ok := q.Next()
		if !ok || bi != want {
			t.Fatalf("Next = %d,%v want %d,true", bi, ok, want)
		}
	}
	if _, ok := q.Next(); ok {
		t.Fatal("exhausted queue must return ok=false")
	}
	if _, ok := q.Next(); ok {
		t.Fatal("exhausted queue must stay exhausted")
	}
}

func TestMorselQueueRange(t *testing.T) {
	q := NewMorselQueueRange(2, 5)
	var got []int
	for {
		bi, ok := q.Next()
		if !ok {
			break
		}
		got = append(got, bi)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("range queue dispensed %v", got)
	}
	if _, ok := NewMorselQueueRange(4, 4).Next(); ok {
		t.Error("empty range must be exhausted")
	}
}

// TestMorselQueueConcurrent claims blocks from many goroutines and checks
// every block is handed out exactly once.
func TestMorselQueueConcurrent(t *testing.T) {
	const blocks, workers = 1000, 8
	q := NewMorselQueue(blocks)
	var mu sync.Mutex
	seen := make([]int, blocks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []int
			for {
				bi, ok := q.Next()
				if !ok {
					break
				}
				mine = append(mine, bi)
			}
			mu.Lock()
			for _, bi := range mine {
				seen[bi]++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	for bi, n := range seen {
		if n != 1 {
			t.Fatalf("block %d claimed %d times", bi, n)
		}
	}
}

func TestTableMorselsCoverAllBlocks(t *testing.T) {
	c := NewColumn("x", vec.I64, false)
	for i := 0; i < BlockRows*2+10; i++ {
		c.AppendInt(int64(i))
	}
	tab := NewTable("t", c)
	tab.Seal()
	q := tab.MorselsFor(1)
	rows, blocks := 0, map[int]bool{}
	for {
		bi, lo, hi, ok := q.NextRows(0)
		if !ok {
			break
		}
		rows += hi - lo
		blocks[bi] = true
	}
	if rows != c.Rows() || len(blocks) != c.Blocks() {
		t.Fatalf("dispensed %d rows over %d blocks, want %d over %d", rows, len(blocks), c.Rows(), c.Blocks())
	}
}

// TestMorselQueueAffinityOwnRangeFirst checks that each worker drains its
// own contiguous range in order before touching anyone else's.
func TestMorselQueueAffinityOwnRangeFirst(t *testing.T) {
	const blocks, workers = 12, 3
	q := NewMorselQueueAffinity(blocks, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*blocks/workers, (w+1)*blocks/workers
		for want := lo; want < hi; want++ {
			bi, ok := q.NextFor(w)
			if !ok || bi != want {
				t.Fatalf("worker %d claim = %d,%v want %d,true", w, bi, ok, want)
			}
		}
	}
	for w := 0; w < workers; w++ {
		if _, ok := q.NextFor(w); ok {
			t.Fatalf("worker %d found blocks in a drained queue", w)
		}
	}
}

// TestMorselQueueAffinitySteal drains one worker's range and checks the
// worker keeps claiming — from the most-loaded victim first — until the
// whole table is exhausted.
func TestMorselQueueAffinitySteal(t *testing.T) {
	// Ranges: w0 [0,4) w1 [4,8) w2 [8,12). Drain w2's own range, then let
	// it steal everything else.
	const blocks, workers = 12, 3
	q := NewMorselQueueAffinity(blocks, workers)
	seen := make(map[int]int)
	for i := 0; i < blocks; i++ {
		bi, ok := q.NextFor(2)
		if !ok {
			t.Fatalf("queue dry after %d of %d blocks", i, blocks)
		}
		seen[bi]++
	}
	if _, ok := q.NextFor(2); ok {
		t.Fatal("queue must be exhausted")
	}
	for bi := 0; bi < blocks; bi++ {
		if seen[bi] != 1 {
			t.Fatalf("block %d claimed %d times", bi, seen[bi])
		}
	}
}

// TestMorselQueueAffinityConcurrent checks exactly-once dispatch over an
// affinity queue under contention, with more workers than ranges and a
// block count that does not divide evenly.
func TestMorselQueueAffinityConcurrent(t *testing.T) {
	const blocks, ranges, goroutines = 997, 4, 8
	q := NewMorselQueueAffinity(blocks, ranges)
	var mu sync.Mutex
	seen := make([]int, blocks)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for {
				bi, ok := q.NextFor(w)
				if !ok {
					break
				}
				mine = append(mine, bi)
			}
			mu.Lock()
			for _, bi := range mine {
				seen[bi]++
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for bi, n := range seen {
		if n != 1 {
			t.Fatalf("block %d claimed %d times", bi, n)
		}
	}
}

// TestMorselQueueAffinityClamp pins the worker-count clamps: more workers
// than blocks collapses to one range per block, and zero workers still
// yields a usable single-range queue.
func TestMorselQueueAffinityClamp(t *testing.T) {
	q := NewMorselQueueAffinity(2, 8)
	seen := map[int]bool{}
	for w := 0; w < 8; w++ {
		if bi, ok := q.NextFor(w); ok {
			seen[bi] = true
		}
	}
	if len(seen) != 2 {
		t.Fatalf("clamped queue dispensed %d distinct blocks, want 2", len(seen))
	}
	q = NewMorselQueueAffinity(3, 0)
	n := 0
	for {
		if _, ok := q.NextFor(0); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("zero-worker queue dispensed %d blocks, want 3", n)
	}
}

// morselTable builds a one-column table whose sealed blocks hold the given
// row counts.
func morselTable(blockRows ...int) *Table {
	c := NewColumn("x", vec.I64, false)
	for _, n := range blockRows {
		for i := 0; i < n; i++ {
			c.AppendInt(int64(i))
		}
		c.Seal()
	}
	return NewTable("t", c)
}

// morselShapes are the tables the morsel tests cover: one block, two
// uneven blocks (orders' 65 536 + 9 464 rows at TPC-H SF 0.05), and a
// table whose last morsel is partial.
var morselShapes = map[string][]int{
	"one-block":       {BlockRows},
	"uneven-two":      {BlockRows, 9464},
	"partial-last":    {BlockRows, 3*MorselRows + 77},
	"short-one-block": {5000},
}

// claimAll drains q with one goroutine per claimer, claimer g claiming as
// worker g, and counts the claims of every row.
func claimAll(t *testing.T, q *MorselQueue, claimers int, blockRows []int) [][]int {
	t.Helper()
	seen := make([][]int, len(blockRows))
	for b, n := range blockRows {
		seen[b] = make([]int, n)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < claimers; g++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			type span struct{ bi, lo, hi int }
			var mine []span
			for {
				bi, lo, hi, ok := q.NextRows(w)
				if !ok {
					break
				}
				mine = append(mine, span{bi, lo, hi})
			}
			mu.Lock()
			defer mu.Unlock()
			for _, s := range mine {
				if s.lo >= s.hi || s.hi-s.lo > MorselRows || s.lo%MorselRows != 0 {
					t.Errorf("worker %d claimed malformed morsel [%d, %d) of block %d", w, s.lo, s.hi, s.bi)
					continue
				}
				for r := s.lo; r < s.hi; r++ {
					seen[s.bi][r]++
				}
			}
		}(g)
	}
	wg.Wait()
	return seen
}

// TestMorselsClaimEveryRowOnce drains each table's affinity queue with W
// concurrent workers, and with worker 0 alone (which then steals every
// other worker's range), and checks every row is claimed exactly once.
func TestMorselsClaimEveryRowOnce(t *testing.T) {
	for name, shape := range morselShapes {
		tab := morselTable(shape...)
		for _, w := range []int{1, 2, 3, 8} {
			for _, claimers := range []int{w, 1} {
				seen := claimAll(t, tab.MorselsFor(w), claimers, shape)
				for b := range seen {
					for r, n := range seen[b] {
						if n != 1 {
							t.Fatalf("%s w=%d claimers=%d: block %d row %d claimed %d times",
								name, w, claimers, b, r, n)
						}
					}
				}
			}
		}
	}
}

// TestMorselsSplitOneBlock checks that a one-block table, and the uneven
// two-block one, hold work for every one of up to eight workers: when each
// worker claims in turn, none finds the queue empty.
func TestMorselsSplitOneBlock(t *testing.T) {
	for name, shape := range map[string][]int{"one-block": {BlockRows}, "uneven-two": {BlockRows, 9464}} {
		tab := morselTable(shape...)
		for _, w := range []int{2, 3, 8} {
			q := tab.MorselsFor(w)
			for i := 0; i < w; i++ {
				if _, _, _, ok := q.NextRows(i); !ok {
					t.Fatalf("%s w=%d: worker %d found no morsel", name, w, i)
				}
			}
		}
	}
}

// TestMorselSlabsRowOrder checks that slabs cover the table in row order:
// slab i's last row comes right before slab i+1's first.
func TestMorselSlabsRowOrder(t *testing.T) {
	for name, shape := range morselShapes {
		tab := morselTable(shape...)
		for _, n := range []int{1, 2, 3, 8} {
			next := [2]int{0, 0} // the (block, row) the next slab must start at
			for i, q := range tab.MorselSlabs(n) {
				for {
					bi, lo, hi, ok := q.NextRows(i)
					if !ok {
						break
					}
					if next[1] == shape[next[0]] {
						next = [2]int{next[0] + 1, 0}
					}
					if bi != next[0] || lo != next[1] {
						t.Fatalf("%s n=%d slab %d: claimed block %d row %d, want block %d row %d",
							name, n, i, bi, lo, next[0], next[1])
					}
					next[1] = hi
				}
			}
			if next[0] != len(shape)-1 || next[1] != shape[len(shape)-1] {
				t.Fatalf("%s n=%d: slabs end at block %d row %d", name, n, next[0], next[1])
			}
		}
	}
}
