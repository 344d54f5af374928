package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stats collects the per-primitive time breakdown reported in Figure 6:
// scan+decompress, hash computation, bucket lookup + key check,
// aggregation, and everything else.
//
// A Stats value is safe for concurrent use. Under parallel execution each
// worker owns a private Stats (so the hot Add path never contends) and the
// driver folds them into the query's Stats with Merge; the buckets then
// hold summed CPU time across workers, which can exceed wall-clock time.
type Stats struct {
	mu       sync.Mutex
	buckets  map[string]time.Duration
	counters map[string]int64
}

// Breakdown bucket names.
const (
	StatScan      = "scan+decompress"
	StatHash      = "hash computation"
	StatLookup    = "bucket lookup + key check"
	StatAggregate = "aggregate update"
	StatPack      = "pack/unpack"
	StatOther     = "remaining primitives"
)

// Counter names: the compressed-scan accounting behind the benchmark's
// exec.blocks_skipped / exec.bytes_decompressed metrics and
// TestZoneSkipBlocks. BlocksRead and BlocksSkipped partition the blocks a
// scan considered; BytesDecompressed counts bytes actually written by
// decompression (zero-copy encoded views decompress nothing but their
// per-block dictionary reference tables).
const (
	CtrBlocksRead        = "blocks read"
	CtrBlocksSkipped     = "blocks zone-skipped"
	CtrBytesDecompressed = "bytes decompressed"
)

// Partition-wise parallel aggregation counters. AggRowsSpilled counts the
// rows routed through phase-1 spill buffers; PartitionWiseAggs counts
// frontier aggregations that took the owner-computes path instead of the
// agg.Merge path (tests assert on it to pin which path ran).
const (
	CtrAggRowsSpilled    = "agg rows spilled"
	CtrPartitionWiseAggs = "partition-wise aggs"
)

// Parallel join build counters, their join-side twins: ParallelJoinBuilds
// counts join build sides that ran on the parallel driver's workers —
// plain build pipelines built partition-wise, and build sides ending in an
// aggregation whose frontier the workers filled (that fill also counts
// under the aggregation counters above) — and JoinRowsSpilled the build
// rows the partition-wise builds routed through phase-1 spill buffers.
const (
	CtrParallelJoinBuilds = "parallel join builds"
	CtrJoinRowsSpilled    = "join rows spilled"
)

// NewStats creates an empty breakdown.
func NewStats() *Stats {
	return &Stats{buckets: map[string]time.Duration{}, counters: map[string]int64{}}
}

// Count adds n to the named counter.
func (s *Stats) Count(name string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.counters[name] += n
	s.mu.Unlock()
}

// Counter returns the accumulated value of a counter.
func (s *Stats) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Add charges d to the named bucket.
func (s *Stats) Add(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.buckets[name] += d
	s.mu.Unlock()
}

// Merge folds every bucket and counter of o into s. o is left unchanged.
func (s *Stats) Merge(o *Stats) {
	if s == nil || o == nil {
		return
	}
	o.mu.Lock()
	snapshot := make(map[string]time.Duration, len(o.buckets))
	for k, v := range o.buckets {
		snapshot[k] = v
	}
	ctrs := make(map[string]int64, len(o.counters))
	for k, v := range o.counters {
		ctrs[k] = v
	}
	o.mu.Unlock()
	s.mu.Lock()
	for k, v := range snapshot {
		s.buckets[k] += v
	}
	for k, v := range ctrs {
		s.counters[k] += v
	}
	s.mu.Unlock()
}

// Get returns the accumulated time of a bucket.
func (s *Stats) Get(name string) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buckets[name]
}

// Snapshot returns a copy of every bucket. It is safe to call while
// workers may still be flushing into the Stats (the server's /metrics
// endpoint reads live queries this way) and the returned map is owned by
// the caller.
func (s *Stats) Snapshot() map[string]time.Duration {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]time.Duration, len(s.buckets))
	for k, v := range s.buckets {
		out[k] = v
	}
	return out
}

// Total sums all buckets.
func (s *Stats) Total() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var t time.Duration
	for _, d := range s.buckets {
		t += d
	}
	return t
}

// String renders the breakdown sorted by descending time.
func (s *Stats) String() string {
	type kv struct {
		k string
		v time.Duration
	}
	var items []kv
	s.mu.Lock()
	for k, v := range s.buckets {
		items = append(items, kv{k, v})
	}
	s.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].v > items[j].v })
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%-28s %12v\n", it.k, it.v)
	}
	return b.String()
}
