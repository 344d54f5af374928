package core

import "math"

// Radix-partitioned hash tables (DESIGN.md, "Cache-conscious execution").
//
// PartTable splits one logical table into 2^bits partitions routed by the
// top bits of the key hash. Partitions exist for the partition-wise
// parallel builds: each partition is a unit of work that one owner worker
// fills whole, so owners never share a table. A table built on one
// goroutine is one partition; the paper keeps a hash table cache-resident
// by shrinking its records (DGPS, hot/cold splitting, the USSR), not by
// cutting it up. The bucket directory keeps using the low hash bits and
// the Bloom pre-pass remixes the hash, so the three consumers of one hash
// stay independent.
//
// Records are addressed two ways: per-partition LOCAL indices (what the
// underlying Tables and their candidate loop speak) and GLOBAL encoded
// indices `local<<bits | part` (what probes hand to callers, so a match
// fits in one int32). A probe walks each partition's candidates in turn.

// MaxPartitionBits caps the radix fan-out at 64 partitions; beyond that
// the per-partition directories stop paying for their fixed overhead.
const MaxPartitionBits = 6

// OwnerPartitionBits is the radix width of a table that owner workers
// fill partition-wise: the smallest that gives each owner at least four
// whole partitions to balance across, up to MaxPartitionBits. Without
// owners (owners <= 0) the table is one partition.
func OwnerPartitionBits(owners int) int {
	bits := 0
	for owners > 0 && 1<<bits < 4*owners && bits < MaxPartitionBits {
		bits++
	}
	return bits
}

// PartTable is a radix-partitioned hash table: 2^bits Tables sharing one
// KeySchema, routed by the top bits of the key hash.
type PartTable struct {
	Schema *KeySchema
	bits   uint
	parts  []*Table

	// partRows is PartitionRows' grouping scratch. Inserting is
	// single-threaded per PartTable: a serial build fills it on one
	// goroutine, and a parallel build has each owner worker fill whole
	// partition Tables that NewPartTableFromParts assembles afterwards.
	// Callers that route rows concurrently against one shared PartTable
	// (probe clones, the spill phase of a parallel join build) pass their
	// own scratch to SplitRows and SplitRecs.
	partRows [][]int32
}

// NewPartTable creates a partitioned table; capacityHint sizes the whole
// logical table and is split across partitions. bits outside [0,
// MaxPartitionBits] are clamped.
func NewPartTable(schema *KeySchema, hotExtra, coldExtra, capacityHint, bits int) *PartTable {
	if bits < 0 {
		bits = 0
	}
	if bits > MaxPartitionBits {
		bits = MaxPartitionBits
	}
	n := 1 << bits
	pt := &PartTable{
		Schema:   schema,
		bits:     uint(bits),
		parts:    make([]*Table, n),
		partRows: make([][]int32, n),
	}
	hint := capacityHint >> bits
	if hint < 16 {
		hint = 16
	}
	for i := range pt.parts {
		pt.parts[i] = NewTable(schema, hotExtra, coldExtra, hint)
	}
	return pt
}

// NewPartTableFromParts assembles a partitioned table from 2^bits
// already-built partition Tables. The partition-wise parallel builds (group
// tables and join tables alike) use it to install tables each owner worker
// built with its own (layout-identical) KeySchema: record addressing,
// emission, probing and footprint accounting then work exactly as if the
// partitions had been built here, while key matching inside each partition
// stayed on its owner's string store. len(parts) must be a power of two <=
// 2^MaxPartitionBits.
func NewPartTableFromParts(schema *KeySchema, parts []*Table) *PartTable {
	bits := 0
	for 1<<bits < len(parts) {
		bits++
	}
	if 1<<bits != len(parts) || bits > MaxPartitionBits {
		panic("core: NewPartTableFromParts needs a power-of-two partition count")
	}
	return &PartTable{
		Schema:   schema,
		bits:     uint(bits),
		parts:    parts,
		partRows: make([][]int32, len(parts)),
	}
}

// Bits returns the radix bit count.
func (pt *PartTable) Bits() int { return int(pt.bits) }

// NParts returns the partition count.
func (pt *PartTable) NParts() int { return len(pt.parts) }

// Part returns partition i.
func (pt *PartTable) Part(i int) *Table { return pt.parts[i] }

// Parts returns all partitions (footprint registration).
func (pt *PartTable) Parts() []*Table { return pt.parts }

// PartOf routes a key hash to its partition: the top bits, disjoint from
// the low bits the bucket directories consume.
func (pt *PartTable) PartOf(h uint64) uint32 { return uint32(h >> (64 - pt.bits)) }

// EncodeRec packs a (partition, local record) pair into a global record.
func (pt *PartTable) EncodeRec(part uint32, local int32) int32 {
	return local<<pt.bits | int32(part)
}

// DecodeRec splits a global record into its partition and local record.
func (pt *PartTable) DecodeRec(grec int32) (part uint32, local int32) {
	return uint32(grec) & uint32(len(pt.parts)-1), grec >> pt.bits
}

// Len returns the total number of records across partitions.
func (pt *PartTable) Len() int {
	n := 0
	for _, t := range pt.parts {
		n += t.n
	}
	return n
}

// HotAreaBytes sums the partitions' hot working sets.
func (pt *PartTable) HotAreaBytes() int {
	n := 0
	for _, t := range pt.parts {
		n += t.HotAreaBytes()
	}
	return n
}

// ColdAreaBytes sums the partitions' cold areas.
func (pt *PartTable) ColdAreaBytes() int {
	n := 0
	for _, t := range pt.parts {
		n += t.ColdAreaBytes()
	}
	return n
}

// Link links every partition's pending records (Table.Link).
func (pt *PartTable) Link() {
	for _, t := range pt.parts {
		t.Link()
	}
}

// MemoryBytes sums the partitions' footprints.
func (pt *PartTable) MemoryBytes() int { return pt.HotAreaBytes() + pt.ColdAreaBytes() }

// PartitionRows groups the active rows by partition into reused scratch:
// the local-partitioning pass of a radix build. The returned slices are
// valid until the next call and are indexed by partition.
func (pt *PartTable) PartitionRows(hashes []uint64, rows []int32) [][]int32 {
	pt.SplitRows(hashes, rows, pt.partRows)
	return pt.partRows
}

// SplitRows is PartitionRows into caller-owned scratch: out[p] receives
// the active rows routed to partition p, in input order. out has one entry
// per partition and is refilled on every call.
//
//ocht:hot
func (pt *PartTable) SplitRows(hashes []uint64, rows []int32, out [][]int32) {
	if pt.bits == 0 {
		out[0] = append(out[0][:0], rows...)
		return
	}
	for p := range out {
		out[p] = out[p][:0]
	}
	for _, r := range rows {
		p := pt.PartOf(hashes[r])
		out[p] = append(out[p], r)
	}
}

// SplitRecs groups global records by partition, the inverse of the
// EncodeRec a probe or an insertion log applied: recs[p] receives the
// local records of partition p and pos[p] the matching entries of rows, in
// input order. recs and pos are caller-owned scratch with one entry per
// partition, refilled on every call, because probe clones share one
// PartTable.
//
//ocht:hot
func (pt *PartTable) SplitRecs(grecs, rows []int32, recs, pos [][]int32) {
	if pt.bits == 0 {
		recs[0] = append(recs[0][:0], grecs...)
		pos[0] = append(pos[0][:0], rows...)
		return
	}
	for p := range recs {
		recs[p], pos[p] = recs[p][:0], pos[p][:0]
	}
	for i, grec := range grecs {
		part, local := pt.DecodeRec(grec)
		recs[part] = append(recs[part], local)
		pos[part] = append(pos[part], rows[i])
	}
}

// ProbeChainsStaged is the batched probe, the candidate loop every probe
// runs. Phase one snapshots each active row's bucket head, grouped by
// partition (independent directory loads the prefetcher can overlap), and
// drops rows outside the key domain. Phase two walks each partition's
// chains a round at a time (Table.walk, with heads as scratch); the
// snapshots are exact because a built table is immutable while probed.
// Every matching (probe row, encoded global record) pair is appended to
// the provided slices, in row order (rows ascend, as every selection
// vector) and each row's in chain order, and the slices are returned.
// heads must hold at least len(rows) entries.
//
//ocht:hot
func (pt *PartTable) ProbeChainsStaged(p *Prepared, hashes []uint64, rows []int32, heads []int32, outRows, outRecs []int32) ([]int32, []int32) {
	pt.Link()
	// Partition part's candidates start at first[part]; one partition's at 0.
	var first [1<<MaxPartitionBits + 1]int32
	if pt.bits > 0 {
		for _, r := range rows {
			first[pt.PartOf(hashes[r])+1]++
		}
	}
	for part := range pt.parts {
		first[part+1] += first[part]
	}
	cands, _ := p.scratch(len(rows))
	at, lo, hi := first, int32(math.MaxInt32), int32(0) // and the candidate rows' range
	for _, r := range rows {
		h := hashes[r]
		part := pt.PartOf(h)
		t := pt.parts[part]
		if c := t.heads[h&t.mask]; c >= 0 && p.inDomain(r) {
			cands[at[part]] = cand{r, c}
			at[part]++
			lo, hi = min(lo, r), max(hi, r)
		}
	}
	p.hits = p.hits[:0]
	for part, t := range pt.parts {
		t.walk(p, cands[first[part]:at[part]], heads, nil, pt.bits, int32(part))
	}
	if len(p.hits) == 0 {
		return outRows, outRecs
	}
	// The rounds find each row's matches in chain order; a counting pass
	// over the matched rows puts them in row order.
	start := grow(p.count[:0], int(hi-lo)+1)
	p.count = start
	clear(start)
	for _, h := range p.hits {
		start[h.row-lo]++
	}
	sum := int32(len(outRows))
	for i, c := range start {
		start[i], sum = sum, sum+c
	}
	outRows, outRecs = grow(outRows, len(p.hits)), grow(outRecs, len(p.hits))
	for _, h := range p.hits {
		d := start[h.row-lo]
		start[h.row-lo]++
		outRows[d], outRecs[d] = h.row, h.rec
	}
	return outRows, outRecs
}
