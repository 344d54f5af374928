package core

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
// underlying Tables speak, used for payload scatter/gather) and GLOBAL
// encoded indices `local<<bits | part` (what probes hand to callers, so a
// match fits in one int32 like before).

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

// probeOne is ProbeChainsStaged's single-word fast path (Section II-F's
// "execute the join as if there were just one column"): one load, one
// compare per record, from the heads phase one snapshotted.
//
//ocht:hot
func probeOne[W word](pt *PartTable, p *Prepared, hashes []uint64, rows []int32, heads []int32, outRows, outRecs []int32) ([]int32, []int32) {
	w0 := p.words[0]
	for i, r := range rows {
		if !p.inDom[r] {
			continue
		}
		part := pt.PartOf(hashes[r])
		t := pt.parts[part]
		key := W(w0[r])
		hw := t.hotWidth
		for rec := heads[i]; rec >= 0; rec = t.next[rec] {
			if loadWord[W](t.hot[int(rec)*hw:]) == key {
				outRows = append(outRows, r)
				outRecs = append(outRecs, pt.EncodeRec(part, rec))
			}
		}
	}
	return outRows, outRecs
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

// ProbeChainsStaged is the two-phase batched probe: phase one snapshots
// every active row's bucket head into the heads scratch — independent
// loads over the partition directories that the hardware prefetcher can
// overlap — and phase two walks the chains from those snapshots, which
// are exact because a built table is immutable during probing. Appends
// every matching (probe row, encoded global record) pair to the provided
// slices and returns them. heads must hold at least len(rows) entries.
//
//ocht:hot
func (pt *PartTable) ProbeChainsStaged(p *Prepared, hashes []uint64, rows []int32, heads []int32, outRows, outRecs []int32) ([]int32, []int32) {
	pt.Link()
	parts := pt.parts
	for i, r := range rows {
		h := hashes[r]
		t := parts[pt.PartOf(h)]
		heads[i] = t.heads[h&t.mask]
	}
	if pt.Schema.oneWord {
		if pt.Schema.plan.WordBits == 32 {
			return probeOne[uint32](pt, p, hashes, rows, heads, outRows, outRecs)
		}
		return probeOne[uint64](pt, p, hashes, rows, heads, outRows, outRecs)
	}
	for i, r := range rows {
		h := hashes[r]
		part := pt.PartOf(h)
		t := parts[part]
		row := int(r)
		for rec := heads[i]; rec >= 0; rec = t.next[rec] {
			if t.matchOne(p, row, rec) {
				outRows = append(outRows, r)
				outRecs = append(outRecs, pt.EncodeRec(part, rec))
			}
		}
	}
	return outRows, outRecs
}
