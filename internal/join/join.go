// Package join implements the single-table hash join on optimistically
// compressed hash tables. The packing problem is separated into two
// sub-problems as in Section II-F: one plan packs the key columns, a
// second plan packs the payload columns. With Optimistic Splitting
// enabled, selective joins can move payloads to the cold area so that
// probe misses only touch the thin key records (Section III-B).
//
// The build and probe paths are cache-conscious: probes run as a
// two-phase staged sweep over the selection vector, and selective joins
// consult a blocked Bloom filter in a vectorized pre-pass that shrinks the
// selection vector before any table access. A partition-wise parallel
// build radix-partitions the table (core.PartTable) so each owner worker
// fills whole partitions.
package join

import (
	"encoding/binary"
	"math"
	"slices"

	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/hashtab"
	"ocht/internal/pack"
	"ocht/internal/strs"
	"ocht/internal/ussr"
	"ocht/internal/vec"
)

// PayloadCol describes one build-side payload column.
type PayloadCol struct {
	Name string
	Type vec.Type
	Dom  domain.D

	// SampleDom, when valid, enables Sample-Guided Prefix Suppression
	// (Section III-B): the hot area stores the value as an offset into
	// this (sample-derived, outlier-free) domain with code 0 marking an
	// exception, and the full value moves to the cold area. This keeps
	// hot records narrow even when outliers ruin the global min/max
	// bounds. Requires Compress and Split.
	SampleDom domain.D
}

// Options tunes the join layout.
type Options struct {
	// Selective marks joins where most probes are expected to miss: the
	// join carries a Bloom filter, and with Optimistic Splitting the
	// payload columns move to the cold area (Section III-B).
	Selective bool
	// CapacityHint pre-sizes the table.
	CapacityHint int
	// PartitionBits sets the radix-partitioning width of the build side:
	// 0 keeps one table, positive values force 2^bits partitions, and a
	// negative value takes the owner width, core.OwnerPartitionBits(Owners):
	// at least four partitions per owner, one table without owners.
	PartitionBits int
	// EstRows is read by nothing: a selective join sizes its Bloom filter
	// from the rows it built (Link, SizeBloom), never from an estimate.
	//
	// Deprecated: kept only so that callers that set it still compile.
	EstRows int64
	// Owners, when positive, declares a partition-wise parallel build on
	// that many owner workers (NewOwner, Owner.BuildPart, Adopt) in place
	// of Build calls; a selective join's Bloom filter then waits for
	// SizeBloom, which sizes it from the exact build row count. Without
	// owners the filter waits for Link, which sizes it from the hashes
	// Build kept.
	Owners int
}

// Join is a hash join: Build inserts the inner relation, Probe streams the
// outer relation and emits matching (row, record) pairs, FetchPayload
// reconstructs build-side columns for the matches. Probing is split into
// PrepareProbe (hash once per batch + Bloom pre-pass) and ProbeStaged
// (two-phase chain walk over any sub-chunk of the survivors).
type Join struct {
	Flags   core.Flags
	Schema  *core.KeySchema
	Payload []PayloadCol

	pt            *core.PartTable
	bloom         *hashtab.Bloom
	bloomDeferred bool       // selective, Bloom filter waiting for SizeBloom
	bloomHashes   []uint64   // the build's hashes while bloom is pendingBloom
	payloadPlan   *pack.Plan // compressed payloads (integer columns + codes)
	payloadOffs   []int      // direct payload offsets (vanilla mode / uncoded strings)
	payloadCode   []bool     // per column: stored as a 16-bit USSR slot code
	payloadSample []bool     // per column: sample-guided code (Section III-B)
	payloadCold   bool       // payload lives in the cold area
	codeColdOff   []int      // per coded column: cold offset of the exception value
	exceptBytes   int        // cold bytes for payload exceptions
	payloadSize   int

	// ProbeClone gives each clone a fresh handle, so clones never share
	// mutable state with the build-side handle.
	handle
}

// handle is the per-handle scratch and Bloom counters of a Join.
type handle struct {
	scratch   []uint64
	hashBuf   []uint64
	recBuf    []int32
	recIdx    []int32
	headBuf   []int32
	survivors []int32
	probePrep *core.Prepared
	gRecs     [][]int32 // FetchPayload's SplitRecs scratch: per-partition local records
	gRows     [][]int32 // and their output rows

	bloomChecked int64
	bloomDropped int64
}

func newHandle(nParts int) handle {
	return handle{gRecs: make([][]int32, nParts), gRows: make([][]int32, nParts)}
}

func (j *Join) buffers(n int) ([]uint64, []int32) {
	if len(j.hashBuf) < n {
		j.hashBuf = make([]uint64, n)
		j.recBuf = make([]int32, n)
	}
	return j.hashBuf, j.recBuf
}

// New creates a join for the given key and payload columns.
func New(flags core.Flags, keys []core.KeyCol, payload []PayloadCol, store *strs.Store, opts Options) (*Join, error) {
	schema, err := core.NewKeySchema(flags, keys, store)
	if err != nil {
		return nil, err
	}
	j := &Join{Flags: flags, Schema: schema, Payload: payload}
	j.payloadCold = flags.Split && opts.Selective

	if flags.Compress {
		var pcols []pack.Col
		j.payloadOffs = make([]int, len(payload))
		j.payloadCode = make([]bool, len(payload))
		j.payloadSample = make([]bool, len(payload))
		j.codeColdOff = make([]int, len(payload))
		strBytes := 0
		codeStrings := flags.UseUSSR && flags.Split && !j.payloadCold
		sampleCoding := flags.Split && !j.payloadCold
		for i, c := range payload {
			if c.Type != vec.Str && c.SampleDom.Valid && sampleCoding {
				// Sample-Guided Prefix Suppression: the hot code is the
				// offset+1 into the sample domain, 0 marks an outlier
				// whose full value lives in the cold area.
				card := c.SampleDom.Cardinality()
				if card > 0 && card < 1<<62 {
					j.payloadSample[i] = true
					j.payloadOffs[i] = -1
					j.codeColdOff[i] = j.exceptBytes
					j.exceptBytes += 8
					pcols = append(pcols, pack.Col{
						Name: c.Name, Type: vec.I64,
						Dom: domain.New(0, int64(card)), // +1 for code 0
					})
					continue
				}
			}
			if c.Type == vec.Str && codeStrings {
				// Section IV-F: USSR-backed payload strings stored as
				// 16-bit slot codes in the hot area; the full reference
				// moves to the cold area for exceptions (code 0).
				j.payloadCode[i] = true
				j.payloadOffs[i] = -1
				j.codeColdOff[i] = j.exceptBytes
				j.exceptBytes += 8
				pcols = append(pcols, pack.Col{Name: c.Name, Type: vec.Str, Dom: core.USSRCodeDomain})
				continue
			}
			if packable := c.Type.IsInt() && c.Type != vec.I128; !packable {
				// Uncoded strings (references), floats and 128-bit
				// integers are stored directly after the packed words at
				// their full width.
				j.payloadOffs[i] = strBytes // resolved after the plan width is known
				strBytes += c.Type.Width()
				continue
			}
			j.payloadOffs[i] = -1
			pcols = append(pcols, pack.Col{Name: c.Name, Type: c.Type, Dom: c.Dom})
		}
		j.payloadPlan, err = pack.ChoosePlan(pcols)
		if err != nil {
			return nil, err
		}
		for i := range payload {
			if j.payloadOffs[i] >= 0 {
				j.payloadOffs[i] += j.payloadPlan.RecordBytes()
			}
		}
		j.payloadSize = j.payloadPlan.RecordBytes() + strBytes
	} else {
		j.payloadOffs = make([]int, len(payload))
		for i, c := range payload {
			j.payloadOffs[i] = j.payloadSize
			j.payloadSize += c.Type.Width()
		}
	}

	hotExtra, coldExtra := j.payloadSize, j.exceptBytes
	if j.payloadCold {
		hotExtra, coldExtra = 0, j.payloadSize
	}
	cap := opts.CapacityHint
	if cap == 0 {
		cap = 1024
	}
	bits := opts.PartitionBits
	if bits < 0 {
		bits = core.OwnerPartitionBits(opts.Owners)
	}
	j.pt = core.NewPartTable(schema, hotExtra, coldExtra, cap, bits)
	// A selective join's filter is sized by the keys it will hold: the
	// spill phase's row count with owners (SizeBloom), the build's record
	// count without (Link).
	switch {
	case opts.Selective && opts.Owners > 0:
		j.bloomDeferred = true
	case opts.Selective:
		j.bloom = pendingBloom
	}
	j.handle = newHandle(j.pt.NParts())
	return j, nil
}

// Table exposes the first partition's table. With one partition
// (Bits() == 0, every join built without owners or a forced width) this
// is the whole join table; partitioned callers should use Tables().
func (j *Join) Table() *core.Table { return j.pt.Part(0) }

// Tables exposes every partition's table (footprint accounting).
func (j *Join) Tables() []*core.Table { return j.pt.Parts() }

// Bits returns the radix-partitioning width of the build side.
func (j *Join) Bits() int { return j.pt.Bits() }

// Len returns the number of build-side records across partitions.
func (j *Join) Len() int { return j.pt.Len() }

// MemoryBytes returns the total table footprint, Bloom filter included.
func (j *Join) MemoryBytes() int {
	n := j.pt.MemoryBytes()
	if j.bloom != nil {
		n += j.bloom.MemoryBytes()
	}
	return n
}

// BloomStats reports how many probe rows the Bloom pre-pass inspected and
// how many it shed before any table access, for this handle.
func (j *Join) BloomStats() (checked, dropped int64) { return j.bloomChecked, j.bloomDropped }

// ProbeClone returns a handle on the same (fully built, now immutable)
// tables for concurrent probing by another goroutine. The clone shares
// the partitioned table, Bloom filter and payload layout but owns a fresh
// key schema — and therefore fresh per-batch scratch — bound to the
// caller's store, so probe-side hashing, matching and fast/slow
// accounting never touch shared state. The join must not be Built after
// cloning.
func (j *Join) ProbeClone(store *strs.Store) *Join {
	j.linkBloom()
	clone := *j
	schema, err := core.NewKeySchema(j.Flags, j.Schema.Cols, store)
	if err != nil {
		// The same columns and flags produced a valid layout at build time.
		panic("join: ProbeClone schema: " + err.Error())
	}
	clone.Schema = schema
	clone.handle = newHandle(j.pt.NParts())
	return &clone
}

// payloadArea returns the byte area, stride and base offset where
// payloads live in partition table t.
func (j *Join) payloadArea(t *core.Table) (buf []byte, stride, base int) {
	if j.payloadCold {
		return t.RawCold(), t.ColdWidth(), t.Schema.ColdBytes()
	}
	return t.RawHot(), t.HotWidth(), t.Schema.KeyBytes()
}

// bloomAddBatch inserts the active rows' hashes into the Bloom filter.
//
//ocht:hot
func (j *Join) bloomAddBatch(hashes []uint64, rows []int32) {
	b := j.bloom
	for _, r := range rows {
		b.Add(hashes[r])
	}
}

// Build inserts the active rows of the inner relation: hash once, feed
// the Bloom filter, group the batch by radix partition, then insert and
// scatter payloads partition at a time so each insert run stays inside
// one partition's working set.
func (j *Join) Build(keyCols, payloadCols []*vec.Vector, rows []int32) {
	n := physLen(keyCols, payloadCols, rows)
	p := j.Schema.Prepare(keyCols, rows)
	hashes, recs := j.buffers(n)
	j.Schema.Hash(p, rows, hashes)
	switch {
	case j.bloom == pendingBloom:
		if len(j.bloomHashes)+len(rows) > cap(j.bloomHashes) {
			// Double: append's growth turns to 1.25x for large slices,
			// and a build of a few 100 000 rows would copy its hashes
			// many times over.
			j.bloomHashes = slices.Grow(j.bloomHashes, max(len(rows), len(j.bloomHashes)))
		}
		for _, r := range rows {
			j.bloomHashes = append(j.bloomHashes, hashes[r])
		}
	case j.bloom != nil:
		j.bloomAddBatch(hashes, rows)
	}
	pl := j.codePayload(payloadCols, rows, n)
	for pi, g := range j.pt.PartitionRows(hashes, rows) {
		if len(g) > 0 {
			j.insertPart(j.pt.Part(pi), p, hashes, g, recs, pl)
		}
	}
}

// Link ends a build: it links the inserted records into the table's
// directories (core.Table.Link), sized once for the build's length, and
// sizes and fills a selective join's Bloom filter from the hashes Build
// kept. A probe links on its own; a build that probes share ends here.
func (j *Join) Link() {
	j.pt.Link()
	j.linkBloom()
}

// pendingBloom stands in for the Bloom filter of a selective join built
// without owners until Link sizes it by the keys the build inserted; it
// holds no words and is never filled or probed.
var pendingBloom = &hashtab.Bloom{}

// linkBloom replaces a pending Bloom filter by one sized for, and filled
// with, the hashes Build kept, and drops them; it is a no-op once done and
// for every other join.
func (j *Join) linkBloom() {
	if j.bloom != pendingBloom {
		return
	}
	j.bloom = hashtab.NewBloom(len(j.bloomHashes))
	for _, h := range j.bloomHashes {
		j.bloom.Add(h)
	}
	j.bloomHashes = nil
}

// codedPayload is one batch's payload columns as the partition loop
// stores them: the plain columns, the packable ones (coded payloads
// translated to their codes) in plan order, and per column the cold
// exception source of a coded payload, or nil.
type codedPayload struct {
	cols, ints, exVec []*vec.Vector
	n                 int // physical batch length
}

// codePayload translates coded payload columns once per batch, in
// row-position space; insertPart only scatters.
func (j *Join) codePayload(payloadCols []*vec.Vector, rows []int32, n int) codedPayload {
	pl := codedPayload{cols: payloadCols, n: n}
	if j.payloadPlan == nil {
		return pl
	}
	pl.exVec = make([]*vec.Vector, len(j.Payload))
	for i := range j.Payload {
		if j.payloadOffs[i] >= 0 {
			continue
		}
		v := payloadCols[i]
		switch {
		case j.payloadCode[i]:
			// Translate references to slot codes; exceptions get
			// code 0 and their full reference in the cold area.
			codes := vec.New(vec.Str, v.Len())
			ussr.SlotCodes(v.Str, codes.Str, rows)
			pl.exVec[i] = v
			v = codes
		case j.payloadSample[i]:
			// Sample-guided code: offset+1 inside the sample domain,
			// 0 for outliers (full value in the cold area).
			sd := j.Payload[i].SampleDom
			codes := vec.New(vec.I64, v.Len())
			for _, r := range rows {
				val := v.Int64At(int(r))
				if sd.Contains(val) {
					codes.I64[r] = val - sd.Min + 1
				} else {
					codes.I64[r] = 0
				}
			}
			pl.exVec[i] = asI64(v, rows)
			v = codes
		}
		pl.ints = append(pl.ints, v)
	}
	if cap(j.scratch) < n {
		j.scratch = make([]uint64, n)
	}
	return pl
}

// insertPart is the one per-partition build step, shared by the serial
// Build and the parallel owners' BuildPart: insert rows g — all routed to
// partition table t, hashes indexed by row — and scatter their payloads
// into the new records. recs is row-indexed scratch.
func (j *Join) insertPart(t *core.Table, p *core.Prepared, hashes []uint64, g, recs []int32, pl codedPayload) {
	t.InsertBatch(p, hashes, g, recs)
	if cap(j.recIdx) < len(g) {
		j.recIdx = make([]int32, len(g))
	}
	recIdx := j.recIdx[:len(g)]
	for k, r := range g {
		recIdx[k] = recs[r]
	}
	buf, stride, base := j.payloadArea(t)
	if j.payloadPlan != nil {
		for i := range j.Payload {
			if ev := pl.exVec[i]; ev != nil {
				et := vec.I64
				if j.payloadCode[i] {
					et = vec.Str
				}
				storeDirect(t.RawCold(), t.ColdWidth(),
					t.Schema.ColdBytes()+j.codeColdOff[i], et, ev, g, recIdx)
			}
		}
		j.payloadPlan.PackRecords(pl.ints, g, buf, recIdx, stride, base, j.scratch[:pl.n])
	}
	for i, c := range j.Payload {
		off := j.payloadOffs[i]
		if off < 0 {
			continue // packed above
		}
		storeDirect(buf, stride, base+off, c.Type, pl.cols[i], g, recIdx)
	}
}

// Owner is one worker's handle on a join whose build runs partition-wise
// in parallel. In the spill phase it hashes and routes the worker's build
// batches (Route); in the owner phase it builds whole partition tables on
// its own key schema — so hashing, string matching and fast/slow counters
// stay on the worker's store — through the step the serial Build runs
// (BuildPart), and fills a private Bloom filter. Adopt installs the
// partitions and ORs the filters into the join's.
type Owner struct {
	j         *Join     // the owner's handle: private key schema, scratch and Bloom filter
	of        *Join     // the join under construction, read only
	partsRows [][]int32 // Route's per-partition grouping scratch
}

// NewOwner returns a build handle bound to store for a join declared with
// Options.Owners. It shares the join's layout and reads it only, so owners
// may be created and used concurrently; the join itself must not be built
// or probed until Adopt.
func (j *Join) NewOwner(store *strs.Store) *Owner {
	h := j.ProbeClone(store)
	h.bloom = nil // the owner's own filter, made on first use
	return &Owner{j: h, of: j, partsRows: make([][]int32, j.pt.NParts())}
}

// SizeBloom creates the deferred Bloom filter of a selective join declared
// with Options.Owners, for n build keys: the count a parallel build knows
// once its spill phase is done. It must run before any Owner.BuildPart; it
// is a no-op for joins without a deferred filter.
func (j *Join) SizeBloom(n int) {
	if j.bloomDeferred {
		j.bloom = hashtab.NewBloom(n)
		j.bloomDeferred = false
	}
}

// Route packs and hashes the active rows' keys and groups the rows by
// radix partition. Both results are owned by the handle and valid until
// the next Route or BuildPart: hashes is indexed by row, parts by
// partition.
func (o *Owner) Route(keyCols []*vec.Vector, rows []int32) (hashes []uint64, parts [][]int32) {
	j := o.j
	p := j.Schema.Prepare(keyCols, rows)
	hashes, _ = j.buffers(physLen(keyCols, nil, rows))
	j.Schema.Hash(p, rows, hashes)
	j.pt.SplitRows(hashes, rows, o.partsRows)
	return hashes, o.partsRows
}

// NewPart creates an empty partition table of the join's layout, on the
// owner's key schema, with a directory sized for hint records.
func (o *Owner) NewPart(hint int) *core.Table {
	layout := o.of.pt.Part(0)
	return core.NewTable(o.j.Schema, layout.HotExtra, layout.ColdExtra, hint)
}

// BuildPart inserts the active rows into t, a partition table from NewPart
// that every row routes to, reusing the hashes Route computed for them
// (indexed by row), and adds the hashes to the owner's Bloom filter, an
// empty twin of the join's (SizeBloom) made on first use.
func (o *Owner) BuildPart(t *core.Table, keyCols, payloadCols []*vec.Vector, hashes []uint64, rows []int32) {
	j := o.j
	n := physLen(keyCols, payloadCols, rows)
	p := j.Schema.Prepare(keyCols, rows)
	_, recs := j.buffers(n)
	if o.of.bloom != nil {
		if j.bloom == nil {
			j.bloom = o.of.bloom.Empty()
		}
		j.bloomAddBatch(hashes, rows)
	}
	j.insertPart(t, p, hashes, rows, recs, j.codePayload(payloadCols, rows, n))
}

// Adopt installs owner-built partition tables — parts[p] built by the
// owner of partition p, one per partition of the join's width — as the
// join's table, and ORs every owner's Bloom filter into the join's. The
// owners must be done building. Probes share the tables from here on, so
// any table an owner left unlinked is linked now, on the caller's goroutine;
// owners that link their own (Table.Link) spread that work instead.
func (j *Join) Adopt(parts []*core.Table, owners []*Owner) {
	if len(parts) != j.pt.NParts() {
		panic("join: Adopt needs one table per partition")
	}
	j.pt = core.NewPartTableFromParts(j.Schema, parts)
	j.pt.Link()
	for _, o := range owners {
		if o.j.bloom != nil {
			j.bloom.Union(o.j.bloom)
		}
	}
}

// PrepareProbe readies a probe batch: one Prepare+Hash sweep, then the
// Bloom pre-pass that sheds rows whose key cannot be in the build side.
// It returns the surviving selection vector (in probe-row order), valid
// until the next PrepareProbe/Build on this handle. Bloom filters have no
// false negatives, so a shed row is a proven miss: selective joins can
// treat it as unmatched without ever touching the table.
func (j *Join) PrepareProbe(keyCols []*vec.Vector, rows []int32) []int32 {
	j.linkBloom()
	n := physLen(keyCols, nil, rows)
	p := j.Schema.Prepare(keyCols, rows)
	hashes, _ := j.buffers(n)
	j.Schema.Hash(p, rows, hashes)
	j.probePrep = p
	if j.bloom != nil {
		j.survivors = j.bloom.Filter(hashes, rows, j.survivors[:0])
		j.bloomChecked += int64(len(rows))
		j.bloomDropped += int64(len(rows) - len(j.survivors))
	} else {
		j.survivors = append(j.survivors[:0], rows...)
	}
	return j.survivors
}

// ProbeStaged walks the chains for rows (a sub-chunk of the selection
// vector returned by the last PrepareProbe) in the two-phase staged
// sweep, appending matching (probe row, build record) pairs to the given
// slices. Records are partition-encoded; pass them back to FetchPayload
// unchanged.
func (j *Join) ProbeStaged(rows []int32, outRows, outRecs []int32) ([]int32, []int32) {
	if cap(j.headBuf) < len(rows) {
		j.headBuf = make([]int32, len(rows))
	}
	return j.pt.ProbeChainsStaged(j.probePrep, j.hashBuf, rows, j.headBuf[:len(rows)], outRows, outRecs)
}

// Probe matches the active rows of the outer relation against the table
// and returns the matching (probe row, build record) pairs: PrepareProbe
// plus a single ProbeStaged sweep over the survivors.
func (j *Join) Probe(keyCols []*vec.Vector, rows []int32) (matchRows, matchRecs []int32) {
	surv := j.PrepareProbe(keyCols, rows)
	return j.ProbeStaged(surv, nil, nil)
}

// FetchPayload reconstructs payload column ci of the given build records
// into out at positions rows (tuple reconstruction after the probe).
// recs are partition-encoded records as returned by the probe.
func (j *Join) FetchPayload(ci int, recs []int32, out *vec.Vector, rows []int32) {
	j.pt.SplitRecs(recs, rows, j.gRecs, j.gRows)
	for pi, precs := range j.gRecs {
		if len(precs) > 0 {
			j.fetchPayloadPart(j.pt.Part(pi), ci, precs, out, j.gRows[pi])
		}
	}
}

func (j *Join) fetchPayloadPart(t *core.Table, ci int, recs []int32, out *vec.Vector, rows []int32) {
	buf, stride, base := j.payloadArea(t)
	off := j.payloadOffs[ci]
	if off < 0 {
		// Packed column: find its plan index.
		pi := 0
		for i := 0; i < ci; i++ {
			if j.payloadOffs[i] < 0 {
				pi++
			}
		}
		j.payloadPlan.UnpackColumn(pi, buf, recs, stride, base, out, rows)
		switch {
		case j.payloadCode != nil && j.payloadCode[ci]:
			// Slot codes back to references: base + slot*8, or the cold
			// exception reference for code 0 (Section IV-F).
			cold := t.RawCold()
			coldOff := t.Schema.ColdBytes() + j.codeColdOff[ci]
			for i, r := range rows {
				if code := uint16(out.Str[r]); code != 0 {
					out.Str[r] = ussr.RefForSlot(code)
				} else {
					pos := int(recs[i])*t.ColdWidth() + coldOff
					out.Str[r] = vec.StrRef(binary.LittleEndian.Uint64(cold[pos:]))
				}
			}
		case j.payloadSample != nil && j.payloadSample[ci]:
			// Sample-guided codes back to values; 0 fetches the cold
			// outlier (Section III-B).
			sd := j.Payload[ci].SampleDom
			cold := t.RawCold()
			coldOff := t.Schema.ColdBytes() + j.codeColdOff[ci]
			for i, r := range rows {
				code := out.Int64At(int(r))
				if code != 0 {
					out.SetInt64(int(r), sd.Min+code-1)
				} else {
					pos := int(recs[i])*t.ColdWidth() + coldOff
					out.SetInt64(int(r), int64(binary.LittleEndian.Uint64(cold[pos:])))
				}
			}
		}
		return
	}
	loadDirect(buf, stride, base+off, j.Payload[ci].Type, out, recs, rows)
}

// asI64 widens an integer vector to int64 at the active rows.
func asI64(v *vec.Vector, rows []int32) *vec.Vector {
	if v.Typ == vec.I64 {
		return v
	}
	out := vec.New(vec.I64, v.Len())
	for _, r := range rows {
		out.I64[r] = v.Int64At(int(r))
	}
	return out
}

func physLen(a, b []*vec.Vector, rows []int32) int {
	n := 0
	for _, c := range a {
		if l := c.Len(); l > n {
			n = l
		}
	}
	for _, c := range b {
		if l := c.Len(); l > n {
			n = l
		}
	}
	for _, r := range rows {
		if int(r)+1 > n {
			n = int(r) + 1
		}
	}
	return n
}

// storeDirect writes column v of the given rows at byte offset off of
// records recIdx, at the type's full width.
func storeDirect(buf []byte, stride, off int, t vec.Type, v *vec.Vector, rows, recIdx []int32) {
	le := binary.LittleEndian
	for i, r := range rows {
		b := buf[int(recIdx[i])*stride+off:]
		switch t {
		case vec.Str:
			le.PutUint64(b, uint64(v.Str[r]))
		case vec.I128:
			le.PutUint64(b, v.I128[r].Lo)
			le.PutUint64(b[8:], uint64(v.I128[r].Hi))
		case vec.I64:
			le.PutUint64(b, uint64(v.I64[r]))
		case vec.F64:
			le.PutUint64(b, math.Float64bits(v.F64[r]))
		case vec.I32:
			le.PutUint32(b, uint32(v.I32[r]))
		case vec.I16:
			le.PutUint16(b, uint16(v.I16[r]))
		case vec.I8:
			b[0] = byte(v.I8[r])
		case vec.Bool:
			b[0] = 0
			if v.Bool[r] {
				b[0] = 1
			}
		}
	}
}

// loadDirect is storeDirect's inverse: records recs into out at rows.
func loadDirect(buf []byte, stride, off int, t vec.Type, out *vec.Vector, recs, rows []int32) {
	le := binary.LittleEndian
	for i, rec := range recs {
		b := buf[int(rec)*stride+off:]
		r := rows[i]
		switch t {
		case vec.Str:
			out.Str[r] = vec.StrRef(le.Uint64(b))
		case vec.I128:
			out.I128[r].Lo = le.Uint64(b)
			out.I128[r].Hi = int64(le.Uint64(b[8:]))
		case vec.I64:
			out.I64[r] = int64(le.Uint64(b))
		case vec.F64:
			out.F64[r] = math.Float64frombits(le.Uint64(b))
		case vec.I32:
			out.I32[r] = int32(le.Uint32(b))
		case vec.I16:
			out.I16[r] = int16(le.Uint16(b))
		case vec.I8:
			out.I8[r] = int8(b[0])
		case vec.Bool:
			out.Bool[r] = b[0] != 0
		}
	}
}
