package exec

import (
	"time"

	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/join"
	"ocht/internal/vec"
)

// JoinKind selects the join semantics.
type JoinKind uint8

// Join kinds.
const (
	Inner     JoinKind = iota
	Semi               // EXISTS: emit probe rows with at least one match
	Anti               // NOT EXISTS: emit probe rows with no match
	LeftOuter          // emit all probe rows; NULL payload on misses
)

// HashJoin joins Probe (outer/left) against Build (inner/right) on equal
// keys, materializing the build side into an optimistically compressed
// hash table. Payload lists the build columns carried to the output.
//
// The probe pipeline is cache-conscious: each probe batch is hashed once
// (PrepareProbe), a Bloom pre-pass sheds proven misses for semi and anti
// joins (join.Options.Selective), and the surviving selection vector is
// walked in a staged two-phase sweep over the radix-partitioned build
// tables.
type HashJoin struct {
	Build, Probe Op
	BuildKeys    []string
	ProbeKeys    []string
	Payload      []string
	Kind         JoinKind
	// Residual, when set on a Semi or Anti join, is a further condition
	// on each key match: a probe row counts as matched only when some
	// pair of it and a build record with an equal key selects, NULL
	// selecting nothing. It is bound over PairMeta — the probe columns,
	// then the payload columns, as an inner join emits them — so Payload
	// lists the build columns it reads.
	Residual *Expr
	// PartitionBits sets the build side's radix-partitioning width:
	// negative (the constructor default) picks it adaptively from the
	// build-side cardinality bound, 0 forces one monolithic table, and
	// positive values force 2^bits partitions.
	PartitionBits int

	// prebuilt, when set, is a join whose hash table the template already
	// built — serially, or on the parallel driver's workers. Open then
	// skips the build side entirely and probes a per-worker clone of the
	// shared read-only table.
	prebuilt *join.Join

	meta       []Meta
	buildIdx   []int
	probeIdx   []int
	payloadIdx []int
	payloadCod []keyCoding // per payload: how it is stored (payloadCoding)
	j          *join.Join

	// Emission state for chunking inner/outer matches.
	curBatch  *vec.Batch
	matchRows []int32
	matchRecs []int32
	matchPos  int
	sel       []int32
	nullSel   []int32 // dropNullKeyRows scratch, reused across batches
	matched   []bool  // per physical row, reused across batches
	keyVecs   []*vec.Vector
	// probeKeyBufs holds the per-key materialization scratch for encoded
	// probe batches (see startBatch); valid across the chunked sweeps of
	// one batch, rewritten by the next.
	probeKeyBufs []*vec.Vector
	out          vec.Batch
	outBufs      []*vec.Vector
	fetchBufs    []*vec.Vector // per payload: coded fetch scratch when the coded type differs
	// Residual pair batch: the outBufs columns the residual reads (need),
	// the unmarked pairs of one vector, and the selection scratch.
	need               []bool
	pair               vec.Batch
	pairRows, pairRecs []int32
	pairSel            []int32

	// Match-list scratch reused across probe chunks, and emitChunk's
	// (row, record, null-row) gather scratch — no per-Next allocations.
	mRows, mRecs                 []int32
	emitRows, emitRecs, emitNull []int32

	// Probe chunking state: the Bloom-surviving rows of curBatch still to
	// be probed, plus running multiplicity totals sizing the next chunk.
	probeRows    []int32
	probePos     int
	probedRows   int64
	matchedTotal int64
}

// One staged probe sweep is uninterruptible: it walks every matching
// chain entry before returning, so a high-multiplicity join (many build
// rows per key) could emit millions of matches between cancellation
// polls and blow the match-list allocation. Probe calls are therefore
// sized from the multiplicity observed so far to yield about
// probeTargetMatches matches, with a small bootstrap chunk while the
// first estimate is collected. The chunks (and the multiplicity
// estimate) are taken over post-Bloom survivors — rows the pre-pass
// sheds never reach a sweep, so they must not inflate its budget.
const (
	probeBootstrapRows = 64
	probeTargetMatches = 16 * vec.Size
)

// probeChunkRows picks how many surviving probe rows the next staged
// sweep gets.
func (h *HashJoin) probeChunkRows(remaining int) int {
	n := remaining
	if h.probedRows == 0 {
		n = probeBootstrapRows
	} else if avg := float64(h.matchedTotal) / float64(h.probedRows); avg > 1 {
		if limit := int(probeTargetMatches / avg); limit < n {
			n = limit
		}
	}
	if n < probeBootstrapRows {
		n = probeBootstrapRows
	}
	if n > remaining {
		n = remaining
	}
	return n
}

// matchedMask returns a cleared per-row mask of at least n entries.
func (h *HashJoin) matchedMask(n int) []bool {
	if len(h.matched) < n {
		h.matched = make([]bool, n)
	}
	m := h.matched[:n]
	for i := range m {
		m[i] = false
	}
	return m
}

// NewHashJoin constructs a join with adaptive radix partitioning.
// DefaultPartitionBits is the PartitionBits the operator constructors
// assign: -1 picks the radix width adaptively from cardinality
// estimates, 0 forces monolithic tables, positive pins 2^bits. The
// benchmark CLIs override it to compare widths engine-wide.
var DefaultPartitionBits = -1

func NewHashJoin(kind JoinKind, probe, build Op, probeKeys, buildKeys, payload []string) *HashJoin {
	return &HashJoin{
		Build: build, Probe: probe,
		BuildKeys: buildKeys, ProbeKeys: probeKeys,
		Payload: payload, Kind: kind,
		PartitionBits: DefaultPartitionBits,
	}
}

func colIndex(meta []Meta, name string) int {
	for i, m := range meta {
		if m.Name == name {
			return i
		}
	}
	panic("exec: join references unknown column " + name)
}

// Meta implements Op: probe columns, then payload columns (for Inner and
// LeftOuter).
func (h *HashJoin) Meta() []Meta {
	if h.meta != nil {
		return h.meta
	}
	switch h.Kind {
	case Semi, Anti:
		h.meta = append(h.meta, h.Probe.Meta()...)
	default:
		h.meta = h.PairMeta()
		if h.Kind == LeftOuter {
			for i := len(h.Probe.Meta()); i < len(h.meta); i++ {
				h.meta[i].Nullable = true
			}
		}
	}
	return h.meta
}

// PairMeta is the schema of one (probe row, build record) pair: the probe
// columns, then the payload columns. An inner join emits it; a semi or
// anti join's Residual is bound over it.
func (h *HashJoin) PairMeta() []Meta {
	pm := append([]Meta(nil), h.Probe.Meta()...)
	bm := h.Build.Meta()
	for _, name := range h.Payload {
		pm = append(pm, bm[colIndex(bm, name)])
	}
	return pm
}

// MaxRows implements Op.
func (h *HashJoin) MaxRows() int64 {
	switch h.Kind {
	case Semi, Anti:
		return h.Probe.MaxRows()
	case LeftOuter:
		return satMul(h.Probe.MaxRows(), h.Build.MaxRows())
	default:
		return satMul(h.Probe.MaxRows(), h.Build.MaxRows())
	}
}

// Open implements Op: drains the build side into the hash table. When a
// prebuilt join is attached, only the probe side is opened and the shared
// build table is probed through a worker-private clone. On the parallel
// driver a large build side runs on the workers (parallelBuild).
func (h *HashJoin) Open(qc *QCtx) {
	var sp spine
	partitionWise := false
	if h.prebuilt == nil {
		sp, partitionWise = h.parallelBuild(qc)
		h.Build.Open(qc)
	}
	h.Probe.Open(qc)
	h.Meta()
	bm := h.Build.Meta()
	pm := h.Probe.Meta()
	h.probeIdx = h.probeIdx[:0]
	for _, k := range h.ProbeKeys {
		h.probeIdx = append(h.probeIdx, colIndex(pm, k))
	}
	h.payloadIdx, h.payloadCod = h.payloadIdx[:0], h.payloadCod[:0]
	for _, p := range h.Payload {
		pi := colIndex(bm, p)
		c, _ := payloadCoding(bm[pi])
		h.payloadIdx = append(h.payloadIdx, pi)
		h.payloadCod = append(h.payloadCod, c)
	}
	switch {
	case h.prebuilt != nil:
		// Clone with this worker's store so probe-side fast/slow counters
		// and scratch buffers stay private; the underlying tables are shared
		// read-only and were already registered by the template, so they are
		// not registered again here.
		h.j = h.prebuilt.ProbeClone(qc.Store)
	case partitionWise:
		h.layout(qc, bm, pm, len(qc.par.workers))
		h.buildPartitionWise(qc, sp)
	default:
		h.layout(qc, bm, pm, 0)
		for _, t := range h.j.Tables() {
			qc.register(t)
		}
		h.build(qc)
	}
	bufMeta := h.meta
	if h.Residual != nil {
		if h.Kind != Semi && h.Kind != Anti {
			panic("exec: a join residual needs a Semi or Anti join")
		}
		h.Residual.intern(qc.Store)
		bufMeta = h.PairMeta()
		h.need = make([]bool, len(bufMeta))
		h.Residual.markCols(h.need)
	}
	h.outBufs = make([]*vec.Vector, len(bufMeta))
	for i, m := range bufMeta {
		h.outBufs[i] = vec.New(m.Type, vec.Size)
	}
	h.fetchBufs = make([]*vec.Vector, len(h.payloadIdx))
	h.curBatch = nil
	h.matchPos = 0
	h.probeRows, h.probePos = nil, 0
	h.probedRows, h.matchedTotal = 0, 0
}

// parallelBuild runs the build side's parallel phases when the join opens
// on the parallel driver (worker contexts never fan out again): every
// large aggregation on the build spine is filled on the workers, bottom-up
// (fillSpine). It reports whether the plain pipeline left above them — or
// the whole build side, when it has no aggregation — is large enough to be
// built partition-wise; otherwise the serial drain builds from it.
func (h *HashJoin) parallelBuild(qc *QCtx) (spine, bool) {
	if qc.par == nil {
		return spine{}, false
	}
	sp, pipeline, filled := fillSpine(qc, h.Build)
	if pipeline || filled {
		qc.Stats.Count(CtrParallelJoinBuilds, 1)
	}
	return sp, pipeline
}

// layout resolves the build key columns and creates the empty join table;
// owners is join.Options.Owners, the worker count of a partition-wise
// build (which, like HashAgg.setup, raises the width to at least four
// partitions per worker) or 0 for a serial one.
func (h *HashJoin) layout(qc *QCtx, bm, pm []Meta, owners int) {
	h.buildIdx = h.buildIdx[:0]
	for _, k := range h.BuildKeys {
		h.buildIdx = append(h.buildIdx, colIndex(bm, k))
	}

	// Key columns: the stored keys take the build-side domains. The
	// compressed probe comparison filters probe values outside them
	// (Section II-D).
	var keyCols []core.KeyCol
	for i, bi := range h.buildIdx {
		m := bm[bi]
		kc := core.KeyCol{Name: h.BuildKeys[i], Type: m.Type, Dom: m.Dom}
		switch {
		case m.Type == vec.F64:
			kc.Type, kc.Dom = vec.I64, domain.Unknown // keyCoding's doubleKey
		case m.Type != pm[h.probeIdx[i]].Type:
			kc.Type = vec.I64 // integers of two widths meet as I64
		}
		keyCols = append(keyCols, kc)
	}
	var payloadCols []join.PayloadCol
	for _, pi := range h.payloadIdx {
		c, dom := payloadCoding(bm[pi])
		payloadCols = append(payloadCols, join.PayloadCol{Name: bm[pi].Name, Type: c.typ, Dom: dom})
	}
	hint := h.Build.MaxRows()
	if hint > 1<<12 {
		hint = 1 << 12 // the directory grows with the table
	}
	// Small build sides stay uncompressed, mirroring the paper's
	// optimizer gating for cache-resident hash tables (Section V-A).
	flags := qc.Flags
	if flags.Compress && h.Build.MaxRows() < compressMinBuildRows {
		flags.Compress = false
	}
	var err error
	h.j, err = join.New(flags, keyCols, payloadCols, qc.Store, join.Options{
		Selective:     h.Kind == Semi || h.Kind == Anti,
		CapacityHint:  int(hint),
		PartitionBits: h.PartitionBits,
		EstRows:       h.Build.MaxRows(),
		Owners:        owners,
	})
	if err != nil {
		panic(err)
	}
}

// payloadCoding is how build column m is stored as join payload: in its
// key coding, so a nullable column keeps its NULLs as codes and the table
// needs no NULL mask. 128-bit integers have no NULL code; no plan joins a
// nullable one.
func payloadCoding(m Meta) (keyCoding, domain.D) {
	return nullCoding(m.Type, m.Dom, m.Nullable && m.Type != vec.I128)
}

// build drains the build side into the join table.
func (h *HashJoin) build(qc *QCtx) {
	bb := h.newBuildBatch()
	for {
		qc.checkCancel()
		b := h.Build.Next(qc)
		if b == nil {
			return
		}
		rows := bb.code(h, b)
		if len(rows) == 0 {
			continue
		}
		start := time.Now()
		h.j.Build(bb.keys, bb.payload, rows)
		qc.Stats.Add(StatLookup, time.Since(start))
	}
}

// buildBatch is one build batch as the join table takes it, plus the
// scratch its columns are coded into; the serial build and each worker
// of a parallel build own one.
type buildBatch struct {
	keys, payload   []*vec.Vector // coded keys and plain payloads of the batch
	keyBufs, plBufs []*vec.Vector // per-slot scratch, reused across batches
	sel             []int32       // dropNullKeyRows scratch
}

func (h *HashJoin) newBuildBatch() *buildBatch {
	nk, np := len(h.buildIdx), len(h.payloadIdx)
	return &buildBatch{
		keys: make([]*vec.Vector, nk), payload: make([]*vec.Vector, np),
		keyBufs: make([]*vec.Vector, nk), plBufs: make([]*vec.Vector, np),
	}
}

// code binds build batch b and returns the rows that enter the table.
// SQL NULL keys never join, so their rows are dropped. The hash-table
// kernels (core.KeySchema, join.Build) read raw slices, so keys and
// payloads are brought into their coding here at the operator boundary —
// only the surviving rows, into bb's scratch.
func (bb *buildBatch) code(h *HashJoin, b *vec.Batch) []int32 {
	for i, bi := range h.buildIdx {
		bb.keys[i] = b.Vecs[bi]
	}
	for i, pi := range h.payloadIdx {
		bb.payload[i] = b.Vecs[pi]
	}
	var rows []int32
	rows, bb.sel = dropNullKeyRows(b.Rows(), bb.keys, bb.sel)
	if len(rows) == 0 {
		return rows
	}
	phys := physOf(b)
	for i, kc := range h.j.Schema.Cols {
		bb.keys[i] = keyCoding{typ: kc.Type}.code(bb.keys[i], rows, &bb.keyBufs[i], phys)
	}
	for i, c := range h.payloadCod {
		bb.payload[i] = c.code(bb.payload[i], rows, &bb.plBufs[i], phys)
	}
	return rows
}

func dropNullKeyRows(rows []int32, keys []*vec.Vector, sel []int32) ([]int32, []int32) {
	any := false
	for _, k := range keys {
		if k.Nulls != nil || k.Typ == vec.Str {
			any = true
		}
	}
	if !any {
		return rows, sel
	}
	sel = sel[:0]
	for _, r := range rows {
		null := false
		for _, k := range keys {
			if k.IsNull(int(r)) || (k.Typ == vec.Str && k.StrRefAt(int(r)) == nullStrRef) {
				null = true
				break
			}
		}
		if !null {
			sel = append(sel, r)
		}
	}
	return sel, sel
}

// Next implements Op.
func (h *HashJoin) Next(qc *QCtx) *vec.Batch {
	switch h.Kind {
	case Semi, Anti:
		return h.nextSemiAnti(qc)
	default:
		return h.nextInner(qc)
	}
}

// startBatch readies a fresh probe batch: bind key vectors, drop NULL
// keys, hash once and run the Bloom pre-pass. It returns the surviving
// selection vector (owned by the join handle, valid until the next
// PrepareProbe).
func (h *HashJoin) startBatch(qc *QCtx, b *vec.Batch) []int32 {
	rows := b.Rows()
	if h.keyVecs == nil {
		h.keyVecs = make([]*vec.Vector, len(h.probeIdx))
	}
	for i, pi := range h.probeIdx {
		h.keyVecs[i] = b.Vecs[pi]
	}
	probeRows, nsel := dropNullKeyRows(rows, h.keyVecs, h.nullSel)
	h.nullSel = nsel
	// Late materialization at the probe boundary: hashing and key checks
	// read raw slices, so encoded key vectors are decoded — NULL-surviving
	// rows only — into per-slot scratch that stays valid across the staged
	// probe chunks of this batch.
	if h.probeKeyBufs == nil {
		h.probeKeyBufs = make([]*vec.Vector, len(h.probeIdx))
	}
	phys := physOf(b)
	for i, kc := range h.j.Schema.Cols {
		h.keyVecs[i] = keyCoding{typ: kc.Type}.code(h.keyVecs[i], probeRows, &h.probeKeyBufs[i], phys)
	}
	start := time.Now()
	survivors := h.j.PrepareProbe(h.keyVecs, probeRows)
	qc.Stats.Add(StatLookup, time.Since(start))
	return survivors
}

// nextInner emits (probe row, payload) pairs, chunking when one probe
// batch yields more than a vector of matches. For LeftOuter, unmatched
// probe rows are emitted with NULL payloads.
func (h *HashJoin) nextInner(qc *QCtx) *vec.Batch {
	for {
		qc.checkCancel()
		if h.curBatch != nil && h.matchPos < len(h.matchRows) {
			return h.emitChunk(qc)
		}
		if h.curBatch != nil && h.probePos < len(h.probeRows) {
			// Sweep a bounded slice of the surviving rows. A row's matches
			// all come from its own sweep, so per-chunk outer-join
			// bookkeeping stays correct.
			chunk := h.probeRows[h.probePos : h.probePos+h.probeChunkRows(len(h.probeRows)-h.probePos)]
			h.probePos += len(chunk)
			start := time.Now()
			mr, mc := h.j.ProbeStaged(chunk, h.mRows[:0], h.mRecs[:0])
			qc.Stats.Add(StatLookup, time.Since(start))
			h.probedRows += int64(len(chunk))
			h.matchedTotal += int64(len(mr))
			if h.Kind == LeftOuter {
				matched := h.matchedMask(physOf(h.curBatch))
				for _, r := range mr {
					matched[r] = true
				}
				for _, r := range chunk {
					if !matched[r] {
						mr = append(mr, r)
						mc = append(mc, -1) // NULL payload marker
					}
				}
			}
			h.mRows, h.mRecs = mr, mc
			if len(mr) == 0 {
				continue
			}
			h.matchRows, h.matchRecs = mr, mc
			h.matchPos = 0
			continue
		}
		b := h.Probe.Next(qc)
		if b == nil {
			return nil
		}
		survivors := h.startBatch(qc, b)
		h.curBatch = b
		h.probeRows = survivors
		h.probePos = 0
		h.matchRows, h.matchRecs = nil, nil
		h.matchPos = 0
		rows := b.Rows()
		if h.Kind == LeftOuter && len(survivors) < len(rows) {
			// Rows shed before any table sweep — NULL keys and Bloom
			// rejects — are proven misses; queue their NULL emissions for
			// the outer join up front.
			inProbe := h.matchedMask(physOf(b))
			for _, r := range survivors {
				inProbe[r] = true
			}
			mr, mc := h.mRows[:0], h.mRecs[:0]
			for _, r := range rows {
				if !inProbe[r] {
					mr = append(mr, r)
					mc = append(mc, -1)
				}
			}
			h.mRows, h.mRecs = mr, mc
			h.matchRows, h.matchRecs = mr, mc
		}
	}
}

func (h *HashJoin) emitChunk(qc *QCtx) *vec.Batch {
	n := len(h.matchRows) - h.matchPos
	if n > vec.Size {
		n = vec.Size
	}
	mr := h.matchRows[h.matchPos : h.matchPos+n]
	mc := h.matchRecs[h.matchPos : h.matchPos+n]
	h.matchPos += n
	h.fillPairs(h.curBatch, mr, mc, nil)
	h.out.Vecs = h.outBufs
	h.out.Sel = nil
	h.out.N = n
	return &h.out
}

// fillPairs writes the pairs (mr[i], mc[i]) of probe batch b densely into
// outBufs: the probe columns gathered at rows mr, then the payload of
// records mc, where record -1 (an outer miss) gives NULL. need, when not
// nil, marks the only columns to fill.
func (h *HashJoin) fillPairs(b *vec.Batch, mr, mc []int32, need []bool) {
	n := len(mr)
	np := len(h.Probe.Meta())
	for ci, src := range b.Vecs[:np] {
		if need != nil && !need[ci] {
			continue
		}
		dst := h.outBufs[ci]
		if src.Nulls != nil && dst.Nulls == nil {
			dst.Nulls = make([]bool, dst.Len())
		}
		gather(dst, src, mr)
	}
	// Fetch build payloads, restoring their NULL codes; rows with record -1
	// (outer misses) get NULL.
	h.emitRows = h.emitRows[:0]
	h.emitRecs = h.emitRecs[:0]
	h.emitNull = h.emitNull[:0]
	for i, rec := range mc {
		if rec < 0 {
			h.emitNull = append(h.emitNull, int32(i))
			continue
		}
		h.emitRows = append(h.emitRows, int32(i))
		h.emitRecs = append(h.emitRecs, rec)
	}
	for pi, c := range h.payloadCod {
		if need != nil && !need[np+pi] {
			continue
		}
		dst := h.outBufs[np+pi]
		if dst.Nulls != nil {
			for i := range dst.Nulls {
				dst.Nulls[i] = false
			}
		}
		coded := dst
		if c.typ != dst.Typ {
			coded = scratchVec(&h.fetchBufs[pi], c.typ, vec.Size)
		}
		h.j.FetchPayload(pi, h.emitRecs, coded, h.emitRows)
		c.restore(coded, dst, n)
		for _, i := range h.emitNull {
			dst.SetNull(int(i))
		}
	}
}

// nextSemiAnti emits probe rows filtered by match existence, reusing the
// probe batch with a narrowed selection (no copying). Bloom-shed rows are
// proven misses (the filter has no false negatives), so they simply never
// reach the table sweep and stay unmatched.
func (h *HashJoin) nextSemiAnti(qc *QCtx) *vec.Batch {
	for {
		qc.checkCancel()
		b := h.Probe.Next(qc)
		if b == nil {
			return nil
		}
		rows := b.Rows()
		survivors := h.startBatch(qc, b)
		matched := h.matchedMask(physOf(b))
		if len(survivors) > 0 {
			start := time.Now()
			mr, mc := h.j.ProbeStaged(survivors, h.mRows[:0], h.mRecs[:0])
			qc.Stats.Add(StatLookup, time.Since(start))
			h.mRows, h.mRecs = mr, mc
			if h.Residual != nil {
				h.residualMatch(qc, b, mr, mc, matched)
			} else {
				for _, r := range mr {
					matched[r] = true
				}
			}
		}
		h.sel = h.sel[:0]
		for _, r := range rows {
			if matched[r] == (h.Kind == Semi) {
				h.sel = append(h.sel, r)
			}
		}
		if len(h.sel) == 0 {
			continue
		}
		h.out.Vecs = h.curVecs(b)
		h.out.Sel = h.sel
		h.out.N = len(h.sel)
		return &h.out
	}
}

func (h *HashJoin) curVecs(b *vec.Batch) []*vec.Vector { return b.Vecs }

// residualMatch marks the probe rows of batch b that have a key match
// (mr[i], mc[i]) the residual selects. It evaluates the residual over
// pair batches of up to a vector: each gathers the probe columns and
// fetches the payload the residual reads, for the pairs whose probe row
// is not marked yet — a row needs only one selected pair.
//
//ocht:hot
func (h *HashJoin) residualMatch(qc *QCtx, b *vec.Batch, mr, mc []int32, matched []bool) {
	for i := 0; i < len(mr); {
		rows, recs := h.pairRows[:0], h.pairRecs[:0]
		for ; i < len(mr) && len(rows) < vec.Size; i++ {
			if !matched[mr[i]] {
				rows = append(rows, mr[i])
				recs = append(recs, mc[i])
			}
		}
		h.pairRows, h.pairRecs = rows, recs
		if len(rows) == 0 {
			return
		}
		h.fillPairs(b, rows, recs, h.need)
		h.pair.Vecs, h.pair.Sel, h.pair.N = h.outBufs, nil, len(rows)
		h.pairSel = h.Residual.Select(qc, &h.pair, h.pair.Rows(), h.pairSel)
		for _, p := range h.pairSel {
			matched[rows[p]] = true
		}
	}
}

// gather copies src values at the given physical rows densely into
// dst[0:len(rows)]. The caller pre-sizes dst.Nulls when src carries a
// NULL mask.
//
//ocht:hot
func gather(dst, src *vec.Vector, rows []int32) {
	if src.Nulls != nil {
		for i, r := range rows {
			dst.Nulls[i] = src.Nulls[r]
		}
	} else if dst.Nulls != nil {
		for i := range rows {
			dst.Nulls[i] = false
		}
	}
	if src.Enc != vec.EncPlain {
		// Encoded probe columns decode per gathered row — this is where
		// late materialization pays off: only rows that matched the join
		// reach here.
		if src.Typ == vec.Str {
			for i, r := range rows {
				dst.Str[i] = src.StrRefAt(int(r))
			}
		} else {
			for i, r := range rows {
				dst.SetInt64(i, src.Int64At(int(r)))
			}
		}
		return
	}
	switch src.Typ {
	case vec.Bool:
		for i, r := range rows {
			dst.Bool[i] = src.Bool[r]
		}
	case vec.I8:
		for i, r := range rows {
			dst.I8[i] = src.I8[r]
		}
	case vec.I16:
		for i, r := range rows {
			dst.I16[i] = src.I16[r]
		}
	case vec.I32:
		for i, r := range rows {
			dst.I32[i] = src.I32[r]
		}
	case vec.I64:
		for i, r := range rows {
			dst.I64[i] = src.I64[r]
		}
	case vec.I128:
		for i, r := range rows {
			dst.I128[i] = src.I128[r]
		}
	case vec.F64:
		for i, r := range rows {
			dst.F64[i] = src.F64[r]
		}
	case vec.Str:
		for i, r := range rows {
			dst.Str[i] = src.Str[r]
		}
	}
}
