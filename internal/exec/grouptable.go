package exec

import (
	"math"
	"time"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/i128"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// groupTable is the executor's one aggregation primitive: a
// radix-partitioned, optimistically compressed table of groups plus the
// steps every aggregation route repeats — resolve the key and aggregate
// layouts, code key vectors, find-or-insert groups while logging
// their first-occurrence order, fold argument vectors into aggregate
// state, emit. The routes are thin feeders that differ only in where rows
// come from and how they fold:
//
//   - HashAgg.build: child batches, folded by Update;
//   - the parallel frontier fill (partagg.go): each worker folds its
//     morsels by Update into a private table that it flushes as partial
//     records (coded keys, hash, one Result value per spec), and one owner
//     per radix partition folds every worker's partials by agg.Fold;
//   - MergeAgg: shard partial rows, folded by agg.Fold.
type groupTable struct {
	meta  []Meta // output columns: nKeys group keys, then the aggregates
	nKeys int
	keys  []keyCoding // per key: coded type (meta's, or I64 when widened) and NULL code

	specs       []agg.Spec // internal layouts (AVG -> SUM + COUNT, nullable SUM/MIN/MAX -> + COUNT)
	specOf      []aggMap   // output aggregate -> internal spec(s)
	argNullable []bool     // per spec: NULL inputs must be skipped by fold

	schema *core.KeySchema
	ag     *agg.Aggregator
	pt     *core.PartTable
	store  *strs.Store

	// memo resolves dictionary-coded keys to group records without
	// coding, hashing or probing them. It serves the feeders that fill a
	// one-partition table batch by batch (add); memoOK is false for a
	// table owners fill partition-wise and for any non-string key.
	memo   codeMemo
	memoOK bool

	// Per-batch scratch, all row-indexed: the key vectors as the feeder
	// evaluated them (rawKeys), the coded key vectors (and the buffers
	// encoded or nullable keys are decoded into, active rows only), key
	// hashes, and each row's partition-local group record. Partitions own
	// disjoint row sets, so one recs buffer serves all of them.
	rawKeys []*vec.Vector
	keyVecs []*vec.Vector
	keyBufs []*vec.Vector
	hashes  []uint64
	recs    []int32
	subset  []int32

	// order logs each group's encoded (partition, record) in insertion
	// order. Emission walks it so result order stays the first-occurrence
	// order of the input stream — independent of the radix width and of
	// the flag-dependent hash that routes rows to partitions.
	order     []int32
	emit      int           // orders already emitted
	chunkRecs [][]int32     // SplitRecs scratch: per-partition local records of an order chunk
	chunkRows [][]int32     // and their positions inside the chunk
	tmp       []*vec.Vector // per output aggregate: AVG sum / type-conversion temporary
	cnt       *vec.Vector   // AVG count temporary
	out       vec.Batch
}

type aggMap struct {
	spec  int // internal spec index (sum for AVG)
	cnt   int // COUNT(arg) spec of AVG and of a nullable SUM/MIN/MAX, else -1
	isAvg bool
}

// aggInput is one output aggregate as a feeder declares it.
type aggInput struct {
	fn       agg.Func // Avg included
	spec     agg.Spec // InType, InDom and MaxRows of the input; resolve fills Func
	nullable bool     // the input may carry NULLs: a SUM/MIN/MAX over it is NULL where its COUNT is 0
}

// identRows is the dense row list 0..vec.Size-1 (read-only), for feeders
// whose rows are positions in their own scratch vectors.
var identRows = func() []int32 {
	rows := make([]int32, vec.Size)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}()

// scratchVec returns *bufp if it is a vector of typ with room for n
// values, else replaces it with a fresh one.
func scratchVec(bufp **vec.Vector, typ vec.Type, n int) *vec.Vector {
	if buf := *bufp; buf == nil || buf.Typ != typ || buf.Len() < n {
		*bufp = vec.New(typ, n)
	}
	return *bufp
}

// resolve fixes the physical layout: key columns with NULL codes folded
// into their domain, the internal aggregate specs (AVG becomes SUM +
// COUNT, Table I, and a SUM/MIN/MAX over a nullable input gets a hidden
// COUNT of it), the key schema and the aggregator. meta describes the
// output columns (nKeys keys first), ins the aggregates behind
// meta[nKeys:].
func (g *groupTable) resolve(flags core.Flags, store *strs.Store, meta []Meta, nKeys int, ins []aggInput) {
	*g = groupTable{meta: meta, nKeys: nKeys, store: store}
	keyCols := make([]core.KeyCol, nKeys)
	g.keys = make([]keyCoding, nKeys)
	for i, k := range meta[:nKeys] {
		typ, dom := k.Type, k.Dom
		if k.Type == vec.F64 {
			// The key schema packs and hashes integers and string refs
			// only: DOUBLE keys enter it as their 64-bit patterns
			// (keyCoding.code) and are restored at emission.
			typ, dom = vec.I64, domain.Unknown
		}
		g.keys[i], dom = nullCoding(typ, dom, k.Nullable)
		keyCols[i] = core.KeyCol{Name: k.Name, Type: g.keys[i].typ, Dom: dom}
	}

	mk := func(in aggInput, f agg.Func) int {
		in.spec.Func = f
		g.specs = append(g.specs, in.spec)
		g.argNullable = append(g.argNullable, in.nullable)
		return len(g.specs) - 1
	}
	for _, in := range ins {
		m := aggMap{cnt: -1, isAvg: in.fn == Avg}
		switch {
		case m.isAvg:
			m.spec = mk(in, agg.Sum)
			m.cnt = mk(in, agg.Count)
		case in.nullable && in.fn != agg.Count:
			m.spec = mk(in, in.fn)
			m.cnt = mk(in, agg.Count)
		default:
			m.spec = mk(in, in.fn)
		}
		g.specOf = append(g.specOf, m)
	}

	var err error
	g.schema, err = core.NewKeySchema(flags, keyCols, store)
	if err != nil {
		panic(err)
	}
	g.ag = agg.NewAggregator(flags, g.specs)
}

// alloc creates the (empty) 2^bits-partition table for about hint groups,
// registers it with the query's footprint accounting and sizes the batch
// scratch. It follows resolve. bits is 0 unless owner workers fill the
// table partition-wise (HashAgg.setup).
func (g *groupTable) alloc(qc *QCtx, hint int64, bits int) {
	if hint > 1<<12 {
		hint = 1 << 12 // the directory grows with the table
	}
	g.pt = core.NewPartTable(g.schema, g.ag.HotBytes, g.ag.ColdBytes, int(hint), bits)
	for _, t := range g.pt.Parts() {
		qc.register(t)
	}
	g.memo = newCodeMemo(g.nKeys)
	g.memoOK = bits == 0 && g.nKeys > 0
	for _, k := range g.keys {
		g.memoOK = g.memoOK && k.typ == vec.Str
	}
	g.rawKeys = make([]*vec.Vector, g.nKeys)
	g.keyVecs = make([]*vec.Vector, g.nKeys)
	g.keyBufs = make([]*vec.Vector, g.nKeys)
	g.reserve(vec.Size)
	g.subset = make([]int32, 0, vec.Size)
	g.chunkRecs = make([][]int32, g.pt.NParts())
	g.chunkRows = make([][]int32, g.pt.NParts())
}

// reserve grows the row-indexed scratch, the memo's included, to a
// batch's physical length.
func (g *groupTable) reserve(phys int) {
	if phys > len(g.hashes) {
		g.hashes = make([]uint64, phys)
		g.recs = make([]int32, phys)
		g.memo.combo = make([]int32, phys)
		g.memo.codes = make([]int32, phys)
	}
}

// keyCoding is how one column enters a hash table, the one coding group
// keys, join keys and join payloads share: the type its coded vectors have
// and, for a nullable column, the code a NULL becomes. The table then
// stores NULLs as values and needs no NULL mask.
type keyCoding struct {
	typ      vec.Type
	nullable bool  // rows may carry NULLs (join keys never do: they are dropped)
	nullCode int64 // NULL code of a non-string column; strings use the null reference
}

// nullCoding codes a column of type typ and domain dom, returning the
// coded domain. A NULL becomes the value one past the domain's maximum,
// or an improbable sentinel when the domain is unknown (for a DOUBLE, the
// value whose bits are that sentinel). A narrow integer type that cannot
// hold the code is coded as I64. Strings keep their type: arithmetic never
// produces one, and NULL becomes the null reference.
func nullCoding(typ vec.Type, dom domain.D, nullable bool) (keyCoding, domain.D) {
	c := keyCoding{typ: typ, nullable: nullable, nullCode: math.MinInt64} // no remapping
	if !nullable || typ == vec.Str {
		return c, dom
	}
	if dom.Valid && dom.Max < math.MaxInt64 {
		c.nullCode = dom.Max + 1
		dom = domain.New(dom.Min, c.nullCode)
	} else {
		c.nullCode = math.MinInt64 + 1
	}
	// A code outside the range of a narrow type (any code, for Bool) would
	// alias a real value once stored in the coded vector.
	if w := typ.Bits(); typ == vec.Bool || w < 64 && !domain.ForType(w).Contains(c.nullCode) {
		c.typ = vec.I64
	}
	return c, dom
}

// code brings key vector v into the coding at the given rows, into *bufp
// when a copy is needed: encoded vectors are decoded (the key schema hashes
// raw slices), DOUBLEs become their doubleKey bit pattern, narrower
// integers are widened to typ, and NULLs become their code. A plain
// non-nullable vector that already has the coded type passes through.
func (c keyCoding) code(v *vec.Vector, rows []int32, bufp **vec.Vector, phys int) *vec.Vector {
	if v.Typ == c.typ && !c.nullable {
		return ensurePlain(v, rows, bufp, phys)
	}
	out := scratchVec(bufp, c.typ, phys)
	switch v.Typ {
	case vec.Str:
		if v.Nulls == nil {
			v.MaterializeRowsInto(out, rows)
			out.Nulls = nil
			break
		}
		// A NULL row's dictionary code must not intern its entry.
		for _, r := range rows {
			if v.Nulls[r] {
				out.Str[r] = nullStrRef
			} else {
				out.Str[r] = v.StrRefAt(int(r))
			}
		}
	case vec.F64:
		for _, r := range rows {
			switch {
			case c.typ == vec.F64: // a payload keeps its bits, -0 included
				out.F64[r] = v.F64[r]
				if v.IsNull(int(r)) {
					out.F64[r] = math.Float64frombits(uint64(c.nullCode))
				}
			case v.IsNull(int(r)):
				out.I64[r] = c.nullCode
			default:
				out.I64[r] = doubleKey(v.F64[r])
			}
		}
	default:
		switch out.Typ {
		case vec.I64:
			v.IntRowsInto(rows, out.I64)
		case v.Typ:
			v.MaterializeRowsInto(out, rows)
			out.Nulls = nil // NULLs become codes below
		default: // narrowing: no plan codes a key this way
			for _, r := range rows {
				out.SetInt64(int(r), v.Int64At(int(r)))
			}
		}
		if v.Nulls != nil {
			for _, r := range rows {
				if v.Nulls[r] {
					out.SetInt64(int(r), c.nullCode)
				}
			}
		}
	}
	return out
}

// restore is code's inverse on the dense rows [0, n): it writes the coded
// values into out, of the column's own type (coded may be out itself),
// and marks the NULL codes in out's NULL mask.
func (c keyCoding) restore(coded, out *vec.Vector, n int) {
	if coded != out {
		for i := 0; i < n; i++ {
			if out.Typ == vec.F64 {
				out.F64[i] = math.Float64frombits(uint64(coded.I64[i]))
			} else {
				out.SetInt64(i, coded.I64[i])
			}
		}
	}
	if !c.nullable {
		return
	}
	if out.Nulls == nil {
		out.Nulls = make([]bool, out.Len())
	}
	for i := 0; i < n; i++ {
		switch coded.Typ {
		case vec.Str:
			out.Nulls[i] = coded.Str[i] == nullStrRef
		case vec.F64:
			out.Nulls[i] = math.Float64bits(coded.F64[i]) == uint64(c.nullCode)
		default:
			out.Nulls[i] = coded.Int64At(i) == c.nullCode
		}
	}
}

// doubleKey is the key coding of a DOUBLE: the hash-table key kernels
// pack and hash integers and string references only, so grouping and join
// keys enter them as 64-bit patterns, with -0 and +0 one key.
func doubleKey(f float64) int64 {
	if f == 0 {
		return 0
	}
	return int64(math.Float64bits(f))
}

// codeKeys codes the feeder's key vectors (g.rawKeys) at the given rows
// into g.keyVecs, then packs and hashes them (hashKeys).
func (g *groupTable) codeKeys(st *Stats, rows []int32, phys int) *core.Prepared {
	for i, k := range g.keys {
		g.keyVecs[i] = k.code(g.rawKeys[i], rows, &g.keyBufs[i], phys)
	}
	return g.hashKeys(st, rows)
}

// hashKeys packs the batch's coded key vectors (g.keyVecs) and hashes
// them into g.hashes.
func (g *groupTable) hashKeys(st *Stats, rows []int32) *core.Prepared {
	p := g.schema.Prepare(g.keyVecs, rows)
	start := time.Now()
	g.schema.Hash(p, rows, g.hashes)
	st.Add(StatHash, time.Since(start))
	return p
}

// insertInto finds or creates the group of each given row in t — one of
// g's partitions, or a partition table an owner worker builds on g's
// schema — leaving its record in g.recs[row], and initializes the
// aggregate state of new groups.
//
//ocht:hot
func (g *groupTable) insertInto(st *Stats, t *core.Table, p *core.Prepared, rows []int32) {
	start := time.Now()
	_, newRecs := t.FindOrInsert(p, g.hashes, rows, g.recs)
	st.Add(StatLookup, time.Since(start))
	g.ag.Init(t, newRecs)
}

// fold updates every aggregate of the given rows' groups (g.recs, in t)
// with the rows' argument values, one plain vector per spec.
//
//ocht:hot
func (g *groupTable) fold(st *Stats, t *core.Table, rows []int32, args []*vec.Vector) {
	for si := range g.specs {
		arg := args[si]
		updateRows := rows
		if g.argNullable[si] {
			// SQL semantics: NULL inputs do not contribute.
			updateRows = g.nonNull(arg, rows)
		}
		start := time.Now()
		g.ag.Update(t, si, g.recs, updateRows, arg)
		st.Add(StatAggregate, time.Since(start))
	}
}

// foldPartials folds partial values, one plain vector per spec, into the
// aggregates of the given rows' groups (g.recs, in t). A NULL partial — a
// shard's SUM or MIN over no values — contributes nothing.
//
//ocht:hot
func (g *groupTable) foldPartials(st *Stats, t *core.Table, rows []int32, vals []*vec.Vector) {
	for si, v := range vals {
		start := time.Now()
		g.ag.Fold(t, si, g.recs, g.nonNull(v, rows), v)
		st.Add(StatAggregate, time.Since(start))
	}
}

// nonNull returns the rows at which v is not NULL: rows itself when v has
// no NULL mask, else a selection in g.subset.
//
//ocht:hot
func (g *groupTable) nonNull(v *vec.Vector, rows []int32) []int32 {
	if v.Nulls == nil {
		return rows
	}
	g.subset = g.subset[:0]
	for _, r := range rows {
		if !v.Nulls[r] {
			g.subset = append(g.subset, r)
		}
	}
	return g.subset
}

// add folds a batch whose key vectors the feeder evaluated into
// g.rawKeys, and whose aggregate arguments are args, into g's table. The
// code memo resolves what rows it can first: only the first row of each
// combined code it has no record for is coded, hashed and found or
// inserted, in row order, so the table and its group order are what they
// would be without the memo, and the later rows with that code get its
// record before the fold.
func (g *groupTable) add(st *Stats, rows []int32, phys int, args []*vec.Vector) {
	miss, memoised := rows, false
	if g.memoOK {
		miss, memoised = g.memo.lookup(g.rawKeys, g.keys, rows, g.recs)
	}
	var p *core.Prepared
	if len(miss) > 0 {
		p = g.codeKeys(st, miss, phys)
	}
	g.insert(st, p, miss)
	if memoised {
		g.memo.record(miss, g.recs)
		if hits := len(rows) - len(miss); hits > 0 {
			debugAssertMemoHits(g, rows, miss)
			st.Count(CtrAggCodeHits, int64(hits))
		}
	}
	g.fold(st, g.pt.Part(0), rows, args)
}

// insert finds or creates the group of each row in miss — rows whose
// group record g.recs does not hold yet: all of them, unless the code memo
// resolved some — in g's table, one partition, as every table filled on
// one goroutine is. New groups are logged in creation order, the
// first-occurrence order of the input stream.
func (g *groupTable) insert(st *Stats, p *core.Prepared, miss []int32) {
	t := g.pt.Part(0)
	n := int32(t.Len())
	if len(miss) > 0 {
		g.insertInto(st, t, p, miss)
	}
	for ; n < int32(t.Len()); n++ {
		g.order = append(g.order, n)
	}
}

// loadKey gathers key column ci of the split chunk, NULL-coded as stored.
func (g *groupTable) loadKey(ci int, out *vec.Vector) {
	for pi, recs := range g.chunkRecs {
		if len(recs) > 0 {
			g.pt.Part(pi).LoadKey(ci, recs, out, g.chunkRows[pi])
		}
	}
}

// result gathers one internal aggregate of the split chunk.
func (g *groupTable) result(spec int, out *vec.Vector) {
	for pi, recs := range g.chunkRecs {
		if len(recs) > 0 {
			g.ag.Result(g.pt.Part(pi), spec, recs, out, g.chunkRows[pi])
		}
	}
}

// next emits the next chunk of groups in insertion order: keys with their
// NULL codes restored to SQL NULLs, aggregates finalized to the declared
// output types, NULL where their COUNT is 0. A scalar aggregate (no keys)
// over no rows emits one row: its counts 0, every other aggregate NULL.
func (g *groupTable) next() *vec.Batch {
	n := min(len(g.order)-g.emit, vec.Size)
	scalarEmpty := n == 0 && g.emit == 0 && g.nKeys == 0 && g.pt.Len() == 0
	if n <= 0 && !scalarEmpty {
		return nil
	}
	if g.out.Vecs == nil {
		g.out.Vecs = make([]*vec.Vector, len(g.meta))
		for i, m := range g.meta {
			g.out.Vecs[i] = vec.New(m.Type, vec.Size)
		}
		g.tmp = make([]*vec.Vector, len(g.specOf))
	}
	g.out.Sel = nil
	if scalarEmpty {
		for i, m := range g.meta {
			if m.Nullable {
				g.out.Vecs[i].SetNull(0)
			} else {
				g.out.Vecs[i].SetInt64(0, 0) // COUNT and COUNT(*), the only non-nullable ones
			}
		}
		g.emit, g.out.N = 1, 1
		return &g.out
	}
	g.pt.SplitRecs(g.order[g.emit:g.emit+n], identRows[:n], g.chunkRecs, g.chunkRows)

	for ci, k := range g.meta[:g.nKeys] {
		out := g.out.Vecs[ci]
		coded := out
		if g.keys[ci].typ != k.Type {
			coded = scratchVec(&g.keyBufs[ci], vec.I64, vec.Size)
		}
		g.loadKey(ci, coded)
		g.keys[ci].restore(coded, out, n)
	}

	for oi, m := range g.specOf {
		out := g.out.Vecs[g.nKeys+oi]
		got := g.ag.ResultType(m.spec)
		var cnt *vec.Vector
		if m.cnt >= 0 {
			cnt = scratchVec(&g.cnt, vec.I64, vec.Size)
			g.result(m.cnt, cnt)
		}
		switch {
		case m.isAvg:
			sum := scratchVec(&g.tmp[oi], got, vec.Size)
			g.result(m.spec, sum)
			for i := 0; i < n; i++ {
				if c := cnt.I64[i]; c == 0 {
					out.F64[i] = 0
				} else {
					out.F64[i] = sumAsF64(sum, i) / float64(c)
				}
			}
		case out.Typ == got:
			g.result(m.spec, out)
		default:
			// Storage kind differs from the declared output type (e.g. an
			// optimistic 128-bit sum emitted where vanilla declared I64, or
			// vice versa): convert through a temporary.
			tmp := scratchVec(&g.tmp[oi], got, vec.Size)
			g.result(m.spec, tmp)
			for i := 0; i < n; i++ {
				if out.Typ == vec.I128 {
					out.I128[i] = i128.FromInt64(tmp.I64[i])
				} else {
					out.I64[i] = tmp.I128[i].Int64()
				}
			}
		}
		if cnt != nil && g.meta[g.nKeys+oi].Nullable {
			if out.Nulls == nil {
				out.Nulls = make([]bool, out.Len())
			}
			for i := 0; i < n; i++ {
				out.Nulls[i] = cnt.I64[i] == 0
			}
		}
	}

	g.emit += n
	g.out.N = n
	return &g.out
}

func sumAsF64(v *vec.Vector, i int) float64 {
	if v.Typ == vec.I64 {
		return float64(v.I64[i])
	}
	x := v.I128[i]
	if x.IsInt64() {
		// float64(Lo) alone would round a small negative sum's low word up
		// to 2^64 and cancel it against Hi.
		return float64(x.Int64())
	}
	return float64(x.Hi)*math.Pow(2, 64) + float64(x.Lo)
}

// memoMaxSlots bounds a code memo's combined code range: one int32 per
// combination, 256 KiB at most, so the array stays cache-resident.
const memoMaxSlots = 1 << 16

// memoMissFloor is how many more rows than four times its hits a view may
// miss before its memo is cut off: a view's first batch misses whole, and
// a dictionary of a few thousand combinations misses as many rows before
// its hits take over, while a view of near-unique keys misses on.
const memoMissFloor = 2048

// codeMemo is a group table's per-view memo from dictionary codes to group
// records (DESIGN.md, "The code memo"). While every key of a batch arrives
// as an EncDict vector with a view identity (DictID), a row's codes
// combine in mixed radix — a key's radix is its dictionary length, plus
// one NULL slot when the key is nullable — into one index of slots, which
// holds the group record plus one of the first row that combination
// found, or 0 (-1 while the batch that found it is being inserted). A row
// with a record skips key coding, hashing and the find-or-insert. The
// memo holds codes and records only, never dictionary bytes or code
// tables; it describes one identity tuple (ids) and is dropped on a new
// one, on a table reset, or with the table.
type codeMemo struct {
	ids     []uint64 // per key: the DictID the slots describe, 0 when dropped
	stride  []int32  // per key: the weight of its code in a combined code
	nulls   []int32  // per key: its NULL code (its dictionary length), or -1 when not nullable
	slots   []int32  // combined code -> group record + 1, or 0 for none yet
	filled  []int32  // the combined codes set in slots, for the drop
	combo   []int32  // row-indexed: the batch's combined codes (sized by groupTable.reserve)
	codes   []int32  // row-indexed: bit-packed codes decoded for combine
	miss    []int32  // the batch's first row of each combined code without a record
	repeats []int32  // the batch's later rows of those codes

	// hits and misses count the rows of the current view; off is set when
	// the view is not memoised: its range exceeds memoMaxSlots, or it kept
	// missing (memoMissFloor).
	hits, misses int
	off          bool
}

func newCodeMemo(nKeys int) codeMemo {
	return codeMemo{ids: make([]uint64, nKeys), stride: make([]int32, nKeys), nulls: make([]int32, nKeys)}
}

// drop forgets every record, so that no identity tuple matches.
func (m *codeMemo) drop() {
	for _, c := range m.filled {
		m.slots[c] = 0
	}
	m.filled = m.filled[:0]
	clear(m.ids)
}

// bind drops the memo and readies it for the view identities of keys,
// which lookup has checked are dictionary views.
func (m *codeMemo) bind(keys []*vec.Vector, coding []keyCoding) {
	m.drop()
	m.hits, m.misses, m.off = 0, 0, false
	span := 1
	for i, v := range keys {
		m.ids[i] = v.DictID
		m.stride[i] = int32(span)
		n := len(v.DictRefs) // the dictionary length; the table is not read
		m.nulls[i] = -1
		if coding[i].nullable {
			m.nulls[i] = int32(n)
			n++
		}
		if span *= n; span > memoMaxSlots {
			m.off = true
			return
		}
	}
	if len(m.slots) < span {
		m.slots = make([]int32, span)
	}
}

// lookup resolves the given rows through the memo: a row whose combined
// code has a record gets it in recs. Of the others, the first row of each
// code is returned, in row order, with memoised true, and the rest wait in
// m.repeats for record to copy its record. A batch the memo does not apply
// to — a key that is not a dictionary view with an identity, a view past
// the bound or cut off — returns rows itself and false.
//
//ocht:hot
func (m *codeMemo) lookup(keys []*vec.Vector, coding []keyCoding, rows, recs []int32) (miss []int32, memoised bool) {
	same := true
	for i, v := range keys {
		if v.Enc != vec.EncDict || v.DictID == 0 || v.Nulls != nil && !coding[i].nullable {
			return rows, false
		}
		same = same && v.DictID == m.ids[i]
	}
	if !same {
		m.bind(keys, coding)
	}
	if m.off {
		return rows, false
	}
	combo := m.combine(keys, rows)
	miss, m.repeats = m.miss[:0], m.repeats[:0]
	slots := m.slots
	for _, r := range rows {
		switch c := combo[r]; {
		case slots[c] > 0:
			recs[r] = slots[c] - 1
		case slots[c] == 0:
			slots[c] = -1 // pending: this batch's first row of c goes through the table
			m.filled = append(m.filled, c)
			miss = append(miss, r)
		default:
			m.repeats = append(m.repeats, r)
		}
	}
	m.miss = miss
	m.hits += len(rows) - len(miss)
	m.misses += len(miss)
	return miss, true
}

// combine computes the combined code of each given row into m.combo.
//
//ocht:hot
func (m *codeMemo) combine(keys []*vec.Vector, rows []int32) []int32 {
	combo := m.combo
	for i, v := range keys {
		codes := v.Codes
		if v.Enc == vec.EncDict && codes == nil {
			// Bit-packed codes of a compressed block (PackMin 0).
			vec.UnpackRows(v.Packed, v.PackBits, v.PackOff, 0, rows, m.codes)
			codes = m.codes
		}
		if stride := m.stride[i]; i == 0 {
			for _, r := range rows {
				combo[r] = codes[r]
			}
		} else {
			for _, r := range rows {
				combo[r] += codes[r] * stride
			}
		}
		if null := m.nulls[i]; null >= 0 && v.Nulls != nil {
			for _, r := range rows {
				if v.Nulls[r] {
					combo[r] += (null - codes[r]) * m.stride[i]
				}
			}
		}
	}
	return combo
}

// record enters the records the find-or-insert gave the rows lookup
// missed, copies them to the batch's later rows with the same codes, then
// cuts the view off if it keeps missing.
//
//ocht:hot
func (m *codeMemo) record(miss, recs []int32) {
	for _, r := range miss {
		m.slots[m.combo[r]] = recs[r] + 1
	}
	for _, r := range m.repeats {
		recs[r] = m.slots[m.combo[r]] - 1
	}
	if m.misses-memoMissFloor > 4*m.hits {
		m.off = true
	}
}
