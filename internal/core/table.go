package core

import (
	"encoding/binary"
	"math"
	"slices"

	"ocht/internal/strs"
	"ocht/internal/ussr"
	"ocht/internal/vec"
)

// Table is the optimistically compressed hash table: a bucket-chained
// directory over hot NSM records, plus a parallel cold area for exceptions,
// laid out by the KeySchema. Callers own extra hot and cold bytes per record
// (payloads, aggregate state). Every chain walk, FindOrInsert's and the
// probes', is one candidate loop (walk) checking keys a column at a time.
type Table struct {
	Schema    *KeySchema
	HotExtra  int // caller-owned bytes after the key area in each hot record
	ColdExtra int // caller-owned bytes after the key schema's cold bytes

	hotWidth  int
	coldWidth int

	heads []int32
	next  []int32
	mask  uint64
	hot   []byte
	cold  []byte
	n     int

	// pend holds the low 32 bits of the key hashes of the last len(pend)
	// records, which InsertBatch appended and Link has not linked into
	// the directory yet (a directory of int32 records never masks more
	// bits). Every reader of the directory links them first.
	pend []uint32
}

// NewTable creates a table; capacityHint sizes the initial directory.
func NewTable(schema *KeySchema, hotExtra, coldExtra, capacityHint int) *Table {
	t := &Table{
		Schema:    schema,
		HotExtra:  hotExtra,
		ColdExtra: coldExtra,
		hotWidth:  schema.KeyBytes() + hotExtra,
		coldWidth: schema.ColdBytes() + coldExtra,
	}
	size := 16
	for size < capacityHint {
		size <<= 1
	}
	t.heads = make([]int32, size)
	for i := range t.heads {
		t.heads[i] = -1
	}
	t.mask = uint64(size - 1)
	return t
}

// Len returns the number of records.
func (t *Table) Len() int { return t.n }

// HotWidth returns the hot record width in bytes.
func (t *Table) HotWidth() int { return t.hotWidth }

// ColdWidth returns the cold record width in bytes.
func (t *Table) ColdWidth() int { return t.coldWidth }

// HotAreaBytes returns the hot working set: directory, chain links and hot
// records — the footprint that determines cache residency (Figure 4's
// "CHT + Optimistic (hot area)"). Records not linked yet count with the
// directory Link will give them.
func (t *Table) HotAreaBytes() int {
	return t.dirLen()*4 + len(t.next)*4 + len(t.hot)
}

// dirLen is the directory length once every record is linked: the
// smallest power of two, at least the current length, that holds one
// bucket per record — the size doubling on every overflow reaches.
func (t *Table) dirLen() int {
	size := len(t.heads)
	for size < t.n {
		size <<= 1
	}
	return size
}

// ColdAreaBytes returns the cold (exception) area footprint.
func (t *Table) ColdAreaBytes() int { return len(t.cold) }

// MemoryBytes returns the total footprint (Table II measures this
// against the vanilla baseline).
func (t *Table) MemoryBytes() int { return t.HotAreaBytes() + t.ColdAreaBytes() }

// HotRow returns the caller-owned extra bytes of hot record rec.
func (t *Table) HotRow(rec int32) []byte {
	off := int(rec)*t.hotWidth + t.Schema.KeyBytes()
	return t.hot[off : off+t.HotExtra]
}

// ColdRow returns the caller-owned extra bytes of cold record rec.
func (t *Table) ColdRow(rec int32) []byte {
	off := int(rec)*t.coldWidth + t.Schema.ColdBytes()
	return t.cold[off : off+t.ColdExtra]
}

// Head returns the first record of the chain for hash h, or -1.
func (t *Table) Head(h uint64) int32 {
	if len(t.pend) != 0 {
		t.Link()
	}
	return t.heads[h&t.mask]
}

// Next returns the chain successor of rec, or -1.
func (t *Table) Next(rec int32) int32 { return t.next[rec] }

// Link links the records InsertBatch appended into the directory, in
// record order, after sizing the directory once for the table's length
// (dirLen): the directory, every chain's order and the footprint are the
// ones inserting record by record and doubling on every overflow leaves,
// without rehashing the table at each doubling. The table must not be
// read concurrently until Link returns; it is a no-op when nothing is
// pending, so readers may call it unguarded once it has run.
func (t *Table) Link() {
	if len(t.pend) == 0 {
		return
	}
	first := t.n - len(t.pend)
	if size := t.dirLen(); size != len(t.heads) {
		t.resize(size, first)
	}
	mask := uint32(t.mask)
	for i, h := range t.pend {
		rec := int32(first + i)
		b := h & mask
		t.next[rec] = t.heads[b]
		t.heads[b] = rec
	}
	t.pend = nil
}

// Unlinked returns the number of records waiting for Link.
func (t *Table) Unlinked() int { return len(t.pend) }

// resize replaces the directory with one of the given size and relinks
// records [0, linked), rehashing their stored keys a chunk at a time.
func (t *Table) resize(size, linked int) {
	t.heads = make([]int32, size)
	for i := range t.heads {
		t.heads[i] = -1
	}
	t.mask = uint64(size - 1)

	g := t.Schema.regrowScratch(min(linked, vec.Size))
	for lo := 0; lo < linked; lo += len(g.recs) {
		recs := g.recs[:min(len(g.recs), linked-lo)]
		for i := range recs {
			recs[i] = int32(lo + i)
		}
		t.HashRecs(recs, g.hashes)
		for i, rec := range recs {
			b := g.hashes[i] & t.mask
			t.next[rec] = t.heads[b]
			t.heads[b] = rec
		}
	}
}

// HashRecs recomputes the key hashes of the given records (at most
// vec.Size) into out[i] through KeySchema.Hash, the one definition of a
// key's hash: the records are loaded back into the Prepared form Hash
// reads — packed words as stored, string references with their slot
// codes.
func (t *Table) HashRecs(recs []int32, out []uint64) {
	s := t.Schema
	g := s.regrowScratch(len(recs))
	p := &g.p
	rows := g.rows[:len(recs)]
	for ci, v := range p.orig {
		if v != nil {
			t.LoadKey(ci, recs, v, rows)
		}
	}
	for w, words := range p.words {
		for i, rec := range recs {
			words[i] = t.word(rec, w)
		}
	}
	for ci, pi := range s.codeCol {
		if pi >= 0 {
			ussr.SlotCodes(p.orig[ci].Str, p.planVecs[pi].Str, rows)
		}
	}
	s.Hash(p, rows, out)
}

// Reset empties the table for reuse, keeping its directory and record
// buffers. The records are zeroed first, because alloc relies on
// reslicing within capacity exposing zeroes.
func (t *Table) Reset() {
	for i := range t.heads {
		t.heads[i] = -1
	}
	clear(t.hot)
	clear(t.cold)
	t.hot, t.cold, t.next = t.hot[:0], t.cold[:0], t.next[:0]
	t.n, t.pend = 0, nil
}

// regrow is the scratch of Table.resize and Table.HashRecs. It is kept apart
// from the schema's batch scratch, which still holds the batch being
// inserted while a directory grows, and shared by every table on the
// schema: rehashes run one at a time, on the goroutine that inserts.
type regrow struct {
	p          Prepared // words, string references and slot codes as stored
	rows, recs []int32
	hashes     []uint64
}

// regrowScratch returns the schema's grow scratch with room for n rows.
func (s *KeySchema) regrowScratch(n int) *regrow {
	g := &s.regrow
	if len(g.rows) >= n {
		return g
	}
	g.rows, g.recs, g.hashes = make([]int32, n), make([]int32, n), make([]uint64, n)
	for i := range g.rows {
		g.rows[i] = int32(i)
	}
	g.p = Prepared{orig: make([]*vec.Vector, len(s.Cols))}
	for ci, c := range s.Cols {
		if s.plan == nil || c.Type == vec.Str {
			g.p.orig[ci] = vec.New(c.Type, n)
		}
	}
	if s.plan != nil {
		g.p.planVecs = make([]*vec.Vector, len(s.planCols))
		for _, pi := range s.codeCol {
			if pi >= 0 {
				g.p.planVecs[pi] = vec.New(vec.Str, n)
			}
		}
		g.p.words = make([][]uint64, s.plan.Words)
		for w := range g.p.words {
			g.p.words[w] = make([]uint64, n)
		}
	}
	return g
}

// alloc appends k zeroed records and returns the first one's index (not
// yet linked).
func (t *Table) alloc(k int) int32 {
	rec := int32(t.n)
	t.hot = grow(t.hot, k*t.hotWidth)
	if t.coldWidth > 0 {
		t.cold = grow(t.cold, k*t.coldWidth)
	}
	t.next = grow(t.next, k) // set when the records are linked
	t.n += k
	return rec
}

// grow extends s by n elements without a per-call allocation, doubling
// its capacity when it must move, so a table filled batch by batch copies
// each element a constant number of times. Fresh capacity from make is
// zeroed and record buffers are only truncated by Reset, which clears
// them first, so the new elements of the byte areas are zero.
func grow[T any](s []T, n int) []T {
	need := len(s) + n
	if need > cap(s) {
		c := 2 * cap(s)
		if c < need {
			c = need + 1024
		}
		ns := make([]T, len(s), c)
		copy(ns, s)
		s = ns
	}
	return s[:need]
}

// link links record rec, the last one, doubling the directory first
// when the table outgrew it.
func (t *Table) link(rec int32, h uint64) {
	if t.n > len(t.heads) {
		t.resize(2*len(t.heads), int(rec))
	}
	b := h & t.mask
	t.next[rec] = t.heads[b]
	t.heads[b] = rec
}

// word loads plan word w of hot record rec.
func (t *Table) word(rec int32, w int) uint64 {
	s := t.Schema
	off := int(rec)*t.hotWidth + w*s.plan.WordBits/8
	if s.plan.WordBits == 32 {
		return uint64(binary.LittleEndian.Uint32(t.hot[off:]))
	}
	return binary.LittleEndian.Uint64(t.hot[off:])
}

func (t *Table) putWord(rec int32, w int, v uint64) {
	s := t.Schema
	off := int(rec)*t.hotWidth + w*s.plan.WordBits/8
	if s.plan.WordBits == 32 {
		binary.LittleEndian.PutUint32(t.hot[off:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(t.hot[off:], v)
	}
}

// storeKeyOne writes the key area (and exception refs) of record rec from
// row `row` of the prepared batch.
func (t *Table) storeKeyOne(p *Prepared, row int, rec int32) {
	s := t.Schema
	if s.plan != nil {
		for w := 0; w < s.plan.Words; w++ {
			t.putWord(rec, w, p.words[w][row])
		}
	}
	hot := t.hot[int(rec)*t.hotWidth:]
	for ci, c := range s.Cols {
		off, v := s.directOff[ci], p.orig[ci]
		switch {
		case s.strCold[ci] >= 0:
			// Exception ref: only needed when the slot code is 0.
			if p.planVecs[s.codeCol[ci]].Str[row] == 0 {
				binary.LittleEndian.PutUint64(t.cold[int(rec)*t.coldWidth+s.strCold[ci]:], uint64(v.Str[row]))
			}
		case off < 0: // packed into the plan words
		case c.Type == vec.Str:
			binary.LittleEndian.PutUint64(hot[off:], uint64(v.Str[row]))
		case c.Type == vec.I64:
			binary.LittleEndian.PutUint64(hot[off:], uint64(v.I64[row]))
		case c.Type == vec.I32:
			binary.LittleEndian.PutUint32(hot[off:], uint32(v.I32[row]))
		case c.Type == vec.I16:
			binary.LittleEndian.PutUint16(hot[off:], uint16(v.I16[row]))
		case c.Type == vec.I8:
			hot[off] = byte(v.I8[row])
		case c.Type == vec.Bool:
			hot[off] = 0
			if v.Bool[row] {
				hot[off] = 1
			}
		}
	}
}

// loadDirect loads a direct-mode integer column value sign-extended.
func (t *Table) loadDirect(rec int32, ci int) uint64 {
	b := t.hot[int(rec)*t.hotWidth+t.Schema.directOff[ci]:]
	switch t.Schema.Cols[ci].Type {
	case vec.I32:
		return uint64(int32(loadLE[uint32](b)))
	case vec.I16:
		return uint64(int16(loadLE[uint16](b)))
	case vec.I8:
		return uint64(int8(b[0]))
	case vec.Bool:
		return uint64(b[0])
	}
	return loadLE[uint64](b) // I64, Str
}

// FindOrInsert resolves each active row to its group record, inserting
// missing groups. recOut[row] receives the record index; the returned
// slices give the rows and record indices of newly created groups, so the
// caller can initialize aggregate state. The candidate loop finds the
// groups that exist; each miss, in row order, is then checked against the
// records this call created (they head its chain) and inserted if new.
//
//ocht:hot
func (t *Table) FindOrInsert(p *Prepared, hashes []uint64, rows []int32, recOut []int32) (newRows, newRecs []int32) {
	t.Link()
	cands, sel := p.scratch(len(rows))
	n := 0
	for _, r := range rows {
		recOut[r] = -1
		if c := t.heads[hashes[r]&t.mask]; c >= 0 && p.inDomain(r) {
			cands[n] = cand{r, c}
			n++
		}
	}
	t.walk(p, cands[:n], sel, recOut, 0, 0)
	first := int32(t.n)
	for _, r := range rows {
		if recOut[r] >= 0 {
			continue
		}
		for c := t.heads[hashes[r]&t.mask]; recOut[r] < 0 && c >= first && p.inDomain(r); c = t.next[c] {
			cands[0], sel[0] = cand{r, c}, 0
			if t.matchPairs(p, cands[:1], sel[:1]) == 1 {
				recOut[r] = c
			}
		}
		if recOut[r] < 0 {
			c := t.alloc(1)
			t.storeKeyOne(p, int(r), c)
			t.link(c, hashes[r])
			recOut[r] = c
			newRows = append(newRows, r)
			newRecs = append(newRecs, c)
		}
	}
	return newRows, newRecs
}

// cand is a candidate of the candidate loop: a probe row and a record of
// its chain whose key may equal the row's.
type cand struct{ row, rec int32 }

// walk is the candidate loop over cands in t: a round checks every live
// candidate's key (matchPairs, sel its scratch) and moves the candidates
// along their chains. A find (out != nil) stores a row's first match in out
// and drops it; a probe appends every match, encoded rec<<bits|part, to p.hits.
//
//ocht:hot
func (t *Table) walk(p *Prepared, cands []cand, sel, out []int32, bits uint, part int32) {
	hits := p.hits
	for k := range cands {
		sel[k] = int32(k)
	}
	for n := len(cands); n > 0; {
		for _, k := range sel[:t.matchPairs(p, cands[:n], sel[:n])] {
			if c := cands[k]; out != nil {
				out[c.row] = c.rec
				cands[k].row = -1
			} else {
				hits = append(hits, cand{c.row, c.rec<<bits | part})
			}
		}
		m := 0
		for _, c := range cands[:n] {
			next := t.next[c.rec]
			cands[m], sel[m] = cand{c.row, next}, int32(m)
			if next|c.row >= 0 {
				m++
			}
		}
		n = m
	}
	p.hits = hits
}

// matchPairs is the candidate loop's key check: it narrows sel, indices of
// cands, to those whose record holds the key of their row, a column at a
// time, and returns their count. A plan word compares as one load, the
// probe key packed once per batch (Section II-D; a one-word key is one
// such column, II-F). Strings outside the plan compare by content;
// slot-coded strings compare their cold references where both codes,
// equal inside the words, are 0.
//
//ocht:hot
func (t *Table) matchPairs(p *Prepared, cands []cand, sel []int32) int {
	s, n, hot, hw := t.Schema, len(sel), t.hot, t.hotWidth
	if s.plan != nil {
		for w, words := range p.words {
			if s.plan.WordBits == 32 {
				n = eqCol[uint64, uint32](hot, hw, 4*w, words, cands, sel[:n])
			} else {
				n = eqCol[uint64, uint64](hot, hw, 8*w, words, cands, sel[:n])
			}
		}
	}
	for ci, c := range s.Cols {
		switch v, off := p.orig[ci], s.directOff[ci]; {
		case s.strCold[ci] >= 0:
			codes := p.planVecs[s.codeCol[ci]].Str
			n = eqStr(p.store, t.cold, t.coldWidth, s.strCold[ci], v.Str, codes, cands, sel[:n])
		case off < 0: // packed into the plan words
		case c.Type == vec.Str:
			n = eqStr(p.store, hot, hw, off, v.Str, nil, cands, sel[:n])
		case c.Type == vec.I64:
			n = eqCol[int64, uint64](hot, hw, off, v.I64, cands, sel[:n])
		case c.Type == vec.I32:
			n = eqCol[int32, uint32](hot, hw, off, v.I32, cands, sel[:n])
		case c.Type == vec.I16:
			n = eqCol[int16, uint16](hot, hw, off, v.I16, cands, sel[:n])
		case c.Type == vec.I8:
			n = eqCol[int8, uint8](hot, hw, off, v.I8, cands, sel[:n])
		case c.Type == vec.Bool:
			n = eqBool(hot, hw, off, v.Bool, cands, sel[:n])
		}
	}
	return n
}

// eqCol narrows sel to the candidates whose record (width bytes each)
// stores at offset off their row's value of vals, as a U-wide
// little-endian integer: a plan word, or a direct-mode integer column.
//
//ocht:hot
func eqCol[T int8 | int16 | int32 | int64 | uint64, U uint8 | uint16 | uint32 | uint64](area []byte, width, off int, vals []T, cands []cand, sel []int32) int {
	m := 0
	for _, k := range sel {
		c := cands[k]
		sel[m] = k
		if loadLE[U](area[int(c.rec)*width+off:]) == U(vals[c.row]) {
			m++
		}
	}
	return m
}

// eqBool is eqCol for a direct-mode Boolean column, stored as one byte.
//
//ocht:hot
func eqBool(area []byte, width, off int, vals []bool, cands []cand, sel []int32) int {
	m := 0
	for _, k := range sel {
		c := cands[k]
		sel[m] = k
		if (area[int(c.rec)*width+off] != 0) == vals[c.row] {
			m++
		}
	}
	return m
}

// eqStr narrows sel to the candidates whose record's string reference at
// offset off has the content of their row's reference in refs. Given slot
// codes, it compares only the candidates whose row's code is 0.
//
//ocht:hot
func eqStr(st *strs.Store, area []byte, width, off int, refs, codes []vec.StrRef, cands []cand, sel []int32) int {
	m := 0
	for _, k := range sel {
		c := cands[k]
		sel[m] = k
		if codes != nil && codes[c.row] != 0 || st.Equal(refs[c.row], vec.StrRef(binary.LittleEndian.Uint64(area[int(c.rec)*width+off:]))) {
			m++
		}
	}
	return m
}

// loadLE reads the U-wide little-endian integer at the start of b.
func loadLE[U uint8 | uint16 | uint32 | uint64](b []byte) U {
	switch uint64(^U(0)) {
	case math.MaxUint8:
		return U(b[0])
	case math.MaxUint16:
		return U(binary.LittleEndian.Uint16(b))
	case math.MaxUint32:
		return U(binary.LittleEndian.Uint32(b))
	}
	return U(binary.LittleEndian.Uint64(b))
}

// InsertBatch inserts every active row as a new record (hash-join build:
// duplicates allowed). recOut[row] receives the record index. The records
// are allocated in one step and linked by Link, or by the first probe.
func (t *Table) InsertBatch(p *Prepared, hashes []uint64, rows []int32, recOut []int32) {
	rec := t.alloc(len(rows))
	pend := grow(t.pend, len(rows))
	for i, r := range rows {
		t.storeKeyOne(p, int(r), rec)
		pend[len(t.pend)+i] = uint32(hashes[r])
		recOut[r] = rec
		rec++
	}
	t.pend = pend
}

// ProbeChains walks the chain of each active row and appends every
// matching (row, record) pair: the hash-join probe. It is the 0-bit call
// of PartTable.ProbeChainsStaged, the one chain walk, with p's scratch as
// its heads. The pairs are appended to the provided slices and returned.
//
//ocht:hot
func (t *Table) ProbeChains(p *Prepared, hashes []uint64, rows []int32, outRows, outRecs []int32) ([]int32, []int32) {
	parts := [1]*Table{t}
	pt := PartTable{Schema: t.Schema, parts: parts[:]}
	_, heads := p.scratch(len(rows))
	return pt.ProbeChainsStaged(p, hashes, rows, heads, outRows, outRecs)
}

// LoadKey reconstructs key column ci of the given records into out at the
// given row positions: integer columns are decompressed, slot codes are
// turned back into USSR references (base + slot*8) or, when 0, the cold
// exception reference is fetched (Section IV-F).
func (t *Table) LoadKey(ci int, recIdx []int32, out *vec.Vector, rows []int32) {
	s := t.Schema
	switch {
	case s.codeCol[ci] >= 0:
		codes := vec.New(vec.Str, out.Len())
		s.plan.UnpackColumn(s.codeCol[ci], t.hot, recIdx, t.hotWidth, 0, codes, rows)
		for i, r := range rows {
			code := uint16(codes.Str[r])
			if code != 0 {
				out.Str[r] = ussr.RefForSlot(code)
			} else {
				out.Str[r] = vec.StrRef(binary.LittleEndian.Uint64(t.cold[int(recIdx[i])*t.coldWidth+s.strCold[ci]:]))
			}
		}
	case s.directOff[ci] < 0: // packed into the plan words
		s.plan.UnpackColumn(slices.Index(s.planCols, ci), t.hot, recIdx, t.hotWidth, 0, out, rows)
	default:
		for i, r := range rows {
			u := t.loadDirect(recIdx[i], ci)
			if s.Cols[ci].Type == vec.Str {
				out.Str[r] = vec.StrRef(u)
			} else {
				out.SetInt64(int(r), int64(u))
			}
		}
	}
}

// RawHot exposes the hot record area for payload codecs; records are laid
// out at rec*HotWidth(). The slice is invalidated by further inserts.
func (t *Table) RawHot() []byte { return t.hot }

// RawCold exposes the cold record area; records are laid out at
// rec*ColdWidth(). The slice is invalidated by further inserts.
func (t *Table) RawCold() []byte { return t.cold }
