package core

import (
	"encoding/binary"
	"math"

	"ocht/internal/ussr"
	"ocht/internal/vec"
)

// Table is the optimistically compressed hash table: a bucket-chained
// directory over hot NSM records, plus a parallel cold area for
// exceptions. The key area layout comes from the KeySchema; callers
// (hash join, hash aggregation) own extra hot and cold bytes per record
// for payloads and aggregate state.
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

// directRef loads the string reference stored directly at column ci.
func (t *Table) directRef(rec int32, ci int) vec.StrRef {
	off := int(rec)*t.hotWidth + t.Schema.directOff[ci]
	return vec.StrRef(binary.LittleEndian.Uint64(t.hot[off:]))
}

// coldRef loads the exception string reference of column ci.
func (t *Table) coldRef(rec int32, ci int) vec.StrRef {
	off := int(rec)*t.coldWidth + t.Schema.strCold[ci]
	return vec.StrRef(binary.LittleEndian.Uint64(t.cold[off:]))
}

// storeKeyOne writes the key area (and exception refs) of record rec from
// row `row` of the prepared batch.
func (t *Table) storeKeyOne(p *Prepared, row int, rec int32) {
	s := t.Schema
	if s.plan != nil {
		for w := 0; w < s.plan.Words; w++ {
			t.putWord(rec, w, p.words[w][row])
		}
		for ci, c := range s.Cols {
			switch {
			case s.directOff[ci] >= 0 && c.Type == vec.Str:
				off := int(rec)*t.hotWidth + s.directOff[ci]
				binary.LittleEndian.PutUint64(t.hot[off:], uint64(p.orig[ci].Str[row]))
			case s.strCold[ci] >= 0:
				// Exception ref: only needed when the slot code is 0,
				// but stored unconditionally costs one write and keeps
				// LoadKeys branch-free for exceptions.
				if p.planVecs[s.codeCol[ci]].Str[row] == 0 {
					off := int(rec)*t.coldWidth + s.strCold[ci]
					binary.LittleEndian.PutUint64(t.cold[off:], uint64(p.orig[ci].Str[row]))
				}
			}
		}
		return
	}
	base := int(rec) * t.hotWidth
	for ci, c := range s.Cols {
		off := base + s.directOff[ci]
		switch c.Type {
		case vec.Str:
			binary.LittleEndian.PutUint64(t.hot[off:], uint64(p.orig[ci].Str[row]))
		case vec.I64:
			binary.LittleEndian.PutUint64(t.hot[off:], uint64(p.orig[ci].I64[row]))
		case vec.I32:
			binary.LittleEndian.PutUint32(t.hot[off:], uint32(p.orig[ci].I32[row]))
		case vec.I16:
			binary.LittleEndian.PutUint16(t.hot[off:], uint16(p.orig[ci].I16[row]))
		case vec.I8:
			t.hot[off] = byte(p.orig[ci].I8[row])
		case vec.Bool:
			if p.orig[ci].Bool[row] {
				t.hot[off] = 1
			} else {
				t.hot[off] = 0
			}
		}
	}
}

// matchOne reports whether record rec's key equals row `row` of the
// prepared batch. In compressed mode this is the paper's Section II-D
// comparison: the probe key was compressed once per batch, and the check
// is a word compare — plus content comparisons for strings that are not
// slot-coded, and the cold-reference fallback when both slot codes are 0.
func (t *Table) matchOne(p *Prepared, row int, rec int32) bool {
	s := t.Schema
	if s.plan != nil {
		if !p.inDom[row] {
			return false
		}
		for w := 0; w < s.plan.Words; w++ {
			if t.word(rec, w) != p.words[w][row] {
				return false
			}
		}
		for ci, c := range s.Cols {
			switch {
			case s.directOff[ci] >= 0 && c.Type == vec.Str:
				if !p.store.Equal(p.orig[ci].Str[row], t.directRef(rec, ci)) {
					return false
				}
			case s.strCold[ci] >= 0:
				// Slot codes already compared equal inside the words.
				// Both 0 means both are exceptions: compare contents.
				if p.planVecs[s.codeCol[ci]].Str[row] == 0 {
					if !p.store.Equal(p.orig[ci].Str[row], t.coldRef(rec, ci)) {
						return false
					}
				}
			}
		}
		return true
	}
	base := int(rec) * t.hotWidth
	for ci, c := range s.Cols {
		off := base + s.directOff[ci]
		switch c.Type {
		case vec.Str:
			stored := vec.StrRef(binary.LittleEndian.Uint64(t.hot[off:]))
			if !p.store.Equal(p.orig[ci].Str[row], stored) {
				return false
			}
		case vec.I64:
			if binary.LittleEndian.Uint64(t.hot[off:]) != uint64(p.orig[ci].I64[row]) {
				return false
			}
		case vec.I32:
			if binary.LittleEndian.Uint32(t.hot[off:]) != uint32(p.orig[ci].I32[row]) {
				return false
			}
		case vec.I16:
			if binary.LittleEndian.Uint16(t.hot[off:]) != uint16(p.orig[ci].I16[row]) {
				return false
			}
		case vec.I8:
			if t.hot[off] != byte(p.orig[ci].I8[row]) {
				return false
			}
		case vec.Bool:
			b := t.hot[off] != 0
			if b != p.orig[ci].Bool[row] {
				return false
			}
		}
	}
	return true
}

// loadDirect loads a direct-mode integer column value sign-extended.
func (t *Table) loadDirect(rec int32, ci int) uint64 {
	off := int(rec)*t.hotWidth + t.Schema.directOff[ci]
	switch t.Schema.Cols[ci].Type {
	case vec.I64, vec.Str:
		return binary.LittleEndian.Uint64(t.hot[off:])
	case vec.I32:
		return uint64(int64(int32(binary.LittleEndian.Uint32(t.hot[off:]))))
	case vec.I16:
		return uint64(int64(int16(binary.LittleEndian.Uint16(t.hot[off:]))))
	case vec.I8:
		return uint64(int64(int8(t.hot[off])))
	case vec.Bool:
		return uint64(t.hot[off])
	}
	return 0
}

// FindOrInsert resolves each active row to its group record, inserting
// missing groups. recOut[row] receives the record index; the returned
// slices give the rows and record indices of newly created groups, so the
// caller can initialize aggregate state.
func (t *Table) FindOrInsert(p *Prepared, hashes []uint64, rows []int32, recOut []int32) (newRows, newRecs []int32) {
	t.Link()
	if t.Schema.oneWord {
		if t.Schema.plan.WordBits == 32 {
			return findOrInsertOne[uint32](t, p, hashes, rows, recOut)
		}
		return findOrInsertOne[uint64](t, p, hashes, rows, recOut)
	}
	for _, r := range rows {
		row := int(r)
		h := hashes[r]
		rec := t.heads[h&t.mask]
		for rec >= 0 {
			if t.matchOne(p, row, rec) {
				break
			}
			rec = t.next[rec]
		}
		if rec < 0 {
			rec = t.alloc(1)
			t.storeKeyOne(p, int(r), rec)
			t.link(rec, h)
			newRows = append(newRows, r)
			newRecs = append(newRecs, rec)
		}
		recOut[r] = rec
	}
	return newRows, newRecs
}

// word is the packed key word of a one-word schema, as wide as the plan's
// WordBits.
type word interface{ uint32 | uint64 }

// loadWord reads the W-wide little-endian word at the start of b.
func loadWord[W word](b []byte) W {
	if uint64(^W(0)) == math.MaxUint32 {
		return W(binary.LittleEndian.Uint32(b))
	}
	return W(binary.LittleEndian.Uint64(b))
}

// findOrInsertOne is FindOrInsert's single-word fast path (Section II-F):
// grouping on the packed word is one load and one compare per record,
// fewer branches than matchOne.
func findOrInsertOne[W word](t *Table, p *Prepared, hashes []uint64, rows []int32, recOut []int32) (newRows, newRecs []int32) {
	w0 := p.words[0]
	hw := t.hotWidth
	for _, r := range rows {
		h := hashes[r]
		key := W(w0[r])
		rec := t.heads[h&t.mask]
		for rec >= 0 {
			if loadWord[W](t.hot[int(rec)*hw:]) == key && p.inDom[r] {
				break
			}
			rec = t.next[rec]
		}
		if rec < 0 {
			rec = t.alloc(1)
			t.storeKeyOne(p, int(r), rec)
			t.link(rec, h)
			newRows = append(newRows, r)
			newRecs = append(newRecs, rec)
		}
		recOut[r] = rec
	}
	return newRows, newRecs
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
// of PartTable.ProbeChainsStaged, the one chain walk, with the head
// snapshot on the stack a vector at a time. The pairs are appended to the
// provided slices and returned.
//
//ocht:hot
func (t *Table) ProbeChains(p *Prepared, hashes []uint64, rows []int32, outRows, outRecs []int32) ([]int32, []int32) {
	t.Link()
	parts := [1]*Table{t}
	pt := PartTable{Schema: t.Schema, parts: parts[:]}
	var heads [vec.Size]int32
	for len(rows) > 0 {
		n := min(len(rows), len(heads))
		outRows, outRecs = pt.ProbeChainsStaged(p, hashes, rows[:n], heads[:n], outRows, outRecs)
		rows = rows[n:]
	}
	return outRows, outRecs
}

// LoadKey reconstructs key column ci of the given records into out at the
// given row positions: integer columns are decompressed, slot codes are
// turned back into USSR references (base + slot*8) or, when 0, the cold
// exception reference is fetched (Section IV-F).
func (t *Table) LoadKey(ci int, recIdx []int32, out *vec.Vector, rows []int32) {
	s := t.Schema
	switch {
	case s.plan != nil && s.codeCol[ci] >= 0:
		codes := vec.New(vec.Str, out.Len())
		s.plan.UnpackColumn(s.codeCol[ci], t.hot, recIdx, t.hotWidth, 0, codes, rows)
		for i, r := range rows {
			code := uint16(codes.Str[r])
			if code != 0 {
				out.Str[r] = ussr.RefForSlot(code)
			} else {
				out.Str[r] = t.coldRef(recIdx[i], ci)
			}
		}
	case s.plan != nil && s.directOff[ci] >= 0:
		for i, r := range rows {
			out.Str[r] = t.directRef(recIdx[i], ci)
		}
	case s.plan != nil:
		// Find the plan column for this schema column.
		pi := -1
		for j, cj := range s.planCols {
			if cj == ci {
				pi = j
				break
			}
		}
		s.plan.UnpackColumn(pi, t.hot, recIdx, t.hotWidth, 0, out, rows)
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
