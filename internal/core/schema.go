// Package core implements the paper's primary contribution: the
// optimistically compressed hash table. A table is split into a *hot*
// area of narrow NSM records — prefix-suppressed key words (Section II),
// USSR slot codes for strings (Section IV-F) and optimistic aggregate
// slices (Section III) — and a *cold* area holding the exceptions: full
// string references, overflow carries and full-width aggregates.
//
// The same machinery also runs in "vanilla" mode (all flags off), storing
// full-width NSM records, which is the baseline every experiment compares
// against.
package core

import (
	"ocht/internal/domain"
	"ocht/internal/pack"
	"ocht/internal/strs"
	"ocht/internal/ussr"
	"ocht/internal/vec"
)

// Flags selects which of the paper's three techniques are active.
type Flags struct {
	Compress bool // Domain-Guided Prefix Suppression on keys/payloads
	Split    bool // Optimistic Splitting of aggregates and exceptions
	UseUSSR  bool // Unique Strings Self-aligned Region
}

// Vanilla returns the baseline configuration: no compression, no
// splitting, heap-backed strings.
func Vanilla() Flags { return Flags{} }

// All returns the full configuration (CHT + Optimistic + USSR in the
// paper's figure legends).
func All() Flags { return Flags{Compress: true, Split: true, UseUSSR: true} }

// KeyCol describes one grouping/join key column.
type KeyCol struct {
	Name string
	Type vec.Type
	Dom  domain.D // ignored for Str columns
}

// USSRCodeDomain is the domain of USSR slot codes: 16-bit slot numbers,
// with 0 reserved as the exception marker (Section IV-F).
var USSRCodeDomain = domain.New(0, 1<<16-1)

// KeySchema resolves key columns into a physical key layout under the
// given flags and provides the vectorized hash, store, match and load
// kernels over that layout.
//
// Layout of the key area of a hot record:
//
//	compressed: [plan words: packed int columns + USSR slot codes]
//	            [8-byte references for strings that cannot be slot-coded]
//	direct:     [each column at its type width, strings as 8-byte refs]
//
// Heap string references are not canonical (equal strings get different
// references), so only USSR slot codes take part in packed-word equality;
// other string columns are compared by content through the store.
type KeySchema struct {
	Flags Flags
	Cols  []KeyCol
	Store *strs.Store

	plan     *pack.Plan
	planCols []int // plan column -> schema column
	codeCol  []int // schema column -> plan column of its slot code, or -1

	directOff []int // schema column -> byte offset in key area, or -1

	keyBytes  int
	strCold   []int // schema column -> cold byte offset of exception ref, or -1
	coldBytes int   // cold bytes owned by the key schema

	// oneWord marks compressed schemas whose whole key is one packed
	// word of either width (no string columns): FindOrInsert and the
	// staged probe then compare one load per record (Section II-F).
	oneWord bool

	// Per-batch scratch reused across Prepare calls. A KeySchema serves a
	// single query pipeline and is not safe for concurrent use.
	scratch Prepared
	regrow  regrow // Table.grow's scratch, apart from the batch in scratch
}

// NewKeySchema builds the key layout. store supplies string memory and may
// be nil when no Str columns exist.
func NewKeySchema(flags Flags, cols []KeyCol, store *strs.Store) (*KeySchema, error) {
	s := &KeySchema{
		Flags:     flags,
		Cols:      cols,
		Store:     store,
		codeCol:   make([]int, len(cols)),
		directOff: make([]int, len(cols)),
		strCold:   make([]int, len(cols)),
	}
	intOnly := true
	for i := range cols {
		s.codeCol[i] = -1
		s.directOff[i] = -1
		s.strCold[i] = -1
		if cols[i].Type == vec.Str {
			intOnly = false
		}
	}

	if flags.Compress {
		var pcols []pack.Col
		for i, c := range cols {
			switch {
			case c.Type == vec.Str && flags.UseUSSR && flags.Split:
				// 16-bit USSR slot code in the hot area; the full
				// reference moves to the cold area for exceptions.
				s.codeCol[i] = len(pcols)
				s.planCols = append(s.planCols, i)
				pcols = append(pcols, pack.Col{Name: c.Name, Type: vec.Str, Dom: USSRCodeDomain})
				s.strCold[i] = s.coldBytes
				s.coldBytes += 8
			case c.Type == vec.Str:
				// Stored directly after the packed words: a full 64-bit
				// reference (the paper's "at least 48 bits" limitation of
				// CHT alone), compared by content.
			default:
				s.planCols = append(s.planCols, i)
				pcols = append(pcols, pack.Col{Name: c.Name, Type: c.Type, Dom: c.Dom})
			}
		}
		plan, err := pack.ChoosePlan(pcols)
		if err != nil {
			return nil, err
		}
		s.plan = plan
		s.oneWord = intOnly && plan.Words == 1
		s.keyBytes = plan.RecordBytes()
		for i, c := range cols {
			if c.Type == vec.Str && s.codeCol[i] < 0 {
				s.directOff[i] = s.keyBytes
				s.keyBytes += 8
			}
		}
		return s, nil
	}

	// Direct mode: each column at its full type width (strings as 8-byte
	// references), like the uncompressed Vectorwise NSM records.
	for i, c := range cols {
		s.directOff[i] = s.keyBytes
		s.keyBytes += c.Type.Width()
	}
	return s, nil
}

// KeyBytes returns the width of the key area inside a hot record.
func (s *KeySchema) KeyBytes() int { return s.keyBytes }

// ColdBytes returns the cold bytes the key schema owns per record
// (exception string references).
func (s *KeySchema) ColdBytes() int { return s.coldBytes }

// Plan exposes the packing plan in compressed mode (nil otherwise).
func (s *KeySchema) Plan() *pack.Plan { return s.plan }

// Prepared carries the per-batch working state of the key kernels.
type Prepared struct {
	orig     []*vec.Vector // original key vectors
	planVecs []*vec.Vector // plan-ordered working vectors (codes for USSR strings)
	codeVecs []*vec.Vector // owned slot-code buffers, reused across batches
	words    [][]uint64    // packed probe words, compressed mode
	inDom    []bool        // per-row: all packed values inside their domains
	store    *strs.Store   // the preparing schema's store; match kernels use
	// this rather than the table's schema store, so probes of a shared
	// build table account their fast/slow counters on the probing side
	// (each parallel worker's private store) instead of racing on the
	// build side's.
}

// Prepare resolves a batch's key columns into the working representation:
// in USSR-split mode string references become 16-bit slot codes (exception
// code 0), and in compressed mode the probe words are packed once per
// batch so that hashing, matching and storing all reuse them.
func (s *KeySchema) Prepare(cols []*vec.Vector, rows []int32) *Prepared {
	p := &s.scratch
	p.orig = cols
	p.store = s.Store
	if s.plan == nil {
		return p
	}
	phys := 0
	for _, c := range cols {
		if l := c.Len(); l > phys {
			phys = l
		}
	}
	for _, r := range rows { // no key columns: size buffers by row positions
		if int(r)+1 > phys {
			phys = int(r) + 1
		}
	}
	if p.planVecs == nil {
		p.planVecs = make([]*vec.Vector, len(s.planCols))
	}
	if p.codeVecs == nil {
		p.codeVecs = make([]*vec.Vector, len(s.planCols))
	}
	for pi, ci := range s.planCols {
		c := cols[ci]
		if s.codeCol[ci] >= 0 {
			codes := p.codeVecs[pi]
			if codes == nil {
				codes = &vec.Vector{Typ: vec.Str}
				p.codeVecs[pi] = codes
			}
			if cap(codes.Str) < phys {
				codes.Str = make([]vec.StrRef, phys)
			}
			// View exactly the batch's physical length so the kernels'
			// full-vector mode stays in bounds.
			codes.Str = codes.Str[:phys]
			ussr.SlotCodes(c.Str, codes.Str, rows)
			p.planVecs[pi] = codes
			continue
		}
		p.planVecs[pi] = c
	}
	if len(p.words) != s.plan.Words {
		p.words = make([][]uint64, s.plan.Words)
	}
	for w := range p.words {
		if len(p.words[w]) < phys {
			p.words[w] = make([]uint64, phys)
		}
		s.plan.PackWord(w, p.planVecs, rows, p.words[w])
	}
	// Probe values outside the build-side domain wrap around during
	// packing and could collide with valid codes; they can never match,
	// so they are filtered before the word comparison (Section II-D).
	if len(p.inDom) < phys {
		p.inDom = make([]bool, phys)
	}
	s.plan.InDomain(p.planVecs, rows, p.inDom)
	return p
}

// Hash writes the key hash of every active row into out. In compressed
// mode the hash folds the packed key words — multiple key columns packed
// into one word are hashed as one (Section II-F) — while string columns
// outside the plan and all direct-mode columns are hashed by content, with
// string hashes going through the store's pre-computed fast path when
// resident. A slot code is canonical for a resident string, but every
// string the USSR rejected shares code 0, so those rows also fold in the
// string's content hash: otherwise they would all share one chain. This
// is the only definition of a key's hash; Table.grow re-hashes stored
// records through it.
func (s *KeySchema) Hash(p *Prepared, rows []int32, out []uint64) {
	first := true
	if s.plan != nil {
		if s.plan.Words > 0 {
			pack.HashWords(p.words, rows, out)
			first = false
		}
		for ci, c := range s.Cols {
			switch {
			case c.Type != vec.Str:
			case s.codeCol[ci] < 0:
				s.hashStrInto(p.orig[ci].Str, rows, out, first)
				first = false
			default:
				refs, codes := p.orig[ci].Str, p.planVecs[s.codeCol[ci]].Str
				for _, r := range rows {
					if codes[r] == 0 {
						out[r] = pack.Mix64(out[r] ^ s.Store.Hash(refs[r]))
					}
				}
			}
		}
	} else {
		for ci, c := range s.Cols {
			if c.Type == vec.Str {
				s.hashStrInto(p.orig[ci].Str, rows, out, first)
			} else {
				v := p.orig[ci]
				if first {
					for _, r := range rows {
						out[r] = pack.Mix64(uint64(v.Int64At(int(r))))
					}
				} else {
					for _, r := range rows {
						out[r] = pack.Mix64(out[r] ^ pack.Mix64(uint64(v.Int64At(int(r)))))
					}
				}
			}
			first = false
		}
	}
	if first { // no key columns: global aggregate
		for _, r := range rows {
			out[r] = 0
		}
	}
}

func (s *KeySchema) hashStrInto(refs []vec.StrRef, rows []int32, out []uint64, first bool) {
	if first {
		for _, r := range rows {
			out[r] = s.Store.Hash(refs[r])
		}
		return
	}
	for _, r := range rows {
		out[r] = pack.Mix64(out[r] ^ s.Store.Hash(refs[r]))
	}
}
