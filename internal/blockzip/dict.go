// Package blockzip implements the compressed sealed-block string codecs:
// an OnPair-style pair-table compressor for short strings (decode is pure
// table lookups, so individual strings decompress without touching their
// neighbours) layered under a front-coded bucketed dictionary with
// O(1)-ish random access, plus fixed-width bit-packed vectors for
// dictionary code columns and delta/FoR framing for the dictionary's
// entry offsets.
//
// The design follows the optimistic-compression thesis of the source
// paper one layer down the stack: sealed blocks stay compressed in RAM,
// and only the strings a query actually needs are ever decoded.
package blockzip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Tuning and safety limits.
const (
	// DefaultBucketShift gives 16-entry buckets: a point access decodes at
	// most 16 strings (its bucket chain), which keeps StrAt "O(1)-ish"
	// while front-coding still amortizes shared prefixes.
	DefaultBucketShift = 4

	// DefaultBudget caps the raw bytes of one block dictionary the codec
	// will accept; larger dictionaries must be declined explicitly (the
	// sealer falls back to plain encoding), never silently truncated.
	DefaultBudget = 64 << 20

	maxBucketShift = 8
	maxDictEntries = 1 << 24
	maxLcp         = 1<<16 - 1
)

// ErrBudget is returned by Build when the dictionary's raw bytes exceed
// the per-block budget. Callers must keep the plain encoding.
var ErrBudget = errors.New("blockzip: dictionary exceeds per-block budget")

// Dict is a compressed string dictionary over one sealed block: strings
// are grouped into 2^bucketShift-entry buckets, each entry is front-coded
// against its predecessor within the bucket (bucket heads are stored
// whole), and the resulting payloads are pair-table encoded. Entry
// offsets into the symbol stream are framed as per-bucket anchors plus
// bit-packed in-bucket deltas, so locating an entry is O(1).
//
// A Dict is immutable after Build/Unmarshal and safe for concurrent
// readers.
type Dict struct {
	n           int
	bucketShift uint

	table *pairTable

	syms    []uint16  // concatenated per-entry symbol streams
	lcps    []uint16  // per entry: shared prefix with the previous entry (0 at bucket heads)
	anchors []uint32  // per bucket: absolute start of the bucket head in syms
	rel     PackedU32 // per entry: start offset relative to its bucket anchor

	rawBytes int64 // total decoded bytes of all entries
	maxLen   int   // longest decoded entry
}

// Len returns the number of strings in the dictionary.
func (d *Dict) Len() int { return d.n }

// RawBytes returns the total decoded size of all entries — the bytes a
// plain []string dictionary would hold (excluding slice headers).
func (d *Dict) RawBytes() int64 { return d.rawBytes }

// MaxLen returns the length of the longest entry, for scratch sizing.
func (d *Dict) MaxLen() int { return d.maxLen }

// CompressedBytes returns the resident footprint of the dictionary: the
// pair table, symbol stream, front-coding metadata and offset framing.
func (d *Dict) CompressedBytes() int {
	return len(d.table.expBytes) + 4*len(d.table.expOff) +
		2*len(d.syms) + 2*len(d.lcps) + 4*len(d.anchors) + d.rel.Bytes()
}

// span returns the symbol range of entry i.
func (d *Dict) span(i int) (start, end int) {
	b := i >> d.bucketShift
	start = int(d.anchors[b]) + int(d.rel.At(i))
	last := (b+1)<<d.bucketShift - 1
	if i < last && i+1 < d.n {
		end = int(d.anchors[b]) + int(d.rel.At(i+1))
	} else if b+1 < len(d.anchors) {
		end = int(d.anchors[b+1])
	} else {
		end = len(d.syms)
	}
	return start, end
}

// appendEntry decodes entry i's payload onto buf (whose leading bytes must
// already hold the shared prefix) and returns the extended buffer plus the
// payload bytes produced.
//
//ocht:hot
func (d *Dict) appendEntry(i int, buf []byte) ([]byte, int) {
	start, end := d.span(i)
	n0 := len(buf)
	for _, sym := range d.syms[start:end] {
		buf = append(buf, d.table.expansion(sym)...)
	}
	return buf, len(buf) - n0
}

// StrAt decodes entry i into buf (reused across calls; pass nil on the
// first call) and returns the decoded string plus the number of bytes the
// access actually decompressed. Only the entry's bucket chain is decoded —
// at most 2^bucketShift strings — never the whole dictionary, never the
// whole block: this is the random-access contract the point-gather paths
// rely on.
func (d *Dict) StrAt(i int, buf []byte) (s []byte, decoded int, scratch []byte) {
	head := i &^ (1<<d.bucketShift - 1)
	buf = buf[:0]
	dec := 0
	for j := head; j <= i; j++ {
		lcp := int(d.lcps[j])
		if lcp > len(buf) {
			lcp = len(buf)
		}
		buf = buf[:lcp]
		var n int
		buf, n = d.appendEntry(j, buf)
		dec += n
	}
	return buf, dec, buf
}

// AppendEntries decodes every entry in order onto data and appends each
// entry's end offset to offs, so that with an empty data and offs = [0],
// entry i is data[offs[i]:offs[i+1]]. A front-coded entry copies its
// shared prefix from its predecessor in data, so the whole dictionary
// decodes with no scratch besides the two buffers, which grow only when
// their capacity is short. This is the bulk path block-view setup uses.
func (d *Dict) AppendEntries(data []byte, offs []int32) ([]byte, []int32) {
	prev := len(data)
	for i := 0; i < d.n; i++ {
		start := len(data)
		if i&(1<<d.bucketShift-1) != 0 {
			lcp := min(int(d.lcps[i]), start-prev)
			data = append(data, data[prev:prev+lcp]...)
		}
		data, _ = d.appendEntry(i, data)
		offs = append(offs, int32(len(data)))
		prev = start
	}
	return data, offs
}

// ForEach decodes every entry in order, calling fn with the entry index
// and its bytes. The byte slice is reused between calls; fn must copy if
// it retains.
func (d *Dict) ForEach(fn func(i int, s []byte)) {
	var buf []byte
	for i := 0; i < d.n; i++ {
		if i&(1<<d.bucketShift-1) == 0 {
			buf = buf[:0]
		} else {
			lcp := int(d.lcps[i])
			if lcp > len(buf) {
				lcp = len(buf)
			}
			buf = buf[:lcp]
		}
		buf, _ = d.appendEntry(i, buf)
		fn(i, buf)
	}
}

// Build compresses strs (order-preserving: entry i of the result is
// strs[i]) with the given raw-byte budget; 0 means DefaultBudget. It
// returns ErrBudget when the dictionary is too large to compress within
// budget — the caller must then keep its plain encoding — and never
// silently drops or truncates entries.
func Build(strs []string, budget int) (*Dict, error) {
	if len(strs) == 0 {
		return nil, errors.New("blockzip: empty dictionary")
	}
	if len(strs) > maxDictEntries {
		return nil, fmt.Errorf("blockzip: %d entries exceed limit", len(strs))
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	var raw int64
	maxLen := 0
	for _, s := range strs {
		raw += int64(len(s))
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	if raw > int64(budget) {
		return nil, fmt.Errorf("%w: %d bytes > %d", ErrBudget, raw, budget)
	}
	d := &Dict{n: len(strs), bucketShift: DefaultBucketShift, rawBytes: raw, maxLen: maxLen}
	bucket := 1 << d.bucketShift

	// Front-code: bucket heads whole, later entries as (lcp, suffix).
	lcps := make([]uint16, len(strs))
	payloads := make([][]byte, len(strs))
	for i, s := range strs {
		lcp := 0
		if i%bucket != 0 {
			prev := strs[i-1]
			max := len(prev)
			if len(s) < max {
				max = len(s)
			}
			if max > maxLcp {
				max = maxLcp
			}
			for lcp < max && s[lcp] == prev[lcp] {
				lcp++
			}
		}
		lcps[i] = uint16(lcp)
		payloads[i] = []byte(s[lcp:])
	}
	d.lcps = lcps

	table, seqs := learnPairs(payloads)
	d.table = table

	// Concatenate the symbol streams and frame the offsets: one absolute
	// anchor per bucket, bit-packed deltas within.
	nBuckets := (len(strs) + bucket - 1) / bucket
	d.anchors = make([]uint32, nBuckets)
	relOffs := make([]uint32, len(strs))
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	d.syms = make([]uint16, 0, total)
	maxRel := uint32(0)
	for i, s := range seqs {
		if i%bucket == 0 {
			d.anchors[i/bucket] = uint32(len(d.syms))
		}
		relOffs[i] = uint32(len(d.syms)) - d.anchors[i/bucket]
		if relOffs[i] > maxRel {
			maxRel = relOffs[i]
		}
		d.syms = append(d.syms, s...)
	}
	d.rel = PackU32(relOffs, maxRel)
	return d, nil
}

// SortWithPermutation sorts strs and returns remap, where remap[oldIndex]
// is the entry's new index — the helper seal-time compression uses to
// reorder a block dictionary (front-coding wants sorted neighbours) while
// rewriting the block's codes.
func SortWithPermutation(strs []string) (sorted []string, remap []int32) {
	idx := make([]int, len(strs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return strs[idx[a]] < strs[idx[b]] })
	sorted = make([]string, len(strs))
	remap = make([]int32, len(strs))
	for newI, oldI := range idx {
		sorted[newI] = strs[oldI]
		remap[oldI] = int32(newI)
	}
	return sorted, remap
}

// Marshal serializes the dictionary deterministically (little-endian).
// The pair table travels as the literal-prefixed expansion byte stream
// plus one length byte per learned symbol (expansions are capped at
// maxExpansion, so a byte suffices); offsets are rebuilt on load.
func (d *Dict) Marshal() []byte {
	nsym := d.table.nsym()
	size := 4 + 1 + 4 + (nsym - baseSyms) + 4 + len(d.table.expBytes) + 4 + 2*len(d.syms) +
		2*len(d.lcps) + 4 + 4*len(d.anchors) + 1 + 4 + 8*len(d.rel.Words) + 8 + 4
	out := make([]byte, 0, size)
	p32 := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	p32(uint32(d.n))
	out = append(out, byte(d.bucketShift))
	p32(uint32(nsym))
	for s := baseSyms; s < nsym; s++ {
		out = append(out, byte(d.table.expOff[s+1]-d.table.expOff[s]))
	}
	p32(uint32(len(d.table.expBytes)))
	out = append(out, d.table.expBytes...)
	p32(uint32(len(d.syms)))
	for _, s := range d.syms {
		out = binary.LittleEndian.AppendUint16(out, s)
	}
	for _, l := range d.lcps {
		out = binary.LittleEndian.AppendUint16(out, l)
	}
	p32(uint32(len(d.anchors)))
	for _, a := range d.anchors {
		p32(a)
	}
	out = append(out, byte(d.rel.Bits))
	p32(uint32(len(d.rel.Words)))
	for _, w := range d.rel.Words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(d.rawBytes))
	p32(uint32(d.maxLen))
	return out
}

// reader is a bounds-checked little-endian cursor over a marshal blob.
type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.pos+n > len(r.b) {
		r.err = errors.New("blockzip: truncated dictionary")
		return false
	}
	return true
}

func (r *reader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.pos:])
	r.pos += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

// Unmarshal deserializes and fully validates a dictionary. Damaged input
// returns an error — never a panic and never an unvalidated structure: a
// Dict that Unmarshal accepts is safe for unchecked StrAt/ForEach decoding
// (the WAL-recovery and fuzz paths rely on this).
func Unmarshal(data []byte) (*Dict, error) {
	r := &reader{b: data}
	d := &Dict{}
	d.n = int(r.u32())
	d.bucketShift = uint(r.u8())
	nsym := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if d.n <= 0 || d.n > maxDictEntries {
		return nil, fmt.Errorf("blockzip: entry count %d out of range", d.n)
	}
	if d.bucketShift > maxBucketShift {
		return nil, fmt.Errorf("blockzip: bucket shift %d out of range", d.bucketShift)
	}
	if nsym < baseSyms || nsym > maxSyms {
		return nil, fmt.Errorf("blockzip: symbol count %d out of range", nsym)
	}
	// Per-symbol expansion lengths rebuild the offset table: the first 256
	// symbols are the literal bytes, every learned symbol records its
	// expansion length explicitly.
	expOff := make([]uint32, nsym+1)
	for i := 0; i <= baseSyms; i++ {
		expOff[i] = uint32(i)
	}
	for s := baseSyms; s < nsym; s++ {
		l := int(r.u8())
		if l < 2 || l > maxExpansion {
			if r.err != nil {
				return nil, r.err
			}
			return nil, fmt.Errorf("blockzip: symbol %d expansion length %d out of range", s, l)
		}
		expOff[s+1] = expOff[s] + uint32(l)
	}
	expLen := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if expLen != int(expOff[nsym]) {
		return nil, fmt.Errorf("blockzip: expansion bytes %d, offsets say %d", expLen, expOff[nsym])
	}
	if !r.need(expLen) {
		return nil, r.err
	}
	expBytes := append([]byte(nil), r.b[r.pos:r.pos+expLen]...)
	r.pos += expLen
	nSyms := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if nSyms < 0 || nSyms > len(data)/2 {
		return nil, fmt.Errorf("blockzip: symbol stream length %d out of range", nSyms)
	}
	syms := make([]uint16, nSyms)
	for i := range syms {
		syms[i] = r.u16()
	}
	lcps := make([]uint16, d.n)
	for i := range lcps {
		lcps[i] = r.u16()
	}
	nAnchors := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	bucket := 1 << d.bucketShift
	if want := (d.n + bucket - 1) / bucket; nAnchors != want {
		return nil, fmt.Errorf("blockzip: %d anchors for %d entries", nAnchors, d.n)
	}
	anchors := make([]uint32, nAnchors)
	for i := range anchors {
		anchors[i] = r.u32()
	}
	relBits := int(r.u8())
	relWords := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if relBits < 1 || relBits > 32 {
		return nil, fmt.Errorf("blockzip: offset width %d out of range", relBits)
	}
	if relWords != WordsFor(d.n, relBits) {
		return nil, fmt.Errorf("blockzip: %d offset words, want %d", relWords, WordsFor(d.n, relBits))
	}
	words := make([]uint64, relWords)
	for i := range words {
		words[i] = r.u64()
	}
	d.rawBytes = int64(r.u64())
	d.maxLen = int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("blockzip: %d trailing bytes", len(data)-r.pos)
	}

	d.table = &pairTable{expOff: expOff, expBytes: expBytes}
	d.syms = syms
	d.lcps = lcps
	d.anchors = anchors
	d.rel = PackedU32{Bits: relBits, N: d.n, Words: words}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// validate re-decodes the whole dictionary with bounds checks, verifying
// every structural invariant unchecked decoding later relies on.
func (d *Dict) validate() error {
	if len(d.lcps) != d.n {
		return errors.New("blockzip: lcp table size mismatch")
	}
	nsym := d.table.nsym()
	for _, s := range d.syms {
		if int(s) >= nsym {
			return fmt.Errorf("blockzip: symbol %d out of range [0,%d)", s, nsym)
		}
	}
	for i := 1; i < len(d.table.expOff); i++ {
		if d.table.expOff[i] < d.table.expOff[i-1] {
			return errors.New("blockzip: expansion offsets not monotonic")
		}
	}
	if int(d.table.expOff[nsym]) != len(d.table.expBytes) {
		return errors.New("blockzip: expansion offsets do not cover the byte stream")
	}
	// Entry spans must tile [0, len(syms)) in order.
	prevEnd := 0
	for i := 0; i < d.n; i++ {
		b := i >> d.bucketShift
		if int(d.anchors[b]) > len(d.syms) {
			return errors.New("blockzip: anchor past symbol stream")
		}
		start, end := d.span(i)
		if start != prevEnd || end < start || end > len(d.syms) {
			return fmt.Errorf("blockzip: entry %d span [%d,%d) breaks tiling at %d", i, start, end, prevEnd)
		}
		prevEnd = end
	}
	if prevEnd != len(d.syms) {
		return errors.New("blockzip: entries do not cover the symbol stream")
	}
	// Full decode: lcp chains must be in range and the totals must match.
	var total int64
	maxLen := 0
	var buf []byte
	for i := 0; i < d.n; i++ {
		if i&(1<<d.bucketShift-1) == 0 {
			buf = buf[:0]
		} else {
			if int(d.lcps[i]) > len(buf) {
				return fmt.Errorf("blockzip: entry %d lcp %d exceeds previous length %d", i, d.lcps[i], len(buf))
			}
			buf = buf[:d.lcps[i]]
		}
		buf, _ = d.appendEntry(i, buf)
		if len(buf) > d.maxLen {
			return fmt.Errorf("blockzip: entry %d longer than recorded max %d", i, d.maxLen)
		}
		if len(buf) > maxLen {
			maxLen = len(buf)
		}
		total += int64(len(buf))
	}
	if total != d.rawBytes {
		return fmt.Errorf("blockzip: decoded %d bytes, recorded %d", total, d.rawBytes)
	}
	if maxLen != d.maxLen {
		return fmt.Errorf("blockzip: decoded max length %d, recorded %d", maxLen, d.maxLen)
	}
	return nil
}
