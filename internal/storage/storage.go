// Package storage implements the columnar table substrate: append-only
// columns cut into blocks, per-block min/max zone maps kept out-of-band
// (Section II-A), per-block string dictionaries (Section IV-A: "most
// database systems limit themselves to per-block dictionaries"), and NULL
// bitmaps.
//
// Scans decompress dictionary codes through an in-memory pointer array set
// up per block. The array starts empty and an entry is interned — with the
// USSR enabled, inserted into the USSR (Section IV-D) — the first time a
// row reads it, so in-flight references point there and entries no
// surviving row needs are never touched.
package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ocht/internal/blockzip"
	"ocht/internal/domain"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// BlockRows is the number of values per block.
const BlockRows = 1 << 16

// CompressMode selects how string blocks are compressed at seal time.
type CompressMode int32

// Seal-compression modes.
const (
	// CompressAuto compresses a string block only when the pair-table +
	// front-coded form is actually smaller than the plain dictionary.
	CompressAuto CompressMode = iota
	// CompressOn always keeps the compressed form when building succeeds
	// (budget failures still fall back to plain, explicitly).
	CompressOn
	// CompressOff never compresses.
	CompressOff
)

// ParseCompressMode maps the -seal-compress flag values.
func ParseCompressMode(s string) (CompressMode, error) {
	switch s {
	case "auto", "":
		return CompressAuto, nil
	case "on":
		return CompressOn, nil
	case "off":
		return CompressOff, nil
	}
	return CompressAuto, fmt.Errorf("storage: bad compress mode %q (want on, off or auto)", s)
}

// String returns the flag spelling of the mode.
func (m CompressMode) String() string {
	switch m {
	case CompressOn:
		return "on"
	case CompressOff:
		return "off"
	default:
		return "auto"
	}
}

// Seal-compression knobs. The mode is process-global (sealing happens in
// column builders created all over the engine); the row threshold keeps
// the per-commit tail republication on the ingest write path from paying
// pair-table learning for tiny deltas.
var (
	sealCompression  atomic.Int32 // CompressMode, default CompressAuto
	compressMinRows  atomic.Int32
	compressBudget   atomic.Int64
	compressedBlocks atomic.Int64 // string blocks sealed compressed
	compressFallback atomic.Int64 // budget/build failures sealed plain
)

func init() {
	compressMinRows.Store(4096)
	compressBudget.Store(blockzip.DefaultBudget)
}

// SetSealCompression sets the process-wide seal-compression mode.
func SetSealCompression(m CompressMode) { sealCompression.Store(int32(m)) }

// SealCompression returns the current mode.
func SealCompression() CompressMode { return CompressMode(sealCompression.Load()) }

// SetCompressMinRows sets the minimum block row count for compression
// (tests lower it to exercise compression on small blocks).
func SetCompressMinRows(n int) { compressMinRows.Store(int32(n)) }

// SetCompressBudget sets the per-block dictionary raw-byte budget.
func SetCompressBudget(n int64) { compressBudget.Store(n) }

// CompressionStats reports how many string blocks sealed compressed and
// how many fell back to plain encoding because dictionary building failed
// (e.g. the per-block budget was exceeded).
func CompressionStats() (compressed, fallbacks int64) {
	return compressedBlocks.Load(), compressFallback.Load()
}

// Block holds the values of one column over BlockRows rows. Exactly one
// data slice is populated, matching the column type. String data is
// dictionary-compressed: Dict holds the distinct strings, Codes the
// per-row dictionary codes.
//
// Integer blocks whose value range is narrow enough are bit-packed at seal
// time (frame of reference): PackWords holds PackBits-wide offsets from
// PackMin, no value crossing a word boundary, and the plain slice is
// dropped. Sealed blocks are immutable, so scans hand out zero-copy views
// of either form.
type Block struct {
	N     int
	Nulls []bool // nil when no NULLs in this block

	I8  []int8
	I16 []int16
	I32 []int32
	I64 []int64
	F64 []float64

	Dict  []string
	Codes []int32

	// Compressed string form (seal-time, see compressStrBlock): when ZDict
	// is non-nil the plain Dict/Codes slices are dropped, the dictionary
	// lives pair-table-compressed and front-coded in ZDict (sorted order),
	// and the per-row codes are bit-packed in ZCodes.
	ZDict  *blockzip.Dict
	ZCodes blockzip.PackedU32

	PackWords []uint64 // non-nil iff the block is bit-packed
	PackBits  int
	PackMin   int64
}

// Packed reports whether the block stores bit-packed integers.
func (b *Block) Packed() bool { return b.PackWords != nil }

// DictCompressed reports whether the block stores its string dictionary
// in the compressed form.
func (b *Block) DictCompressed() bool { return b.ZDict != nil }

// DictLen returns the number of distinct dictionary entries of a string
// block, in either representation.
func (b *Block) DictLen() int {
	if b.ZDict != nil {
		return b.ZDict.Len()
	}
	return len(b.Dict)
}

// zoneMap is the out-of-band per-block metadata: min/max for integer
// blocks (Section II-A stores these in row-group headers or the catalog,
// never inside the block).
type zoneMap struct {
	min, max int64
	valid    bool
}

// Column is an append-only typed column.
type Column struct {
	Name     string
	Type     vec.Type
	Nullable bool

	blocks []*Block
	zones  []zoneMap // parallel to blocks, integer columns only

	// Builder state.
	cur     *Block
	curZone zoneMap
	curDict map[string]int32

	// compressErr records the most recent dictionary-build failure that
	// forced a plain-encoding fallback at seal time (per-block budget
	// exceeded). The block still seals correctly — plain — but the error
	// is surfaced instead of silently producing an empty dictionary.
	compressErr error
}

// CompressErr returns the most recent seal-compression fallback error, or
// nil when every sealed block compressed (or was left plain by policy).
func (c *Column) CompressErr() error { return c.compressErr }

// NewColumn creates an empty column.
func NewColumn(name string, t vec.Type, nullable bool) *Column {
	return &Column{Name: name, Type: t, Nullable: nullable}
}

func (c *Column) startBlock() {
	b := &Block{}
	switch c.Type {
	case vec.I8:
		b.I8 = make([]int8, 0, BlockRows)
	case vec.I16:
		b.I16 = make([]int16, 0, BlockRows)
	case vec.I32:
		b.I32 = make([]int32, 0, BlockRows)
	case vec.I64:
		b.I64 = make([]int64, 0, BlockRows)
	case vec.F64:
		b.F64 = make([]float64, 0, BlockRows)
	case vec.Str:
		b.Codes = make([]int32, 0, BlockRows)
		c.curDict = map[string]int32{}
	default:
		panic("storage: unsupported column type " + c.Type.String())
	}
	c.cur = b
	c.curZone = zoneMap{min: 1<<63 - 1, max: -1 << 63, valid: false}
}

func (c *Column) sealBlock() {
	if c.cur == nil {
		return
	}
	compressIntBlock(c.cur, c.Type)
	if c.Type == vec.Str {
		if err := compressStrBlock(c.cur); err != nil {
			// Explicit plain fallback: the block keeps its full Dict/Codes,
			// the failure is counted and surfaced — never an empty dict.
			c.compressErr = err
			compressFallback.Add(1)
		}
	}
	c.blocks = append(c.blocks, c.cur)
	c.zones = append(c.zones, c.curZone)
	c.cur = nil
	c.curDict = nil
}

// compressStrBlock rewrites a string block into the compressed sealed
// form when the seal-compression policy asks for it: the dictionary is
// sorted (front-coding wants ordered neighbours), codes are remapped
// through the sort permutation and bit-packed, and the dictionary is
// pair-table compressed. Under CompressAuto the rewrite is kept only when
// it beats the plain resident footprint. A build error (budget exceeded)
// leaves the block plain and is returned for the sealer to surface.
func compressStrBlock(b *Block) error {
	mode := SealCompression()
	if mode == CompressOff || len(b.Dict) == 0 || b.N < int(compressMinRows.Load()) {
		return nil
	}
	sorted, remap := blockzip.SortWithPermutation(b.Dict)
	d, err := blockzip.Build(sorted, int(compressBudget.Load()))
	if err != nil {
		return err
	}
	codes := make([]uint32, b.N)
	for i, old := range b.Codes {
		codes[i] = uint32(remap[old])
	}
	packed := blockzip.PackU32(codes, uint32(d.Len()-1))
	if mode == CompressAuto {
		comp := int64(d.CompressedBytes() + packed.Bytes())
		if comp >= plainStrBytes(b) {
			return nil
		}
	}
	b.ZDict = d
	b.ZCodes = packed
	b.Dict, b.Codes = nil, nil
	compressedBlocks.Add(1)
	return nil
}

// plainStrBytes is the resident footprint of a plain string block: the
// dictionary bytes, one 16-byte string header per entry, and 4-byte codes.
func plainStrBytes(b *Block) int64 {
	var n int64
	for _, s := range b.Dict {
		n += int64(len(s))
	}
	return n + 16*int64(len(b.Dict)) + 4*int64(b.N)
}

// compressIntBlock bit-packs an integer block when that shrinks it: values
// become PackBits-wide offsets from the physical minimum (which, unlike
// the zone map, includes the zero placeholders NULL rows store) and the
// plain slice is dropped. Runs once per sealed block, never on a hot path.
func compressIntBlock(b *Block, t vec.Type) {
	if b.N == 0 {
		return
	}
	var min, max int64
	switch t {
	case vec.I8:
		min, max = int64(b.I8[0]), int64(b.I8[0])
		for _, x := range b.I8 {
			if int64(x) < min {
				min = int64(x)
			}
			if int64(x) > max {
				max = int64(x)
			}
		}
	case vec.I16:
		min, max = int64(b.I16[0]), int64(b.I16[0])
		for _, x := range b.I16 {
			if int64(x) < min {
				min = int64(x)
			}
			if int64(x) > max {
				max = int64(x)
			}
		}
	case vec.I32:
		min, max = int64(b.I32[0]), int64(b.I32[0])
		for _, x := range b.I32 {
			if int64(x) < min {
				min = int64(x)
			}
			if int64(x) > max {
				max = int64(x)
			}
		}
	case vec.I64:
		min, max = b.I64[0], b.I64[0]
		for _, x := range b.I64 {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
	default:
		return
	}
	bits := rangeBits(min, max)
	if bits == 0 {
		return
	}
	per := 64 / bits
	words := (b.N + per - 1) / per
	if words*8 >= b.N*t.Width() {
		return // packing would not shrink the block
	}
	packed := make([]uint64, words)
	switch t {
	case vec.I8:
		for i, x := range b.I8 {
			packed[i/per] |= uint64(int64(x)-min) << (uint(i%per) * uint(bits))
		}
		b.I8 = nil
	case vec.I16:
		for i, x := range b.I16 {
			packed[i/per] |= uint64(int64(x)-min) << (uint(i%per) * uint(bits))
		}
		b.I16 = nil
	case vec.I32:
		for i, x := range b.I32 {
			packed[i/per] |= uint64(int64(x)-min) << (uint(i%per) * uint(bits))
		}
		b.I32 = nil
	case vec.I64:
		for i, x := range b.I64 {
			packed[i/per] |= uint64(x-min) << (uint(i%per) * uint(bits))
		}
		b.I64 = nil
	}
	b.PackWords, b.PackBits, b.PackMin = packed, bits, min
}

// rangeBits returns the offset width needed for [min, max], or 0 when the
// range is too wide to pack (>= 2^56 distinct offsets — wider than any
// width that could shrink a block).
func rangeBits(min, max int64) int {
	r := uint64(max) - uint64(min) // two's complement: correct for any min <= max
	if r >= 1<<56 {
		return 0
	}
	bits := 1
	for uint64(1)<<uint(bits) <= r {
		bits++
	}
	return bits
}

func (c *Column) ensure() *Block {
	if c.cur == nil {
		c.startBlock()
	}
	if c.cur.N == BlockRows {
		c.sealBlock()
		c.startBlock()
	}
	return c.cur
}

// AppendInt appends an integer (or the bit pattern for F64 via
// AppendFloat) value.
func (c *Column) AppendInt(v int64) {
	b := c.ensure()
	switch c.Type {
	case vec.I8:
		b.I8 = append(b.I8, int8(v))
	case vec.I16:
		b.I16 = append(b.I16, int16(v))
	case vec.I32:
		b.I32 = append(b.I32, int32(v))
	case vec.I64:
		b.I64 = append(b.I64, v)
	default:
		panic("storage: AppendInt on " + c.Type.String())
	}
	if !c.curZone.valid {
		c.curZone = zoneMap{min: v, max: v, valid: true}
	} else {
		if v < c.curZone.min {
			c.curZone.min = v
		}
		if v > c.curZone.max {
			c.curZone.max = v
		}
	}
	if b.Nulls != nil {
		b.Nulls = append(b.Nulls, false)
	}
	b.N++
}

// AppendFloat appends a float64 value.
func (c *Column) AppendFloat(v float64) {
	b := c.ensure()
	b.F64 = append(b.F64, v)
	if b.Nulls != nil {
		b.Nulls = append(b.Nulls, false)
	}
	b.N++
}

// AppendString appends a string value, dictionary-encoding it within the
// current block.
func (c *Column) AppendString(s string) {
	b := c.ensure()
	code, ok := c.curDict[s]
	if !ok {
		code = int32(len(b.Dict))
		b.Dict = append(b.Dict, s)
		c.curDict[s] = code
	}
	b.Codes = append(b.Codes, code)
	if b.Nulls != nil {
		b.Nulls = append(b.Nulls, false)
	}
	b.N++
}

// AppendNull appends a NULL. The physical value is the zero value of the
// type (or dictionary code 0 for strings, materialized as the empty
// string entry).
func (c *Column) AppendNull() {
	if !c.Nullable {
		panic("storage: NULL into non-nullable column " + c.Name)
	}
	b := c.ensure()
	if b.Nulls == nil {
		b.Nulls = make([]bool, b.N, BlockRows)
	}
	switch c.Type {
	case vec.I8:
		b.I8 = append(b.I8, 0)
	case vec.I16:
		b.I16 = append(b.I16, 0)
	case vec.I32:
		b.I32 = append(b.I32, 0)
	case vec.I64:
		b.I64 = append(b.I64, 0)
	case vec.F64:
		b.F64 = append(b.F64, 0)
	case vec.Str:
		code, ok := c.curDict[""]
		if !ok {
			code = int32(len(b.Dict))
			b.Dict = append(b.Dict, "")
			c.curDict[""] = code
		}
		b.Codes = append(b.Codes, code)
	}
	b.Nulls = append(b.Nulls, true)
	b.N++
}

// Seal finishes the current block; must be called after loading.
func (c *Column) Seal() { c.sealBlock() }

// Blocks returns the number of sealed blocks.
func (c *Column) Blocks() int { return len(c.blocks) }

// Block returns sealed block i.
func (c *Column) Block(i int) *Block { return c.blocks[i] }

// Rows returns the total sealed row count.
func (c *Column) Rows() int {
	n := 0
	for _, b := range c.blocks {
		n += b.N
	}
	return n
}

// Domain computes the total domain over a block range from the
// out-of-band zone maps — the scan-side domain derivation of Section II-A.
// Strings and floats return the unknown domain.
func (c *Column) Domain(fromBlock, toBlock int) domain.D {
	if !c.Type.IsInt() {
		return domain.Unknown
	}
	var d domain.D
	first := true
	for i := fromBlock; i < toBlock && i < len(c.zones); i++ {
		z := c.zones[i]
		if !z.valid {
			continue
		}
		if first {
			d = domain.New(z.min, z.max)
			first = false
		} else {
			d = domain.Union(d, domain.New(z.min, z.max))
		}
	}
	return d
}

// TotalDomain is Domain over all blocks.
func (c *Column) TotalDomain() domain.D { return c.Domain(0, len(c.blocks)) }

// DistinctBound returns an upper bound on the number of distinct values
// in the column, or 0 when no bound is known. For string columns it sums
// the per-block dictionary sizes — loose when the same strings recur
// across blocks, but a true bound, which is what the group-count
// estimate feeding partition-width choice needs (a string column's value
// domain carries no cardinality otherwise). Integer columns are covered
// by TotalDomain's cardinality and return 0 here.
func (c *Column) DistinctBound() int64 {
	if c.Type != vec.Str {
		return 0
	}
	n := int64(0)
	for _, b := range c.blocks {
		n += int64(b.DictLen())
	}
	return n
}

// DictStats sums per-block dictionary sizes, used by the USSR candidate
// statistics of Table III.
func (c *Column) DictStats() (entries int) {
	for _, b := range c.blocks {
		entries += b.DictLen()
	}
	return entries
}

// Footprint returns the column's resident sealed bytes (compressed, the
// form actually held in RAM) against the would-be-plain bytes the same
// data would occupy fully decompressed — the accounting surfaced on
// /metrics and in the bench perf JSON.
func (c *Column) Footprint() (compressed, plain int64) {
	for _, b := range c.blocks {
		nulls := int64(len(b.Nulls))
		switch {
		case b.ZDict != nil:
			compressed += int64(b.ZDict.CompressedBytes()+b.ZCodes.Bytes()) + nulls
			plain += b.ZDict.RawBytes() + 16*int64(b.ZDict.Len()) + 4*int64(b.N) + nulls
		case c.Type == vec.Str:
			p := plainStrBytes(b) + nulls
			compressed += p
			plain += p
		case b.Packed():
			compressed += 8*int64(len(b.PackWords)) + nulls
			plain += int64(c.Type.Width()*b.N) + nulls
		default:
			w := int64(c.Type.Width() * b.N)
			if c.Type == vec.F64 {
				w = 8 * int64(b.N)
			}
			compressed += w + nulls
			plain += w + nulls
		}
	}
	return compressed, plain
}

// Footprint sums the per-column footprints of the table.
func (t *Table) Footprint() (compressed, plain int64) {
	for _, c := range t.Cols {
		cc, pp := c.Footprint()
		compressed += cc
		plain += pp
	}
	return compressed, plain
}

// ScanBlock materializes block bi into out (which must have capacity for
// BlockRows). A string block goes through the same lazily interned
// dictionary view as ViewBlock; since every row is materialized, every
// entry a row uses is interned once. Returns the number of rows.
func (c *Column) ScanBlock(bi int, out *vec.Vector, st *strs.Store) int {
	b := c.blocks[bi]
	if b.Packed() {
		unpackBlockInto(b, c.Type, out)
		return finishScan(b, out)
	}
	switch c.Type {
	case vec.I8:
		copy(out.I8, b.I8)
	case vec.I16:
		copy(out.I16, b.I16)
	case vec.I32:
		copy(out.I32, b.I32)
	case vec.I64:
		copy(out.I64, b.I64)
	case vec.F64:
		copy(out.F64, b.F64)
	case vec.Str:
		var view vec.Vector
		c.ViewBlock(bi, &view, st, nil)
		nulls := out.Nulls
		view.MaterializeInto(out)
		out.Nulls = nulls // finishScan sets the mask
	}
	return finishScan(b, out)
}

// StrAt decodes the single string at (block bi, row) and returns it with
// the number of bytes the access decompressed: for a compressed block only
// the entry's bucket chain is decoded — never the dictionary, never the
// block — which is the point-gather contract the acceptance counter test
// pins. scratch is reused across calls; the returned string aliases it.
func (c *Column) StrAt(bi, row int, scratch []byte) (s []byte, decoded int, scratchOut []byte) {
	if c.Type != vec.Str {
		panic("storage: StrAt on " + c.Type.String())
	}
	b := c.blocks[bi]
	if b.ZDict != nil {
		return b.ZDict.StrAt(int(b.ZCodes.At(row)), scratch)
	}
	v := b.Dict[b.Codes[row]]
	scratch = append(scratch[:0], v...)
	return scratch, 0, scratch
}

// finishScan copies the block's NULL mask into the materialization buffer.
func finishScan(b *Block, out *vec.Vector) int {
	if b.Nulls != nil {
		if out.Nulls == nil || len(out.Nulls) < b.N {
			out.Nulls = make([]bool, out.Len())
		}
		copy(out.Nulls, b.Nulls)
	} else if out.Nulls != nil {
		for i := range out.Nulls {
			out.Nulls[i] = false
		}
	}
	return b.N
}

// unpackBlockInto decompresses a bit-packed block into out's plain slice.
func unpackBlockInto(b *Block, t vec.Type, out *vec.Vector) {
	switch t {
	case vec.I8:
		vec.UnpackRange(b.PackWords, b.PackBits, 0, b.PackMin, out.I8[:b.N])
	case vec.I16:
		vec.UnpackRange(b.PackWords, b.PackBits, 0, b.PackMin, out.I16[:b.N])
	case vec.I32:
		vec.UnpackRange(b.PackWords, b.PackBits, 0, b.PackMin, out.I32[:b.N])
	case vec.I64:
		vec.UnpackRange(b.PackWords, b.PackBits, 0, b.PackMin, out.I64[:b.N])
	default:
		badBlockType(t)
	}
}

// badBlockType panics for a packed block of an unsupported type; hoisted
// out of the hot unpack kernel to keep interface boxing off its code path.
func badBlockType(t vec.Type) {
	panic("storage: packed block of type " + t.String())
}

// ViewBlock configures out as a zero-copy encoded view of block bi — the
// compressed-execution scan path. Plain integer and float blocks alias the
// sealed slices directly; bit-packed blocks become EncPacked vectors over
// the stored words. A string block becomes an EncDict vector: its
// dictionary is decoded once into out's own DictBytes/DictOffs buffers,
// which ViewBlock reuses from call to call (they are the scan's decode
// scratch, and the next call on out overwrites them), and its code table
// — refScratch, resized and zeroed — starts empty. Nothing is interned
// here: a row's first read of an entry interns it through st (with the
// USSR enabled, the paper's scan-side dictionary insertion, Section IV-D,
// now paid only for entries a surviving row uses), and filters build
// their per-code verdicts from the decoded bytes. A caller that passes
// back the previous block's table for reuse must not cache anything by
// that table's identity; exec.Scan passes nil. Per-code caches key on the
// view's DictID instead, which every call stamps afresh (viewIDs), so no
// two views share one, even of the same block. It returns the row count,
// the code table, and the bytes of data actually materialized — the
// decoded dictionary and its code table; everything else is aliased.
func (c *Column) ViewBlock(bi int, out *vec.Vector, st *strs.Store, refScratch []vec.StrRef) (rows int, refs []vec.StrRef, bytes int) {
	b := c.blocks[bi]
	data, offs := out.DictBytes, out.DictOffs
	*out = vec.Vector{Typ: c.Type, Nulls: b.Nulls}
	switch {
	case b.Packed():
		out.Enc = vec.EncPacked
		out.Packed = b.PackWords
		out.PackBits = b.PackBits
		out.PackMin = b.PackMin
		out.PackOff = 0
		out.PackLen = b.N
	case c.Type == vec.Str:
		data, offs = decodeDict(b, data, offs)
		n := b.DictLen()
		if cap(refScratch) < n {
			refScratch = make([]vec.StrRef, n)
		} else {
			refScratch = refScratch[:n]
			clear(refScratch)
		}
		out.Enc = vec.EncDict
		out.DictRefs = refScratch
		//ocht:retain-checked out owns this scratch: it is handed back here on the next view
		out.DictBytes, out.DictOffs = data, offs
		out.DictIntern = st
		out.DictID = viewIDs.Add(1)
		if b.ZDict != nil {
			// Row codes stay bit-packed and alias the sealed words.
			out.Packed = b.ZCodes.Words
			out.PackBits = b.ZCodes.Bits
			out.PackMin = 0
			out.PackOff = 0
			out.PackLen = b.N
		} else {
			out.Codes = b.Codes
		}
		bytes = len(data) + n*8
	default:
		switch c.Type {
		case vec.I8:
			out.I8 = b.I8
		case vec.I16:
			out.I16 = b.I16
		case vec.I32:
			out.I32 = b.I32
		case vec.I64:
			out.I64 = b.I64
		case vec.F64:
			out.F64 = b.F64
		default:
			panic("storage: ViewBlock on " + c.Type.String())
		}
	}
	return b.N, refScratch, bytes
}

// viewIDs hands out the DictID of every dictionary view, process-wide:
// workers view blocks concurrently, and an identity must never repeat.
var viewIDs atomic.Uint64

// decodeDict decodes string block b's dictionary into data and offs,
// reusing their capacity: entry c becomes data[offs[c]:offs[c+1]]. A
// compressed dictionary is decompressed, a plain one copied, so every
// consumer reads entries one way and none allocates per entry.
func decodeDict(b *Block, data []byte, offs []int32) ([]byte, []int32) {
	offs = append(slices.Grow(offs[:0], b.DictLen()+1), 0)
	if b.ZDict != nil {
		return b.ZDict.AppendEntries(slices.Grow(data[:0], int(b.ZDict.RawBytes())), offs)
	}
	data = data[:0]
	for _, s := range b.Dict {
		data = append(data, s...)
		offs = append(offs, int32(len(data)))
	}
	return data, offs
}

// Zone returns the out-of-band zone map of block bi: the min/max over the
// block's non-NULL values, with ok false when unknown (string and float
// columns, or all-NULL blocks). This is the pushdown API zone-map block
// skipping builds on.
func (c *Column) Zone(bi int) (min, max int64, ok bool) {
	z := c.zones[bi]
	return z.min, z.max, z.valid
}

// Table is a named set of equally-long columns.
type Table struct {
	Name string
	Cols []*Column

	byName map[string]int
}

// NewTable creates a table with the given columns.
func NewTable(name string, cols ...*Column) *Table {
	t := &Table{Name: name, Cols: cols, byName: map[string]int{}}
	for i, c := range cols {
		t.byName[c.Name] = i
	}
	return t
}

// Seal seals all columns.
func (t *Table) Seal() {
	for _, c := range t.Cols {
		c.Seal()
	}
}

// Rows returns the row count (of the first column).
func (t *Table) Rows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Rows()
}

// Col returns the column with the given name.
func (t *Table) Col(name string) *Column {
	i, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("storage: table %s has no column %s", t.Name, name))
	}
	return t.Cols[i]
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	i, ok := t.byName[name]
	if !ok {
		return -1
	}
	return i
}

// Catalog maps table names to tables. It is safe for concurrent use:
// readers take a read lock (or pin a Snapshot), writers a write lock, and
// the version counter is read without any lock. Tables themselves are
// immutable once registered — mutation is modeled as replacing a table
// with a new value (copy-on-write, see ExtendTable), so a reader holding
// a *Table from before a replacement keeps a consistent view.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	version atomic.Uint64
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: map[string]*Table{}} }

// Add registers (or replaces) a table and bumps the catalog version.
func (c *Catalog) Add(t *Table) {
	c.mu.Lock()
	c.tables[t.Name] = t
	c.version.Add(1)
	c.mu.Unlock()
}

// Version counts catalog mutations. Plan caches key on it so a cached
// plan is never reused against a catalog whose tables changed.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Table looks a table up by name.
func (c *Catalog) Table(name string) *Table {
	t, ok := c.TableOK(name)
	if !ok {
		panic("storage: unknown table " + name)
	}
	return t
}

// TableOK looks a table up by name without panicking.
func (c *Catalog) TableOK(name string) (*Table, bool) {
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	return t, ok
}

// Tables returns the number of registered tables.
func (c *Catalog) Tables() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tables)
}

// Names returns the registered table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Snapshot pins the current catalog contents. The snapshot is immutable:
// concurrent Adds replace tables in the catalog but never mutate the
// tables the snapshot references, so a query planned and executed against
// a snapshot sees one frozen row count per table no matter how many
// commits land while it runs.
func (c *Catalog) Snapshot() *Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tabs := make(map[string]*Table, len(c.tables))
	for n, t := range c.tables {
		tabs[n] = t
	}
	return &Snapshot{tables: tabs, version: c.version.Load()}
}

// Snapshot is an immutable view of a catalog at one version.
type Snapshot struct {
	tables  map[string]*Table
	version uint64
}

// Table looks a table up by name.
func (s *Snapshot) Table(name string) *Table {
	t, ok := s.tables[name]
	if !ok {
		panic("storage: unknown table " + name)
	}
	return t
}

// TableOK looks a table up by name without panicking.
func (s *Snapshot) TableOK(name string) (*Table, bool) {
	t, ok := s.tables[name]
	return t, ok
}

// Version is the catalog version the snapshot was taken at.
func (s *Snapshot) Version() uint64 { return s.version }

// Tables returns the number of tables in the snapshot.
func (s *Snapshot) Tables() int { return len(s.tables) }

// Names returns the snapshot's table names, sorted.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExtendTable builds a new table whose columns hold base's sealed blocks
// followed by delta's — the copy-on-write append step of the ingest write
// path. Block and zone-map slices are freshly allocated so the result
// shares no mutable state with base; the blocks themselves are shared,
// which is safe because sealed blocks are never written again. Both
// tables must be sealed and schema-identical.
func ExtendTable(base, delta *Table) *Table {
	if len(base.Cols) != len(delta.Cols) {
		panic(fmt.Sprintf("storage: ExtendTable %s: %d vs %d columns",
			base.Name, len(base.Cols), len(delta.Cols)))
	}
	cols := make([]*Column, len(base.Cols))
	for i, bc := range base.Cols {
		dc := delta.Cols[i]
		if bc.cur != nil || dc.cur != nil {
			panic("storage: ExtendTable on unsealed column " + bc.Name)
		}
		if bc.Type != dc.Type || bc.Name != dc.Name {
			panic(fmt.Sprintf("storage: ExtendTable %s: column %d mismatch (%s %s vs %s %s)",
				base.Name, i, bc.Name, bc.Type, dc.Name, dc.Type))
		}
		nc := &Column{Name: bc.Name, Type: bc.Type, Nullable: bc.Nullable || dc.Nullable}
		nc.blocks = make([]*Block, 0, len(bc.blocks)+len(dc.blocks))
		nc.blocks = append(append(nc.blocks, bc.blocks...), dc.blocks...)
		nc.zones = make([]zoneMap, 0, len(bc.zones)+len(dc.zones))
		nc.zones = append(append(nc.zones, bc.zones...), dc.zones...)
		cols[i] = nc
	}
	return NewTable(base.Name, cols...)
}
