// Package fixture seeds zero-copy view lifetime violations. Dict/Column
// mirror the storage layer's scratch-returning accessors by name.
//
//ocht:path ocht/internal/storage
package fixture

// StrRef mirrors vec.StrRef.
type StrRef struct{ Off, Len uint32 }

// Dict decodes strings into a shared scratch buffer.
type Dict struct {
	scratch []byte
}

// StrAt returns the i'th string's bytes, aliasing the scratch: valid only
// until the next StrAt call.
func (d *Dict) StrAt(i int) []byte {
	_ = i
	return d.scratch
}

// Column owns per-column view scratch.
type Column struct {
	refScratch []StrRef
	dict       Dict
}

// ViewBlock returns zero-copy refs into the column's scratch.
func (c *Column) ViewBlock(i int) (int, []StrRef, []byte) {
	_ = i
	return len(c.refScratch), c.refScratch, nil
}

// Block exposes the compressed code words of a sealed block.
type Block struct{ ZCodes []uint32 }

type holder struct {
	refs  []StrRef
	bytes []byte
}

type cache struct{ codes []uint32 }

var global []byte

// escapeField parks view refs in a struct field: use-after-overwrite.
func escapeField(c *Column, h *holder) {
	_, refs, _ := c.ViewBlock(0)
	h.refs = refs // want "stored into field h.refs"
}

// escapeGlobal leaks scratch bytes into a package variable.
func escapeGlobal(d *Dict) {
	global = d.StrAt(3) // want "package variable global"
}

// escapeMap parks scratch bytes in a map.
func escapeMap(d *Dict, m map[int][]byte) {
	m[7] = d.StrAt(7) // want "element m[7]"
}

// escapeZCodes retains a sealed block's compressed words.
func escapeZCodes(b *Block, c *cache) {
	c.codes = b.ZCodes // want "stored into field c.codes"
}

// rawName wraps a view accessor under another name: it earns the view
// fact, so its callers' results taint too.
func rawName(d *Dict) []byte { return d.StrAt(0) }

// escapeViaWrapper shows the fact propagating through rawName.
func escapeViaWrapper(d *Dict, h *holder) {
	h.bytes = rawName(d) // want "stored into field h.bytes"
}

// copies shows the sanctioned escapes: conversions and appends copy.
func copies(d *Dict, h *holder) string {
	name := string(d.StrAt(1))                   // string() copies
	h.bytes = append([]byte(nil), d.StrAt(2)...) // append copies
	return name
}

// localUse is the intended pattern: consume the view before the next call.
func localUse(d *Dict) int {
	b := d.StrAt(4)
	n := 0
	for _, x := range b {
		n += int(x)
	}
	return n
}

// retained documents an audited store: the holder owns the scratch and
// hands it back on the next call.
func retained(c *Column, h *holder) {
	_, refs, _ := c.ViewBlock(0)
	//ocht:retain-checked h owns this scratch and passes it back to the next ViewBlock
	h.refs = refs
}

// suppressed shows the generic allow escape hatch also applies.
func suppressed(b *Block, c *cache) {
	//ocht:allow(viewlife) cache is invalidated before the block is resealed
	c.codes = b.ZCodes
}

// Vector mirrors vec.Vector's lazily interned dictionary view: DictBytes
// and DictOffs alias the scan's decode scratch, which the next block view
// overwrites.
type Vector struct {
	DictRefs  []StrRef
	DictBytes []byte
	DictOffs  []int32
}

// DictEntry returns entry c's bytes, aliasing the decode scratch.
func (v *Vector) DictEntry(c int32) []byte {
	return v.DictBytes[v.DictOffs[c]:v.DictOffs[c+1]]
}

// escapeDictEntry parks a decoded entry in a field: the next block's
// decode overwrites it.
func escapeDictEntry(v *Vector, h *holder) {
	h.bytes = v.DictEntry(3) // want "stored into field h.bytes"
}

// escapeDictScratch keeps the whole decode scratch.
func escapeDictScratch(v *Vector, h *holder) {
	h.bytes = v.DictBytes // want "stored into field h.bytes"
}

// escapeDictViaLocal shows the taint following a local alias.
func escapeDictViaLocal(v *Vector, m map[int][]byte) {
	e := v.DictEntry(1)
	m[1] = e // want "element m[1]"
}

// dictUses are the sanctioned reads: compare or copy the entry, keep the
// code table (its references outlive the scratch).
func dictUses(v *Vector, h *holder) bool {
	h.refs = v.DictRefs
	h.bytes = append(h.bytes[:0], v.DictEntry(2)...)
	return string(v.DictEntry(0)) == "north"
}

// window shares a block view's scratch with a window over it: audited.
func window(dst, src *Vector) {
	//ocht:retain-checked the window lives no longer than the view it slices
	dst.DictBytes, dst.DictOffs = src.DictBytes, src.DictOffs
}
