package exec

import (
	"time"

	"ocht/internal/storage"
	"ocht/internal/vec"
)

// Scan reads a stored table block by block. By default it emits each block
// in its stored encoding — dictionary codes with a per-block reference
// table for strings, whose entries are interned (primed into the USSR,
// Section IV-D) when a row first reads them, frame-of-reference
// packed words for narrow integers — as zero-copy views, and uses the
// out-of-band zone maps (Section II-A) both for domain derivation and to
// skip blocks that cannot satisfy pushed-down predicate ranges. With
// qc.EagerMaterialize it decompresses every block into plain vectors, the
// classic pipeline all operators still accept.
type Scan struct {
	Table   *storage.Table
	Columns []string

	// Morsels, when set, makes the scan claim row-sized morsels
	// (storage.MorselRows) of its table from a shared morsel queue
	// instead of walking whole blocks sequentially; this is how the
	// parallel driver distributes one table over many cloned pipelines.
	// When nil (serial execution) block order is exactly 0..Blocks-1.
	Morsels *storage.MorselQueue

	// MorselWorker identifies this scan's worker to an affinity morsel
	// queue: claims drain the worker's own contiguous morsel range before
	// stealing from others (storage.NewMorselQueueAffinity). Ignored by
	// single-range queues.
	MorselWorker int

	// Zones holds conjunctive per-column value ranges pushed down from the
	// predicate directly above the scan (Filter.Open derives and attaches
	// them). A block whose zone map proves some range unsatisfiable is
	// skipped without touching its data. Rows of surviving blocks still
	// flow through the filter, so zone ranges are purely an optimization.
	Zones []ZoneRange

	cols   []*storage.Column
	zcols  []*storage.Column // resolved Zones columns, parallel to Zones
	meta   []Meta
	bufs   []*vec.Vector // eager materialization buffers (eager path only)
	views  []*vec.Vector // per-column whole-block views, reused per block
	win    []*vec.Vector // per-column window views handed out, reused per Next
	out    *vec.Batch
	block  int // serial cursor: the next block to read
	viewed int // block the views (or eager buffers) hold, -1 for none
	pos    int // next row of the current range within the viewed block
	end    int // end of the current range
	eager  bool
}

// NewScan creates a scan over the named columns (all columns when nil).
func NewScan(t *storage.Table, columns ...string) *Scan {
	if len(columns) == 0 {
		for _, c := range t.Cols {
			columns = append(columns, c.Name)
		}
	}
	return &Scan{Table: t, Columns: columns}
}

// Meta implements Op.
func (s *Scan) Meta() []Meta {
	if s.meta == nil {
		for _, name := range s.Columns {
			c := s.Table.Col(name)
			s.meta = append(s.meta, Meta{
				Name:     name,
				Type:     c.Type,
				Dom:      c.TotalDomain(),
				Nullable: c.Nullable,
				Distinct: c.DistinctBound(),
			})
		}
	}
	return s.meta
}

// MaxRows implements Op.
func (s *Scan) MaxRows() int64 { return int64(s.Table.Rows()) }

// Open implements Op.
func (s *Scan) Open(qc *QCtx) {
	s.Meta()
	s.eager = qc.EagerMaterialize
	s.cols = s.cols[:0]
	for _, name := range s.Columns {
		s.cols = append(s.cols, s.Table.Col(name))
	}
	if s.eager {
		s.bufs = s.bufs[:0]
		for _, c := range s.cols {
			buf := vec.New(c.Type, storage.BlockRows)
			if c.Nullable {
				buf.Nulls = make([]bool, storage.BlockRows)
			}
			s.bufs = append(s.bufs, buf)
		}
	}
	if len(s.views) != len(s.cols) {
		s.views = make([]*vec.Vector, len(s.cols))
		s.win = make([]*vec.Vector, len(s.cols))
		for i := range s.views {
			s.views[i] = &vec.Vector{}
			s.win[i] = &vec.Vector{}
		}
	}
	s.zcols = s.zcols[:0]
	for _, zr := range s.Zones {
		s.zcols = append(s.zcols, s.Table.Col(zr.Col))
	}
	s.out = &vec.Batch{Vecs: make([]*vec.Vector, len(s.cols))}
	s.block, s.viewed, s.pos, s.end = 0, -1, 0, 0
}

// Next implements Op.
func (s *Scan) Next(qc *QCtx) *vec.Batch {
	qc.checkCancel() // scans are the leaves every pull loop bottoms out in
	for s.pos >= s.end {
		if !s.advance(qc) {
			return nil
		}
	}
	n := min(s.end-s.pos, vec.Size)
	for i := range s.cols {
		src := s.views[i]
		if s.eager {
			src = s.bufs[i]
		}
		windowInto(s.win[i], src, s.pos, n)
		s.out.Vecs[i] = s.win[i]
	}
	s.out.Sel = nil
	s.out.N = n
	s.pos += n
	return s.out
}

// advance moves the scan to its next row range that survives zone
// skipping: the next whole block when serial, the next claimed morsel
// otherwise. The zone verdict is per block. Each block counts as read or
// skipped once, on the range that starts it, whichever worker claims it;
// the views are decoded only when the range lies in another block than
// the last, so consecutive morsels of one block share one decode.
func (s *Scan) advance(qc *QCtx) bool {
	for {
		bi, lo, hi, ok := s.nextRange()
		if !ok {
			return false
		}
		skip := s.skipBlock(qc, bi)
		if lo == 0 {
			if skip {
				qc.Stats.Count(CtrBlocksSkipped, 1)
			} else {
				qc.Stats.Count(CtrBlocksRead, 1)
			}
		}
		if skip {
			continue
		}
		if bi != s.viewed {
			s.view(qc, bi)
		}
		s.pos, s.end = lo, hi
		return true
	}
}

// view decodes block bi of every scanned column into the scan's views —
// or, eagerly, into its materialization buffers.
func (s *Scan) view(qc *QCtx, bi int) {
	start := time.Now()
	bytes := 0
	for i, c := range s.cols {
		if s.eager {
			bytes += c.ScanBlock(bi, s.bufs[i], qc.Store) * c.Type.Width()
		} else {
			// Each block gets a fresh code table: string comparisons
			// cache per-code verdicts by the table's identity, so a
			// reused one would keep the last block's verdicts.
			_, _, db := c.ViewBlock(bi, s.views[i], qc.Store, nil)
			bytes += db
		}
	}
	s.viewed = bi
	qc.Stats.Count(CtrBytesDecompressed, int64(bytes))
	qc.Stats.Add(StatScan, time.Since(start))
}

// skipBlock reports whether block bi provably fails a pushed-down range.
// NULL rows never satisfy a comparison predicate and zone maps cover only
// non-NULL values, so skipping on the zone interval is exact.
func (s *Scan) skipBlock(qc *QCtx, bi int) bool {
	if qc.DisableZoneSkip || len(s.zcols) == 0 {
		return false
	}
	for i, zr := range s.Zones {
		min, max, ok := s.zcols[i].Zone(bi)
		if ok && (max < zr.Lo || min > zr.Hi) {
			return true
		}
	}
	return false
}

// nextRange claims the next row range [lo, hi) of block bi to read: a
// morsel from the queue when one is attached, the next whole block
// otherwise.
func (s *Scan) nextRange() (bi, lo, hi int, ok bool) {
	if len(s.cols) == 0 {
		return 0, 0, 0, false
	}
	if s.Morsels != nil {
		return s.Morsels.NextRows(s.MorselWorker)
	}
	if s.block >= s.cols[0].Blocks() {
		return 0, 0, 0, false
	}
	bi = s.block
	s.block++
	return bi, 0, s.cols[0].Block(bi).N, true
}

// windowInto points out at the window [pos, pos+n) of v without copying
// and without allocating: the same scratch vector is rewritten every Next.
// Encoded views stay encoded — dictionary windows share the block's code
// table and identity (DictID), packed windows shift their word offset.
//
//ocht:hot
func windowInto(out, v *vec.Vector, pos, n int) {
	w := vec.Vector{Typ: v.Typ, Enc: v.Enc}
	if v.Nulls != nil {
		w.Nulls = v.Nulls[pos : pos+n]
	}
	switch v.Enc {
	case vec.EncDict:
		if v.Codes != nil {
			w.Codes = v.Codes[pos : pos+n]
		} else {
			// Bit-packed codes from a compressed sealed block: the window
			// shares the words and shifts its offset, like EncPacked.
			w.Packed = v.Packed
			w.PackBits = v.PackBits
			w.PackOff = v.PackOff + pos
			w.PackLen = n
		}
		w.DictRefs, w.DictID = v.DictRefs, v.DictID
		//ocht:retain-checked a window lives no longer than the block view whose decode scratch it shares
		w.DictBytes, w.DictOffs, w.DictIntern = v.DictBytes, v.DictOffs, v.DictIntern
	case vec.EncPacked:
		w.Packed = v.Packed
		w.PackBits = v.PackBits
		w.PackMin = v.PackMin
		w.PackOff = v.PackOff + pos
		w.PackLen = n
	default:
		switch v.Typ {
		case vec.Bool:
			w.Bool = v.Bool[pos : pos+n]
		case vec.I8:
			w.I8 = v.I8[pos : pos+n]
		case vec.I16:
			w.I16 = v.I16[pos : pos+n]
		case vec.I32:
			w.I32 = v.I32[pos : pos+n]
		case vec.I64:
			w.I64 = v.I64[pos : pos+n]
		case vec.I128:
			w.I128 = v.I128[pos : pos+n]
		case vec.F64:
			w.F64 = v.F64[pos : pos+n]
		case vec.Str:
			w.Str = v.Str[pos : pos+n]
		}
	}
	*out = w
}
