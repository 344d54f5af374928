package main

import (
	"fmt"
	"time"

	"ocht/internal/agg"
	"ocht/internal/blockzip"
	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/exec"
	"ocht/internal/hashtab"
	"ocht/internal/join"
	"ocht/internal/pack"
	"ocht/internal/storage"
	"ocht/internal/strs"
	"ocht/internal/ussr"
	"ocht/internal/vec"
)

// Layer probes time direct calls into each module's public functions on
// inputs taken from the workload's own catalog. They run in the traced run
// only, each as a span of at most probeBudget (or three passes).

const (
	probeBudget  = 120 * time.Millisecond
	maxProbeRows = 1 << 18 // rows of the fact table the kernel probes read
	maxProbeStrs = 1 << 15 // dictionary strings the string probes read
	buildKeep    = 16      // build side keeps keys whose hash % buildKeep == 0: a selective join
	partBits     = 4       // radix width of the partitioned-probe table
)

// probeSpec names the catalog columns the probes read.
type probeSpec struct {
	fact       string // the workload's largest table
	keyA, keyB string // two integer columns of fact: packed together, keyA is the group/probe key
	sum        string // integer measure of fact
	dim        string // build side of the kernel-level join: dim.dimKey matched by fact.keyA
	dimKey     string
	dimPayload string
	strTable   string // dictionary strings for ussr/strs/blockzip and the StrAt probes
	strCol     string

	// Operator micro-plans: scan fact(scanCols) → filter(filterCol >= filterMin)
	// → join(planDim on planFactKey = planDimKey, fetching planPayload)
	// → group by groupCol with SUM(sum), COUNT(*).
	scanCols    []string
	filterCol   string
	filterMin   int64
	planDim     string
	planFactKey string
	planDimKey  string
	planPayload string
	groupCol    string
}

var tpchProbeSpec = probeSpec{
	fact: "lineitem", keyA: "l_orderkey", keyB: "l_suppkey", sum: "l_extendedprice",
	dim: "orders", dimKey: "o_orderkey", dimPayload: "o_custkey",
	strTable: "orders", strCol: "o_comment",
	scanCols:  []string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_quantity"},
	filterCol: "l_quantity", filterMin: 2,
	planDim: "orders", planFactKey: "l_orderkey", planDimKey: "o_orderkey", planPayload: "o_custkey",
	groupCol: "l_suppkey",
}

// bi has no integer foreign key; the kernel-level join builds on the
// distinct office ids, the operator-level one is the workload's own
// string-keyed contracts ⋈ vendors.
var biProbeSpec = probeSpec{
	fact: "contracts", keyA: "office_id", keyB: "year", sum: "amount",
	dim: "contracts", dimKey: "office_id", dimPayload: "year",
	strTable: "contracts", strCol: "product",
	scanCols:  []string{"vendor", "agency", "amount"},
	filterCol: "amount", filterMin: 200_000,
	planDim: "vendors", planFactKey: "vendor", planDimKey: "v_name", planPayload: "v_state",
	groupCol: "agency",
}

type prober struct {
	tr     *tracer
	parent int
	m      map[string]float64
}

// measure runs pass until the budget is used (at least three times) and
// records the median time per unit under name. pass returns the time spent
// in the calls being measured, so its own set-up stays outside.
func (p *prober) measure(name string, units int, pass func() time.Duration) {
	start := time.Now()
	var per []float64
	for len(per) < 3 || (time.Since(start) < probeBudget && len(per) < 100) {
		per = append(per, float64(pass().Nanoseconds())/float64(units))
	}
	p.tr.add(p.parent, "probe:"+name, start, time.Now())
	p.m[name] = median(per)
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// intCol is an integer column loaded into one plain vector of the column's
// own type, at most maxProbeRows long.
type intCol struct {
	name string
	v    *vec.Vector
	dom  domain.D
	n    int
}

func loadInt(t *storage.Table, name string) (intCol, error) {
	c := t.Col(name)
	if c == nil || !c.Type.IsInt() {
		return intCol{}, fmt.Errorf("%s.%s is not an integer column", t.Name, name)
	}
	n := t.Rows()
	if n > maxProbeRows {
		n = maxProbeRows
	}
	out := intCol{name: name, v: vec.New(c.Type, n), dom: c.TotalDomain(), n: n}
	buf := vec.New(c.Type, storage.BlockRows)
	for bi, at := 0, 0; at < n; bi++ {
		rows := c.ScanBlock(bi, buf, nil)
		for i := 0; i < rows && at < n; i, at = i+1, at+1 {
			out.v.SetInt64(at, buf.Int64At(i))
		}
	}
	return out, nil
}

func (c intCol) packCol() pack.Col   { return pack.Col{Name: c.name, Type: c.v.Typ, Dom: c.dom} }
func (c intCol) keyCol() core.KeyCol { return core.KeyCol{Name: c.name, Type: c.v.Typ, Dom: c.dom} }

// chunks cuts the identity selection 0..n-1 into vec.Size-row selection
// vectors over one long physical vector.
func chunks(n int) [][]int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	var out [][]int32
	for at := 0; at < n; at += vec.Size {
		end := at + vec.Size
		if end > n {
			end = n
		}
		out = append(out, idx[at:end])
	}
	return out
}

// dictStrings returns the distinct strings of the column's first block.
func dictStrings(c *storage.Column) []string {
	b := c.Block(0)
	var out []string
	if b.ZDict != nil {
		b.ZDict.ForEach(func(_ int, s []byte) {
			if len(out) < maxProbeStrs {
				out = append(out, string(s))
			}
		})
		return out
	}
	out = b.Dict
	if len(out) > maxProbeStrs {
		out = out[:maxProbeStrs]
	}
	return out
}

// runProbes measures every module metric that needs nothing but a catalog.
func runProbes(cat *storage.Catalog, spec probeSpec, tr *tracer, parent int, m map[string]float64) error {
	p := &prober{tr: tr, parent: parent, m: m}
	fact := cat.Table(spec.fact)
	keyA, err := loadInt(fact, spec.keyA)
	if err != nil {
		return err
	}
	keyB, err := loadInt(fact, spec.keyB)
	if err != nil {
		return err
	}
	sum, err := loadInt(fact, spec.sum)
	if err != nil {
		return err
	}
	dimKey, err := loadInt(cat.Table(spec.dim), spec.dimKey)
	if err != nil {
		return err
	}
	dimPay, err := loadInt(cat.Table(spec.dim), spec.dimPayload)
	if err != nil {
		return err
	}
	if err := p.pack(fact, keyA, keyB); err != nil {
		return err
	}
	if err := p.hashTables(keyA, sum, dimKey, dimPay); err != nil {
		return err
	}
	strCol := cat.Table(spec.strTable).Col(spec.strCol)
	if err := p.strings(strCol); err != nil {
		return err
	}
	p.storage(cat, []*storage.Column{fact.Col(spec.keyA), fact.Col(spec.keyB), fact.Col(spec.sum), strCol})
	return p.operators(cat, spec)
}

func (p *prober) pack(fact *storage.Table, a, b intCol) error {
	cols := []pack.Col{a.packCol(), b.packCol()}
	plan, err := pack.ChoosePlan(cols)
	if err != nil {
		return err
	}
	n := a.n
	vecs := []*vec.Vector{a.v, b.v}
	sel := chunks(n)
	stride := plan.RecordBytes()
	recs := make([]byte, n*stride+8)
	scratch := make([]uint64, n)
	p.measure("pack.pack_ns_row", n, func() time.Duration {
		return timed(func() {
			for _, rows := range sel {
				plan.PackRecords(vecs, rows, recs, rows, stride, 0, scratch)
			}
		})
	})
	out := vec.New(a.v.Typ, n)
	p.measure("pack.unpack_ns_row", n, func() time.Duration {
		return timed(func() {
			for _, rows := range sel {
				plan.UnpackColumn(0, recs, rows, stride, 0, out, rows)
			}
		})
	})
	for i := 0; i < n; i++ {
		if out.Int64At(i) != a.v.Int64At(i) {
			return fmt.Errorf("pack probe: row %d of %s unpacks to %d, want %d", i, a.name, out.Int64At(i), a.v.Int64At(i))
		}
	}
	p.m["pack.bytes_per_key"] = float64(plan.RecordBytes()) / float64(pack.UncompressedBytes(cols))

	words := make([]uint64, n)
	for i := range words {
		words[i] = uint64(a.v.Int64At(i))
	}
	hashes := make([]uint64, n)
	p.measure("pack.mix64_ns_row", n, func() time.Duration {
		return timed(func() { pack.Mix64Batch(words, hashes, n) })
	})

	// SWAR compare runs on a sealed block's own packed words.
	for _, c := range fact.Cols {
		if !c.Type.IsInt() || c.Blocks() == 0 {
			continue
		}
		if b := c.Block(0); b.Packed() && b.PackBits <= 32 {
			verdict := make([]bool, b.N)
			mid := uint64(1) << uint(b.PackBits) / 2
			p.measure("pack.swarcmp_ns_row", b.N, func() time.Duration {
				return timed(func() { pack.SwarCmpConst(b.PackWords, b.PackBits, 0, b.N, mid, pack.CmpLE, verdict) })
			})
			break
		}
	}
	return nil
}

// hashTables probes core, agg, hashtab and join with the fact table's key
// as the group/probe key and a selective subset of the dimension's keys as
// the join build side.
func (p *prober) hashTables(key, sum, dimKey, dimPay intCol) error {
	flags := core.All()
	n := key.n
	sel := chunks(n)
	cols := []*vec.Vector{key.v}
	hashes := make([]uint64, n)
	recOut := make([]int32, n)

	// Grouped aggregation: FindOrInsert + SUM/COUNT update per vector.
	specs := []agg.Spec{
		{Func: agg.Sum, InType: sum.v.Typ, InDom: sum.dom, MaxRows: int64(n)},
		{Func: agg.CountStar, MaxRows: int64(n)},
	}
	ag := agg.NewAggregator(flags, specs)
	groupSchema, err := core.NewKeySchema(flags, []core.KeyCol{key.keyCol()}, nil)
	if err != nil {
		return err
	}
	// Pre-size the directory from the key's domain, as the operators do
	// from their cardinality estimates.
	hint := n
	if card := key.dom.Cardinality(); card < uint64(n) {
		hint = int(card)
	}
	var groups *core.Table
	var build, update []float64
	start := time.Now()
	for len(build) < 3 || (time.Since(start) < 2*probeBudget && len(build) < 100) {
		groups = core.NewTable(groupSchema, ag.HotBytes, ag.ColdBytes, hint)
		var tb, tu time.Duration
		for _, rows := range sel {
			pr := groupSchema.Prepare(cols, rows)
			groupSchema.Hash(pr, rows, hashes)
			t0 := time.Now()
			_, newRecs := groups.FindOrInsert(pr, hashes, rows, recOut)
			t1 := time.Now()
			ag.Init(groups, newRecs)
			ag.Update(groups, 0, recOut, rows, sum.v)
			ag.Update(groups, 1, recOut, rows, nil)
			tb += t1.Sub(t0)
			tu += time.Since(t1)
		}
		build = append(build, float64(tb.Nanoseconds())/float64(n))
		update = append(update, float64(tu.Nanoseconds())/float64(n))
	}
	p.tr.add(p.parent, "probe:core.build_ns_row+agg.update_ns_row", start, time.Now())
	p.m["core.build_ns_row"] = median(build)
	p.m["agg.update_ns_row"] = median(update)
	p.m["core.hot_bytes_per_rec"] = float64(groups.HotAreaBytes()) / float64(groups.Len())
	p.m["core.cold_bytes_per_rec"] = float64(groups.ColdAreaBytes()) / float64(groups.Len())

	// The paper's columnar opsum kernel over the same group ids.
	values := make([]int64, n)
	for i := range values {
		values[i] = sum.v.Int64At(i)
	}
	common := make([]uint64, groups.Len())
	except := make([]int64, groups.Len())
	p.measure("agg.opsum_ns_row", n, func() time.Duration {
		return timed(func() { agg.OpSum(common, except, recOut, values) })
	})
	for i := range common {
		common[i], except[i] = 0, 0
	}
	agg.OpSum(common, except, recOut, values)
	counts := make([]uint16, groups.Len())
	flushed := make([]uint64, groups.Len())
	agg.OpCount16(counts, flushed, recOut)
	exceptions := 0.0
	for i := range except {
		if except[i] < 0 {
			exceptions -= float64(except[i])
		} else {
			exceptions += float64(except[i])
		}
		exceptions += float64(flushed[i] / 0xFFFF)
	}
	p.m["agg.exception_share"] = exceptions / float64(2*n)

	// Join build side: the dimension keys that survive a 1-in-buildKeep
	// filter, as one long vector.
	var keep []int
	for i := 0; i < dimKey.n; i++ {
		if pack.Mix64(uint64(dimKey.v.Int64At(i)))%buildKeep == 0 {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return fmt.Errorf("join probe: no build rows kept from %s", dimKey.name)
	}
	seen := map[int64]bool{}
	bk := vec.New(dimKey.v.Typ, len(keep))
	bp := vec.New(dimPay.v.Typ, len(keep))
	nb := 0
	for _, i := range keep {
		k := dimKey.v.Int64At(i)
		if seen[k] {
			continue
		}
		seen[k] = true
		bk.SetInt64(nb, k)
		bp.SetInt64(nb, dimPay.v.Int64At(i))
		nb++
	}
	bsel := chunks(nb)
	bcols := []*vec.Vector{bk}
	bhashes := make([]uint64, nb)
	brecs := make([]int32, nb)
	keyDef := []core.KeyCol{dimKey.keyCol()}
	joinSchema, err := core.NewKeySchema(flags, keyDef, nil)
	if err != nil {
		return err
	}

	var mono *core.Table
	p.measure("core.insert_ns_row", nb, func() time.Duration {
		mono = core.NewTable(joinSchema, 0, 0, nb)
		var d time.Duration
		for _, rows := range bsel {
			pr := joinSchema.Prepare(bcols, rows)
			joinSchema.Hash(pr, rows, bhashes)
			d += timed(func() { mono.InsertBatch(pr, bhashes, rows, brecs) })
		}
		return d
	})
	part := core.NewPartTable(joinSchema, 0, 0, nb, partBits)
	bloom := hashtab.NewBloom(nb)
	for _, rows := range bsel {
		pr := joinSchema.Prepare(bcols, rows)
		joinSchema.Hash(pr, rows, bhashes)
		for pi, prows := range part.PartitionRows(bhashes, rows) {
			part.Part(pi).InsertBatch(pr, bhashes, prows, brecs)
		}
		for _, r := range rows {
			bloom.Add(bhashes[r])
		}
	}

	var outRows, outRecs []int32
	matches := 0
	p.measure("core.probe_ns_row", n, func() time.Duration {
		var d time.Duration
		matches = 0
		for _, rows := range sel {
			pr := joinSchema.Prepare(cols, rows)
			joinSchema.Hash(pr, rows, hashes)
			d += timed(func() { outRows, outRecs = mono.ProbeChains(pr, hashes, rows, outRows[:0], outRecs[:0]) })
			matches += len(outRows)
		}
		return d
	})
	heads := make([]int32, vec.Size)
	partMatches := 0
	p.measure("core.probe_part_ns_row", n, func() time.Duration {
		var d time.Duration
		partMatches = 0
		for _, rows := range sel {
			pr := joinSchema.Prepare(cols, rows)
			joinSchema.Hash(pr, rows, hashes)
			d += timed(func() {
				outRows, outRecs = part.ProbeChainsStaged(pr, hashes, rows, heads, outRows[:0], outRecs[:0])
			})
			partMatches += len(outRows)
		}
		return d
	})
	if matches != partMatches {
		return fmt.Errorf("core probe: monolithic table matched %d rows, partitioned %d", matches, partMatches)
	}

	survivors := 0
	p.measure("hashtab.bloom_filter_ns_row", n, func() time.Duration {
		var d time.Duration
		survivors = 0
		for _, rows := range sel {
			pr := joinSchema.Prepare(cols, rows)
			joinSchema.Hash(pr, rows, hashes)
			d += timed(func() { outRows = bloom.Filter(hashes, rows, outRows[:0]) })
			survivors += len(outRows)
		}
		return d
	})
	if survivors < matches {
		return fmt.Errorf("bloom probe: %d survivors but %d rows match", survivors, matches)
	}
	p.m["hashtab.bloom_shed_share"] = 1 - float64(survivors)/float64(n)

	payload := []join.PayloadCol{{Name: dimPay.name, Type: dimPay.v.Typ, Dom: dimPay.dom}}
	opts := join.Options{Selective: true, CapacityHint: nb, EstRows: int64(nb), PartitionBits: -1}
	var j *join.Join
	pcols := []*vec.Vector{bp}
	var joinErr error
	p.measure("join.build_ns_row", nb, func() time.Duration {
		j, joinErr = join.New(flags, keyDef, payload, strs.NewStore(true), opts)
		if joinErr != nil {
			return 0
		}
		return timed(func() {
			for _, rows := range bsel {
				j.Build(bcols, pcols, rows)
			}
		})
	})
	if joinErr != nil {
		return joinErr
	}
	joinMatches := 0
	p.measure("join.probe_ns_row", n, func() time.Duration {
		joinMatches = 0
		return timed(func() {
			for _, rows := range sel {
				outRows, outRecs = j.ProbeStaged(j.PrepareProbe(cols, rows), outRows[:0], outRecs[:0])
				joinMatches += len(outRows)
			}
		})
	})
	if joinMatches != matches {
		return fmt.Errorf("join probe matched %d rows, core probe %d", joinMatches, matches)
	}
	if checked, dropped := j.BloomStats(); checked > 0 {
		p.m["join.bloom_dropped_share"] = float64(dropped) / float64(checked)
	}
	return nil
}

// strings probes ussr, strs, blockzip and Column.StrAt on one block's
// dictionary strings.
func (p *prober) strings(c *storage.Column) error {
	if c == nil || c.Type != vec.Str || c.Blocks() == 0 {
		return fmt.Errorf("string probe column is missing or not a string column")
	}
	dict := dictStrings(c)
	n := len(dict)
	if n == 0 {
		return fmt.Errorf("string probe column %s has an empty dictionary", c.Name)
	}

	u := ussr.New()
	p.measure("ussr.insert_ns", n, func() time.Duration {
		u.Reset()
		return timed(func() {
			for _, s := range dict {
				u.Insert(s)
			}
		})
	})
	st := u.Stats()
	p.m["ussr.resident_share"] = float64(st.Count) / float64(n)
	p.m["ussr.size_kb"] = float64(st.SizeBytes) / 1024
	found := 0
	p.measure("ussr.lookup_ns", n, func() time.Duration {
		found = 0
		return timed(func() {
			for _, s := range dict {
				if _, ok := u.Lookup(s); ok {
					found++
				}
			}
		})
	})
	if found != st.Count {
		return fmt.Errorf("ussr probe: %d strings resident but %d found", st.Count, found)
	}

	refs := make([]vec.StrRef, n)
	var store *strs.Store
	p.measure("strs.intern_ns", n, func() time.Duration {
		store = strs.NewStore(true)
		return timed(func() {
			for i, s := range dict {
				refs[i] = store.Intern(s)
			}
		})
	})
	var sink uint64
	p.measure("strs.hash_ns", n, func() time.Duration {
		return timed(func() {
			for _, r := range refs {
				sink ^= store.Hash(r)
			}
		})
	})
	_ = sink

	ordered, _ := blockzip.SortWithPermutation(dict)
	var zd *blockzip.Dict
	var buildErr error
	p.measure("blockzip.build_ns_str", n, func() time.Duration {
		return timed(func() { zd, buildErr = blockzip.Build(ordered, 0) })
	})
	if buildErr != nil {
		return buildErr
	}
	p.m["blockzip.ratio"] = float64(zd.CompressedBytes()) / float64(zd.RawBytes())
	// Point accesses in a fixed scattered order.
	const stride = 7919
	var buf []byte
	decoded := 0
	p.measure("blockzip.strat_ns", n, func() time.Duration {
		decoded = 0
		return timed(func() {
			for i, at := 0, 0; i < n; i, at = i+1, (at+stride)%n {
				var dec int
				_, dec, buf = zd.StrAt(at, buf)
				decoded += dec
			}
		})
	})
	p.m["blockzip.decoded_bytes_per_strat"] = float64(decoded) / float64(n)
	if s, _, _ := zd.StrAt(n/2, nil); string(s) != ordered[n/2] {
		return fmt.Errorf("blockzip probe: entry %d decodes to %q, want %q", n/2, s, ordered[n/2])
	}

	rows := c.Block(0).N
	p.measure("storage.strat_ns", rows, func() time.Duration {
		return timed(func() {
			for i, at := 0, 0; i < rows; i, at = i+1, (at+stride)%rows {
				_, _, buf = c.StrAt(0, at, buf)
			}
		})
	})
	return nil
}

// storage probes block access: the zero-copy view the compressed scan
// uses, and the eager decode it replaced.
func (p *prober) storage(cat *storage.Catalog, cols []*storage.Column) {
	values := 0
	for _, c := range cols {
		values += c.Rows()
	}
	var view vec.Vector
	var refScratch []vec.StrRef
	p.measure("storage.viewblock_ns_row", values, func() time.Duration {
		store := strs.NewStore(true)
		return timed(func() {
			for _, c := range cols {
				for bi := 0; bi < c.Blocks(); bi++ {
					_, refScratch, _ = c.ViewBlock(bi, &view, store, refScratch)
				}
			}
		})
	})
	bufs := make([]*vec.Vector, len(cols))
	for i, c := range cols {
		bufs[i] = vec.New(c.Type, storage.BlockRows)
	}
	p.measure("storage.scanblock_ns_row", values, func() time.Duration {
		store := strs.NewStore(true)
		return timed(func() {
			for i, c := range cols {
				for bi := 0; bi < c.Blocks(); bi++ {
					c.ScanBlock(bi, bufs[i], store)
				}
			}
		})
	})
	var resident, plain int64
	for _, name := range cat.Names() {
		r, pl := cat.Table(name).Footprint()
		resident += r
		plain += pl
	}
	p.m["storage.bytes_per_user_byte"] = float64(resident) / float64(plain)
}

// operators times four nested plans; each operator's ns/row is its plan
// minus the plan below it, over the rows that enter the operator.
func (p *prober) operators(cat *storage.Catalog, s probeSpec) error {
	count := []exec.AggExpr{{Func: agg.CountStar, Name: "n"}}
	type planFn func() exec.Op
	scan := func() (exec.Op, []exec.Meta) {
		sc := exec.NewScan(cat.Table(s.fact), s.scanCols...)
		return sc, sc.Meta()
	}
	filter := func() (exec.Op, []exec.Meta) {
		sc, m := scan()
		return exec.NewFilter(sc, exec.Ge(exec.Col(m, s.filterCol), exec.Int(s.filterMin))), m
	}
	joined := func() (exec.Op, []exec.Meta) {
		f, _ := filter()
		d := exec.NewScan(cat.Table(s.planDim), s.planDimKey, s.planPayload)
		j := exec.NewHashJoin(exec.Inner, f, d, []string{s.planFactKey}, []string{s.planDimKey}, []string{s.planPayload})
		return j, j.Meta()
	}
	plans := []planFn{
		func() exec.Op { sc, _ := scan(); return exec.NewHashAgg(sc, nil, nil, count) },
		func() exec.Op { f, _ := filter(); return exec.NewHashAgg(f, nil, nil, count) },
		func() exec.Op { j, _ := joined(); return exec.NewHashAgg(j, nil, nil, count) },
		func() exec.Op {
			j, m := joined()
			return exec.NewHashAgg(j, []string{s.groupCol}, []*exec.Expr{exec.Col(m, s.groupCol)},
				append([]exec.AggExpr{{Func: agg.Sum, Arg: exec.Col(m, s.sum), Name: "total"}}, count...))
		},
	}
	names := []string{"exec.scan_ns_row", "exec.filter_ns_row", "exec.hashjoin_ns_row", "exec.hashagg_ns_row"}
	ns := make([]float64, len(plans))   // whole-plan median, ns
	rows := make([]int64, len(plans)+1) // rows[i] enter operator i
	rows[0] = int64(cat.Table(s.fact).Rows())
	for i, mk := range plans {
		var res *exec.Result
		start := time.Now()
		var runs []float64
		for len(runs) < 3 || (time.Since(start) < 3*probeBudget && len(runs) < 100) {
			qc := exec.NewQCtx(core.All())
			qc.Workers = 1
			root := mk()
			runs = append(runs, float64(timed(func() { res = exec.Run(qc, root) }).Nanoseconds()))
		}
		p.tr.add(p.parent, "probe:"+names[i], start, time.Now())
		ns[i] = median(runs)
		if i < 3 {
			if len(res.Rows) != 1 {
				return fmt.Errorf("operator probe %s: want one count row, got %d", names[i], len(res.Rows))
			}
			rows[i+1] = res.Rows[0][0].I
		}
	}
	if rows[1] != rows[0] || rows[2] == 0 || rows[3] == 0 {
		return fmt.Errorf("operator probes: scan counted %d of %d rows, filter passed %d, join emitted %d",
			rows[1], rows[0], rows[2], rows[3])
	}
	p.m[names[0]] = ns[0] / float64(rows[0])
	p.m[names[1]] = (ns[1] - ns[0]) / float64(rows[0])
	p.m[names[2]] = (ns[2] - ns[1]) / float64(rows[2])
	p.m[names[3]] = (ns[3] - ns[2]) / float64(rows[3])
	return nil
}
