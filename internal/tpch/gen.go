// Package tpch implements a from-scratch TPC-H data generator and all 22
// benchmark queries as plans over the vectorized engine, driving the
// paper's Figure 4, Figure 5 and Table II experiments.
//
// Substitutions vs. the official dbgen: money is stored as int64 cents,
// discount/tax as integer percent (0..10 / 0..8), dates as int32 yyyymmdd
// — a common engine-internal representation that keeps every predicate and
// aggregate integral. Comments are drawn from dbgen's word list; value
// distributions (uniform keys, per-order line counts, price formulas)
// follow the TPC-H specification.
package tpch

import (
	"fmt"
	"math/rand"
	"time"

	"ocht/internal/storage"
	"ocht/internal/vec"
)

// Scale factors: SF 1 is the official 1 GB scale.
const (
	nationRows   = 25
	supplierBase = 10_000
	customerBase = 150_000
	partBase     = 200_000
	ordersBase   = 1_500_000
)

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nations: name, region key (per the TPC-H spec).
var nations = []struct {
	name   string
	region int64
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX",
		"MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG",
		"JUMBO CASE", "JUMBO BOX", "JUMBO PACK", "JUMBO PKG", "WRAP CASE", "WRAP BOX"}
	typeSyl1  = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2  = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3  = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	nameWords = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood", "burnished",
		"chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk",
		"cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
		"floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green",
		"grey", "honeydew", "hot", "hotpink", "indian", "ivory", "khaki",
		"lace", "lavender", "lawn", "lemon", "light", "lime", "linen",
		"magenta", "maroon", "medium", "metallic", "midnight", "mint", "misty",
		"moccasin", "navajo", "navy", "olive", "orange", "orchid", "pale",
		"papaya", "peach", "peru", "pink", "plum", "powder", "puff",
		"purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
		"sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow",
		"spring", "steel", "tan", "thistle", "tomato", "turquoise", "violet",
		"wheat", "white", "yellow"}
	commentWords = []string{"carefully", "quickly", "furiously", "slyly", "blithely",
		"regular", "final", "special", "pending", "ironic", "express", "bold",
		"even", "silent", "unusual", "daring", "requests", "deposits", "packages",
		"instructions", "accounts", "foxes", "ideas", "theodolites", "pinto",
		"beans", "dependencies", "excuses", "platelets", "asymptotes", "courts",
		"dolphins", "multipliers", "sauternes", "warthogs", "frets", "dinos",
		"attainments", "somas", "Tiresias", "nodes", "Customer", "Complaints",
		"sleep", "wake", "haggle", "nag", "use", "boost", "affix", "detect",
		"integrate", "cajole", "across", "against", "along", "among", "beyond"}
)

// Date converts (year, month, day) to the engine's yyyymmdd encoding.
func Date(y, m, d int) int64 { return int64(y)*10000 + int64(m)*100 + int64(d) }

// DateAdd adds days to a yyyymmdd date.
func DateAdd(yyyymmdd int64, days int) int64 {
	y := int(yyyymmdd / 10000)
	m := int(yyyymmdd / 100 % 100)
	d := int(yyyymmdd % 100)
	t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC).AddDate(0, 0, days)
	return Date(t.Year(), int(t.Month()), t.Day())
}

var epochStart = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

// dateOfDay converts a day offset from 1992-01-01 to yyyymmdd.
func dateOfDay(off int) int64 {
	t := epochStart.AddDate(0, 0, off)
	return Date(t.Year(), int(t.Month()), t.Day())
}

// totalDays spans 1992-01-01 .. 1998-08-02 (the TPC-H date range).
const totalDays = 2405

type gen struct {
	rng *rand.Rand
}

func (g *gen) comment(maxWords int) string {
	n := 2 + g.rng.Intn(maxWords)
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += commentWords[g.rng.Intn(len(commentWords))]
	}
	return s
}

func (g *gen) phone(nation int64) string {
	return fmt.Sprintf("%d-%03d-%03d-%04d", 10+nation,
		100+g.rng.Intn(900), 100+g.rng.Intn(900), 1000+g.rng.Intn(9000))
}

func (g *gen) partName() string {
	idx := g.rng.Perm(len(nameWords))[:5]
	s := ""
	for i, w := range idx {
		if i > 0 {
			s += " "
		}
		s += nameWords[w]
	}
	return s
}

// Gen generates the full TPC-H database at the given scale factor.
// Deterministic for a given (sf, seed).
func Gen(sf float64, seed int64) *storage.Catalog {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	cat := storage.NewCatalog()
	cat.Add(g.region())
	cat.Add(g.nation())
	nSupp := scaled(supplierBase, sf)
	nCust := scaled(customerBase, sf)
	nPart := scaled(partBase, sf)
	nOrd := scaled(ordersBase, sf)
	cat.Add(g.supplier(nSupp))
	cat.Add(g.customer(nCust))
	cat.Add(g.part(nPart))
	cat.Add(g.partsupp(nPart, nSupp))
	orders, lineitem := g.ordersAndLineitem(nOrd, nCust, nPart, nSupp)
	cat.Add(orders)
	cat.Add(lineitem)
	return cat
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 10 {
		n = 10
	}
	return n
}

func (g *gen) region() *storage.Table {
	k := storage.NewColumn("r_regionkey", vec.I64, false)
	n := storage.NewColumn("r_name", vec.Str, false)
	c := storage.NewColumn("r_comment", vec.Str, false)
	for i, name := range regionNames {
		k.AppendInt(int64(i))
		n.AppendString(name)
		c.AppendString(g.comment(10))
	}
	t := storage.NewTable("region", k, n, c)
	t.Seal()
	return t
}

func (g *gen) nation() *storage.Table {
	k := storage.NewColumn("n_nationkey", vec.I64, false)
	n := storage.NewColumn("n_name", vec.Str, false)
	r := storage.NewColumn("n_regionkey", vec.I64, false)
	c := storage.NewColumn("n_comment", vec.Str, false)
	for i, nat := range nations {
		k.AppendInt(int64(i))
		n.AppendString(nat.name)
		r.AppendInt(nat.region)
		c.AppendString(g.comment(10))
	}
	t := storage.NewTable("nation", k, n, r, c)
	t.Seal()
	return t
}

func (g *gen) supplier(n int) *storage.Table {
	sk := storage.NewColumn("s_suppkey", vec.I64, false)
	sn := storage.NewColumn("s_name", vec.Str, false)
	sa := storage.NewColumn("s_address", vec.Str, false)
	snk := storage.NewColumn("s_nationkey", vec.I64, false)
	sp := storage.NewColumn("s_phone", vec.Str, false)
	sb := storage.NewColumn("s_acctbal", vec.I64, false)
	sc := storage.NewColumn("s_comment", vec.Str, false)
	for i := 1; i <= n; i++ {
		nation := int64(g.rng.Intn(nationRows))
		sk.AppendInt(int64(i))
		sn.AppendString(fmt.Sprintf("Supplier#%09d", i))
		sa.AppendString(g.comment(3))
		snk.AppendInt(nation)
		sp.AppendString(g.phone(nation))
		sb.AppendInt(int64(g.rng.Intn(1_099_866)) - 99_999) // cents: -999.99..9998.66
		// ~0.05% of suppliers carry the Q16 complaint marker.
		if g.rng.Intn(2000) == 0 {
			sc.AppendString("wake Customer slyly Complaints haggle")
		} else {
			sc.AppendString(g.comment(12))
		}
	}
	t := storage.NewTable("supplier", sk, sn, sa, snk, sp, sb, sc)
	t.Seal()
	return t
}

func (g *gen) customer(n int) *storage.Table {
	ck := storage.NewColumn("c_custkey", vec.I64, false)
	cn := storage.NewColumn("c_name", vec.Str, false)
	ca := storage.NewColumn("c_address", vec.Str, false)
	cnk := storage.NewColumn("c_nationkey", vec.I64, false)
	cp := storage.NewColumn("c_phone", vec.Str, false)
	cb := storage.NewColumn("c_acctbal", vec.I64, false)
	cm := storage.NewColumn("c_mktsegment", vec.Str, false)
	cc := storage.NewColumn("c_comment", vec.Str, false)
	for i := 1; i <= n; i++ {
		nation := int64(g.rng.Intn(nationRows))
		ck.AppendInt(int64(i))
		cn.AppendString(fmt.Sprintf("Customer#%09d", i))
		ca.AppendString(g.comment(3))
		cnk.AppendInt(nation)
		cp.AppendString(g.phone(nation))
		cb.AppendInt(int64(g.rng.Intn(1_099_866)) - 99_999)
		cm.AppendString(segments[g.rng.Intn(len(segments))])
		cc.AppendString(g.comment(15))
	}
	t := storage.NewTable("customer", ck, cn, ca, cnk, cp, cb, cm, cc)
	t.Seal()
	return t
}

func (g *gen) part(n int) *storage.Table {
	pk := storage.NewColumn("p_partkey", vec.I64, false)
	pn := storage.NewColumn("p_name", vec.Str, false)
	pm := storage.NewColumn("p_mfgr", vec.Str, false)
	pb := storage.NewColumn("p_brand", vec.Str, false)
	pt := storage.NewColumn("p_type", vec.Str, false)
	ps := storage.NewColumn("p_size", vec.I32, false)
	pc := storage.NewColumn("p_container", vec.Str, false)
	pr := storage.NewColumn("p_retailprice", vec.I64, false)
	pcm := storage.NewColumn("p_comment", vec.Str, false)
	for i := 1; i <= n; i++ {
		mfgr := 1 + g.rng.Intn(5)
		brand := mfgr*10 + 1 + g.rng.Intn(5)
		pk.AppendInt(int64(i))
		pn.AppendString(g.partName())
		pm.AppendString(fmt.Sprintf("Manufacturer#%d", mfgr))
		pb.AppendString(fmt.Sprintf("Brand#%d", brand))
		pt.AppendString(typeSyl1[g.rng.Intn(6)] + " " + typeSyl2[g.rng.Intn(5)] + " " + typeSyl3[g.rng.Intn(5)])
		ps.AppendInt(int64(1 + g.rng.Intn(50)))
		pc.AppendString(containers[g.rng.Intn(len(containers))])
		pr.AppendInt(int64(90000 + ((i / 10) % 20001) + 100*(i%1000))) // spec price formula, cents
		pcm.AppendString(g.comment(5))
	}
	t := storage.NewTable("part", pk, pn, pm, pb, pt, ps, pc, pr, pcm)
	t.Seal()
	return t
}

func (g *gen) partsupp(nPart, nSupp int) *storage.Table {
	pk := storage.NewColumn("ps_partkey", vec.I64, false)
	sk := storage.NewColumn("ps_suppkey", vec.I64, false)
	aq := storage.NewColumn("ps_availqty", vec.I32, false)
	sc := storage.NewColumn("ps_supplycost", vec.I64, false)
	cm := storage.NewColumn("ps_comment", vec.Str, false)
	for i := 1; i <= nPart; i++ {
		for j := 0; j < 4; j++ {
			pk.AppendInt(int64(i))
			// The spec's supplier spreading formula keeps (part, supp)
			// pairs unique.
			sk.AppendInt(int64((i+j*((nSupp/4)+(i-1)/nSupp))%nSupp + 1))
			aq.AppendInt(int64(1 + g.rng.Intn(9999)))
			sc.AppendInt(int64(100 + g.rng.Intn(99901))) // 1.00..1000.00
			cm.AppendString(g.comment(12))
		}
	}
	t := storage.NewTable("partsupp", pk, sk, aq, sc, cm)
	t.Seal()
	return t
}

func (g *gen) ordersAndLineitem(nOrd, nCust, nPart, nSupp int) (*storage.Table, *storage.Table) {
	ok := storage.NewColumn("o_orderkey", vec.I64, false)
	oc := storage.NewColumn("o_custkey", vec.I64, false)
	os := storage.NewColumn("o_orderstatus", vec.Str, false)
	ot := storage.NewColumn("o_totalprice", vec.I64, false)
	od := storage.NewColumn("o_orderdate", vec.I32, false)
	op := storage.NewColumn("o_orderpriority", vec.Str, false)
	ock := storage.NewColumn("o_clerk", vec.Str, false)
	osp := storage.NewColumn("o_shippriority", vec.I32, false)
	ocm := storage.NewColumn("o_comment", vec.Str, false)

	lok := storage.NewColumn("l_orderkey", vec.I64, false)
	lpk := storage.NewColumn("l_partkey", vec.I64, false)
	lsk := storage.NewColumn("l_suppkey", vec.I64, false)
	lln := storage.NewColumn("l_linenumber", vec.I32, false)
	lq := storage.NewColumn("l_quantity", vec.I32, false)
	lep := storage.NewColumn("l_extendedprice", vec.I64, false)
	ld := storage.NewColumn("l_discount", vec.I32, false)
	lt := storage.NewColumn("l_tax", vec.I32, false)
	lrf := storage.NewColumn("l_returnflag", vec.Str, false)
	lls := storage.NewColumn("l_linestatus", vec.Str, false)
	lsd := storage.NewColumn("l_shipdate", vec.I32, false)
	lcd := storage.NewColumn("l_commitdate", vec.I32, false)
	lrd := storage.NewColumn("l_receiptdate", vec.I32, false)
	lsi := storage.NewColumn("l_shipinstruct", vec.Str, false)
	lsm := storage.NewColumn("l_shipmode", vec.Str, false)
	lcm := storage.NewColumn("l_comment", vec.Str, false)

	currentDate := Date(1995, 6, 17)
	for i := 1; i <= nOrd; i++ {
		cust := int64(1 + g.rng.Intn(nCust))
		ordDay := g.rng.Intn(totalDays - 151)
		ordDate := dateOfDay(ordDay)
		nLines := 1 + g.rng.Intn(7)
		var total int64
		allF, allO := true, true

		for ln := 1; ln <= nLines; ln++ {
			part := int64(1 + g.rng.Intn(nPart))
			supp := int64(1 + g.rng.Intn(nSupp))
			qty := int64(1 + g.rng.Intn(50))
			price := (90000 + (part/10)%20001 + 100*(part%1000)) * qty / 100
			disc := int64(g.rng.Intn(11)) // 0..10 percent
			tax := int64(g.rng.Intn(9))   // 0..8 percent
			shipDay := ordDay + 1 + g.rng.Intn(121)
			commitDay := ordDay + 30 + g.rng.Intn(61)
			receiptDay := shipDay + 1 + g.rng.Intn(30)
			shipDate := dateOfDay(shipDay)

			var rf string
			if dateOfDay(receiptDay) <= currentDate {
				if g.rng.Intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			} else {
				rf = "N"
			}
			var ls string
			if shipDate > currentDate {
				ls = "O"
				allF = false
			} else {
				ls = "F"
				allO = false
			}

			lok.AppendInt(int64(i))
			lpk.AppendInt(part)
			lsk.AppendInt(supp)
			lln.AppendInt(int64(ln))
			lq.AppendInt(qty)
			lep.AppendInt(price)
			ld.AppendInt(disc)
			lt.AppendInt(tax)
			lrf.AppendString(rf)
			lls.AppendString(ls)
			lsd.AppendInt(shipDate)
			lcd.AppendInt(dateOfDay(commitDay))
			lrd.AppendInt(dateOfDay(receiptDay))
			lsi.AppendString(instructs[g.rng.Intn(len(instructs))])
			lsm.AppendString(shipModes[g.rng.Intn(len(shipModes))])
			lcm.AppendString(g.comment(6))
			total += price * (100 - disc) * (100 + tax) / 10000
		}

		status := "P"
		if allF {
			status = "F"
		} else if allO {
			status = "O"
		}
		ok.AppendInt(int64(i))
		oc.AppendInt(cust)
		os.AppendString(status)
		ot.AppendInt(total)
		od.AppendInt(ordDate)
		op.AppendString(priorities[g.rng.Intn(len(priorities))])
		ock.AppendString(fmt.Sprintf("Clerk#%09d", 1+g.rng.Intn(1000)))
		osp.AppendInt(0)
		// ~1% of orders carry the Q13 "special requests" marker.
		if g.rng.Intn(100) == 0 {
			ocm.AppendString("dolphins special wake requests haggle")
		} else {
			ocm.AppendString(g.comment(10))
		}
	}

	orders := storage.NewTable("orders", ok, oc, os, ot, od, op, ock, osp, ocm)
	orders.Seal()
	lineitem := storage.NewTable("lineitem",
		lok, lpk, lsk, lln, lq, lep, ld, lt, lrf, lls, lsd, lcd, lrd, lsi, lsm, lcm)
	lineitem.Seal()
	return orders, lineitem
}
