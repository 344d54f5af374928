package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ocht/internal/cachesim"
	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/hashtab"
	"ocht/internal/join"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// buildSyntheticJoin creates and fills a monolithic, Bloom-free join (the
// table the paper experiments measure) with nKeys key columns over the
// given domain, and payload columns over [0, 10].
func buildSyntheticJoin(flags core.Flags, nKeys int, keyDom domain.D, payloads, card int, rng *rand.Rand) *join.Join {
	store := strs.NewStore(flags.UseUSSR)
	keys := make([]core.KeyCol, nKeys)
	for i := range keys {
		keys[i] = core.KeyCol{Name: fmt.Sprintf("k%d", i), Type: vec.I64, Dom: keyDom}
	}
	pls := make([]join.PayloadCol, payloads)
	for i := range pls {
		pls[i] = join.PayloadCol{Name: fmt.Sprintf("p%d", i), Type: vec.I64, Dom: domain.New(0, 10)}
	}
	j, err := join.New(flags, keys, pls, store, join.Options{CapacityHint: card})
	if err != nil {
		panic(err)
	}
	span := keyDom.Max - keyDom.Min + 1
	keyVecs := make([]*vec.Vector, nKeys)
	plVecs := make([]*vec.Vector, payloads)
	for i := range keyVecs {
		keyVecs[i] = vec.New(vec.I64, vec.Size)
	}
	for i := range plVecs {
		plVecs[i] = vec.New(vec.I64, vec.Size)
	}
	rows := make([]int32, vec.Size)
	for i := range rows {
		rows[i] = int32(i)
	}
	for done := 0; done < card; done += vec.Size {
		n := card - done
		if n > vec.Size {
			n = vec.Size
		}
		for _, kv := range keyVecs {
			for i := 0; i < n; i++ {
				kv.I64[i] = keyDom.Min + rng.Int63n(span)
			}
		}
		for _, pv := range plVecs {
			for i := 0; i < n; i++ {
				pv.I64[i] = rng.Int63n(11)
			}
		}
		j.Build(keyVecs, plVecs, rows[:n])
	}
	return j
}

// probeOnce probes nProbe random keys (drawn from the key domain) and
// fetches all payload columns for the matches — the paper's "hash probe
// including tuple reconstruction cost".
func probeOnce(j *join.Join, nKeys int, keyDom domain.D, payloads, nProbe int, rng *rand.Rand) time.Duration {
	span := keyDom.Max - keyDom.Min + 1
	keyVecs := make([]*vec.Vector, nKeys)
	for i := range keyVecs {
		keyVecs[i] = vec.New(vec.I64, vec.Size)
	}
	rows := make([]int32, vec.Size)
	for i := range rows {
		rows[i] = int32(i)
	}
	out := vec.New(vec.I64, vec.Size)
	var elapsed time.Duration
	for done := 0; done < nProbe; done += vec.Size {
		for _, kv := range keyVecs {
			for i := 0; i < vec.Size; i++ {
				kv.I64[i] = keyDom.Min + rng.Int63n(span)
			}
		}
		start := time.Now()
		mr, mc := j.Probe(keyVecs, rows)
		for pi := 0; pi < payloads; pi++ {
			for chunk := 0; chunk < len(mc); chunk += vec.Size {
				end := chunk + vec.Size
				if end > len(mc) {
					end = len(mc)
				}
				outRows := rows[:end-chunk]
				j.FetchPayload(pi, mc[chunk:end], out, outRows)
			}
		}
		sink = len(mr)
		elapsed += time.Since(start)
	}
	return elapsed
}

// llcMisses replays the probe access pattern of the join's hash table
// against a modeled L3 cache (19.25 MB, 11-way, 64 B lines — the paper's
// Xeon Gold 6126) and returns the miss count. The replay touches, per
// probe, the directory bucket, and per chain record the next link and the
// hot record; payload bytes are touched for matches.
func llcMisses(j *join.Join, nKeys int, keyDom domain.D, nProbe int, rng *rand.Rand) uint64 {
	cache := cachesim.New(19*1024*1024+256*1024, 11, 64)
	t := j.Table()
	schema := j.Schema
	span := keyDom.Max - keyDom.Min + 1

	// Synthetic address space: directory, links, hot and cold areas.
	const (
		dirBase  = 0x1000_0000_0000
		nextBase = 0x2000_0000_0000
		hotBase  = 0x3000_0000_0000
		coldBase = 0x4000_0000_0000
	)
	keyVecs := make([]*vec.Vector, nKeys)
	for i := range keyVecs {
		keyVecs[i] = vec.New(vec.I64, vec.Size)
	}
	rows := make([]int32, vec.Size)
	for i := range rows {
		rows[i] = int32(i)
	}
	hashes := make([]uint64, vec.Size)
	hotW := uint64(t.HotWidth())
	coldW := uint64(t.ColdWidth())

	// Warm the cache with one pass, then measure the second.
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			cache.ResetCounters()
		}
		for done := 0; done < nProbe; done += vec.Size {
			for _, kv := range keyVecs {
				for i := 0; i < vec.Size; i++ {
					kv.I64[i] = keyDom.Min + rng.Int63n(span)
				}
			}
			p := schema.Prepare(keyVecs, rows)
			schema.Hash(p, rows, hashes)
			for _, r := range rows {
				h := hashes[r]
				cache.AccessRange(dirBase+(h&uint64(dirMask(t)))*4, 4)
				for rec := t.Head(h); rec >= 0; rec = t.Next(rec) {
					cache.AccessRange(nextBase+uint64(rec)*4, 4)
					cache.AccessRange(hotBase+uint64(rec)*hotW, int(hotW))
					if coldW > 0 {
						cache.AccessRange(coldBase+uint64(rec)*coldW, int(coldW))
					}
				}
			}
		}
	}
	return cache.Misses
}

// dirMask approximates the directory size (next power of two of Len).
func dirMask(t *core.Table) int {
	size := 16
	for size < t.Len() {
		size <<= 1
	}
	return size - 1
}

// Fig8 reproduces the hash-probe speedup and LLC-miss curves vs build
// cardinality: (a) 4 keys in [0, 1000] where the schema suggests 64-bit
// integers, (b) 2 keys in [0, 10^6] (the paper's variant declares them
// 128-bit; packable inputs here are 64-bit, which preserves the
// wide-schema-vs-packed contrast). Four payload columns in [0, 10].
func Fig8(w io.Writer, cfg Config) {
	header(w, "Figure 8: hash probe speedup & modeled LLC misses vs build cardinality")
	variants := []struct {
		name  string
		nKeys int
		dom   domain.D
	}{
		{"(a) 4 keys in [0,1000]", 4, domain.New(0, 1000)},
		{"(b) 2 keys in [0,10^6]", 2, domain.New(0, 1_000_000)},
	}
	for _, v := range variants {
		fmt.Fprintln(w, v.name)
		line(w, "cardinality", "vanilla", "compact", "speedup", "LLCmiss(van)", "LLCmiss(cmp)")
		for card := 1 << 14; card <= cfg.MaxCard; card <<= 2 {
			nProbe := card
			if nProbe > 1<<18 {
				nProbe = 1 << 18
			}
			res := map[string]time.Duration{}
			misses := map[string]uint64{}
			for _, mode := range []struct {
				name  string
				flags core.Flags
			}{{"vanilla", core.Vanilla()}, {"compact", core.Flags{Compress: true, Split: true}}} {
				rng := rand.New(rand.NewSource(cfg.Seed))
				j := buildSyntheticJoin(mode.flags, v.nKeys, v.dom, 4, card, rng)
				res[mode.name] = best(cfg.Reps, func() time.Duration {
					return probeOnce(j, v.nKeys, v.dom, 4, nProbe, rand.New(rand.NewSource(cfg.Seed+1)))
				})
				missProbe := nProbe
				if missProbe > 1<<16 {
					missProbe = 1 << 16
				}
				misses[mode.name] = llcMisses(j, v.nKeys, v.dom, missProbe, rand.New(rand.NewSource(cfg.Seed+2)))
			}
			fmt.Fprintf(w, "%-11d %9v %9v %7.2fx %12d %12d\n",
				card,
				res["vanilla"].Round(time.Microsecond),
				res["compact"].Round(time.Microsecond),
				float64(res["vanilla"])/float64(res["compact"]),
				misses["vanilla"], misses["compact"])
		}
	}
}

// Fig9 reproduces hash-join build time (a) and hash-table size (b) vs the
// key domain, for 2 and 4 keys without payload columns.
func Fig9(w io.Writer, cfg Config) {
	header(w, "Figure 9: hash join build time and table size vs key domain")
	line(w, "domain", "keys", "vanilla-build", "compact-build", "vanilla-size", "compact-size")
	card := cfg.MaxCard / 4
	if card < 1<<16 {
		card = 1 << 16
	}
	for _, domMax := range []int64{10, 1000, 10_000, 1_000_000} {
		for _, nKeys := range []int{2, 4} {
			dom := domain.New(0, domMax)
			var times [2]time.Duration
			var sizes [2]int
			for mi, flags := range []core.Flags{core.Vanilla(), {Compress: true, Split: true}} {
				var jEnd *join.Join
				times[mi] = best(cfg.Reps, func() time.Duration {
					rng := rand.New(rand.NewSource(cfg.Seed))
					start := time.Now()
					j := buildSyntheticJoin(flags, nKeys, dom, 0, card, rng)
					el := time.Since(start)
					jEnd = j
					return el
				})
				sizes[mi] = jEnd.Table().MemoryBytes()
			}
			fmt.Fprintf(w, "[0,%-8d] %d  %13v %13v %12s %12s\n",
				domMax, nKeys,
				times[0].Round(time.Millisecond), times[1].Round(time.Millisecond),
				humanBytes(sizes[0]), humanBytes(sizes[1]))
		}
	}
}

// Table4 compares the compressed hash table's footprint against linear,
// Concise and bucket-chained designs: n records of k 64-bit values (the
// first being the key), all values in [0, 2^16), linear tables at 50%
// fill.
func Table4(w io.Writer, cfg Config) {
	header(w, "Table IV: footprint reduction vs other hash table designs (higher is better)")
	valueCounts := []int{1, 2, 4, 8, 16, 24, 32}
	cards := []int{1 << 10, 1 << 17, 1 << 20} // 1k / "1M" / "1G" scaled
	cardNames := []string{"1k", "128k", "1M"}

	fmt.Fprintf(w, "%-22s", "design \\ #values")
	for _, k := range valueCounts {
		fmt.Fprintf(w, "%7d", k)
	}
	fmt.Fprintln(w)
	for ciIdx, card := range cards {
		ours := make([]int, len(valueCounts))
		for ki, k := range valueCounts {
			ours[ki] = compressedFootprint(card, k, cfg.Seed)
		}
		for _, design := range []string{"linear", "concise", "chained"} {
			fmt.Fprintf(w, "%-10s n=%-9s", design, cardNames[ciIdx])
			for ki, k := range valueCounts {
				base := baselineFootprint(design, card, k, cfg.Seed)
				fmt.Fprintf(w, "%6.1fx", float64(base)/float64(ours[ki]))
			}
			fmt.Fprintln(w)
		}
	}
}

// compressedFootprint builds our compressed chained table with 1 key and
// k-1 value columns, all in [0, 2^16), and returns its footprint.
func compressedFootprint(card, k int, seed int64) int {
	dom := domain.New(0, 1<<16-1)
	keys := []core.KeyCol{{Name: "k", Type: vec.I64, Dom: dom}}
	pls := make([]join.PayloadCol, k-1)
	for i := range pls {
		pls[i] = join.PayloadCol{Name: fmt.Sprintf("v%d", i), Type: vec.I64, Dom: dom}
	}
	store := strs.NewStore(false)
	j, err := join.New(core.Flags{Compress: true, Split: true}, keys, pls, store,
		join.Options{CapacityHint: card})
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	kv := vec.New(vec.I64, vec.Size)
	plVecs := make([]*vec.Vector, k-1)
	for i := range plVecs {
		plVecs[i] = vec.New(vec.I64, vec.Size)
	}
	rows := make([]int32, vec.Size)
	for i := range rows {
		rows[i] = int32(i)
	}
	for done := 0; done < card; done += vec.Size {
		n := card - done
		if n > vec.Size {
			n = vec.Size
		}
		for i := 0; i < n; i++ {
			kv.I64[i] = rng.Int63n(1 << 16)
		}
		for _, pv := range plVecs {
			for i := 0; i < n; i++ {
				pv.I64[i] = rng.Int63n(1 << 16)
			}
		}
		j.Build([]*vec.Vector{kv}, plVecs, rows[:n])
	}
	return j.Table().MemoryBytes()
}

func baselineFootprint(design string, card, k int, seed int64) int {
	rowWidth := 8 * k
	var t hashtab.Table
	switch design {
	case "linear":
		t = hashtab.NewLinear(rowWidth, card, 50)
	case "concise":
		t = hashtab.NewConcise(rowWidth, card)
	case "chained":
		t = hashtab.NewChained(rowWidth, card)
	}
	rng := rand.New(rand.NewSource(seed))
	rec := make([]byte, rowWidth)
	for i := 0; i < card; i++ {
		key := uint64(i) // unique keys keep the linear table insertable
		putLE64(rec, key)
		for v := 1; v < k; v++ {
			putLE64(rec[v*8:], uint64(rng.Int63n(1<<16)))
		}
		t.Insert(key, rec)
	}
	return t.MemoryBytes()
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
