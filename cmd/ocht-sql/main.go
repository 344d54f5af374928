// Command ocht-sql is an interactive SQL shell over a generated dataset:
// TPC-H, the BI workload, or both. Queries run under a selectable engine
// configuration; \timing and \flags expose the paper's techniques at the
// prompt.
//
// Usage:
//
//	ocht-sql -data tpch -sf 0.01
//	ocht-sql -data bi -rows 100000
//	ocht-sql -data none -data-dir ./state    # writable: CREATE/INSERT/COPY
//	echo "SELECT COUNT(*) FROM lineitem" | ocht-sql -data tpch
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ocht/internal/bi"
	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/ingest"
	"ocht/internal/sql"
	"ocht/internal/storage"
	"ocht/internal/tpch"
)

func main() {
	data := flag.String("data", "tpch", "dataset: tpch | bi | both | none")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	rows := flag.Int("rows", 50_000, "BI workload rows")
	seed := flag.Int64("seed", 42, "generator seed")
	load := flag.String("load", "", "load a saved dataset directory (see ocht-dbgen) instead of generating")
	dataDir := flag.String("data-dir", "", "enable CREATE/INSERT/COPY: WAL + checkpoint directory (recovered at start)")
	fsync := flag.String("fsync", "always", "WAL durability: always | interval | none (with -data-dir)")
	sealCompress := flag.String("seal-compress", "auto", "string-block seal compression: on | off | auto (keep only when smaller)")
	flag.Parse()

	mode, err := storage.ParseCompressMode(*sealCompress)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	storage.SetSealCompression(mode)

	var cat *storage.Catalog
	if *load != "" {
		loaded, err := storage.LoadCatalog(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cat = loaded
	} else {
		cat = storage.NewCatalog()
		add := func(src *storage.Catalog, names ...string) {
			for _, n := range names {
				cat.Add(src.Table(n))
			}
		}
		if *data == "tpch" || *data == "both" {
			fmt.Fprintf(os.Stderr, "generating TPC-H SF %g...\n", *sf)
			add(tpch.Gen(*sf, *seed), "region", "nation", "supplier", "customer",
				"part", "partsupp", "orders", "lineitem")
		}
		if *data == "bi" || *data == "both" {
			fmt.Fprintf(os.Stderr, "generating BI workload (%d rows)...\n", *rows)
			add(bi.Gen(*rows, *seed), "contracts", "vendors")
		}
	}

	var eng *ingest.Engine
	if *dataDir != "" {
		policy, err := ingest.ParseFsyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		eng, err = ingest.Open(*dataDir, cat, ingest.Config{Fsync: policy})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st := eng.Stats()
		fmt.Fprintf(os.Stderr, "ingest: %s (%d tables, %d rows recovered)\n",
			*dataDir, st.Tables, st.RecoveredRows)
		defer func() {
			if err := eng.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ingest close:", err)
			}
		}()
	}
	repl(cat, eng)
}

// isWriteSQL reports whether the statement's leading keyword routes it
// to the ingest engine rather than the query planner.
func isWriteSQL(q string) bool {
	word, _, _ := strings.Cut(strings.TrimSpace(q), " ")
	switch strings.ToUpper(word) {
	case "CREATE", "INSERT", "COPY":
		return true
	}
	return false
}

// repl reads statements from stdin and executes them against cat; write
// statements go through eng when one is attached.
func repl(cat *storage.Catalog, eng *ingest.Engine) {
	flags := core.All()
	timing := true
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(os.Stderr, `ready. \flags vanilla|ussr|cht|all, \timing on|off, \q to quit`)
	for {
		fmt.Fprint(os.Stderr, "ocht> ")
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\q`:
			return
		case strings.HasPrefix(line, `\timing`):
			timing = !strings.HasSuffix(line, "off")
			continue
		case strings.HasPrefix(line, `\flags`):
			switch strings.TrimSpace(strings.TrimPrefix(line, `\flags`)) {
			case "vanilla":
				flags = core.Vanilla()
			case "ussr":
				flags = core.Flags{UseUSSR: true}
			case "cht":
				flags = core.Flags{Compress: true}
			case "all":
				flags = core.All()
			default:
				fmt.Fprintln(os.Stderr, "unknown flags; use vanilla|ussr|cht|all")
			}
			continue
		}
		if isWriteSQL(line) {
			if eng == nil {
				fmt.Fprintln(os.Stderr, "read-only session: restart with -data-dir to enable writes")
				continue
			}
			stmt, err := sql.ParseStatement(line)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				continue
			}
			start := time.Now()
			n, err := eng.Apply(stmt)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				continue
			}
			if timing {
				fmt.Fprintf(os.Stderr, "(%d rows affected, %v)\n", n, time.Since(start).Round(time.Microsecond))
			}
			continue
		}
		qc := exec.NewQCtx(flags)
		start := time.Now()
		res, err := sql.Run(line, cat, qc)
		el := time.Since(start)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		fmt.Print(res)
		if timing {
			fmt.Fprintf(os.Stderr, "(%d rows, %v, hash tables %d bytes)\n",
				len(res.Rows), el.Round(time.Microsecond), qc.HashTableBytes())
		}
	}
}
