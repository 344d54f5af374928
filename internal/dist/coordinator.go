package dist

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/i128"
	"ocht/internal/server"
	"ocht/internal/sql"
	"ocht/internal/vec"
)

// ShardConfig is one shard of the cluster: the writable primary plus any
// read replicas tailing its WAL.
type ShardConfig struct {
	Primary  string
	Replicas []string
}

// Config configures a Coordinator.
type Config struct {
	Shards []ShardConfig
	// PartitionKeys overrides the partition column per table (default:
	// the first integer or string column).
	PartitionKeys map[string]string
	// Broadcast marks tables replicated to every shard instead of
	// partitioned (small dimension tables, so joins stay shard-local).
	Broadcast map[string]bool
	// Workers is the per-shard subquery parallelism (0 = shard default).
	Workers int
	// Flags drive the coordinator's merge fragment execution.
	Flags core.Flags
	// Fanout tunes scatter deadlines, retries and hedging.
	Fanout FanoutConfig
	// ReplicaReads routes read-only queries to caught-up replicas,
	// keeping the primaries free for ingest.
	ReplicaReads bool
	// StatusTTL bounds how stale the cached replica catch-up state may be
	// when routing reads (default 1s).
	StatusTTL time.Duration
}

// tableRoute is what the coordinator knows about one table's placement.
type tableRoute struct {
	cols    []sql.ColDef
	partCol int // index into cols; -1 = broadcast to every shard
}

// shardHealth is the TTL-cached replication state of one shard: the
// primary's per-table LSNs and each replica's catch-up LSNs.
type shardHealth struct {
	at time.Time
	// catVer is the primary's catalog version at the snapshot; it rides
	// on replica-routed subqueries as MinCatalogVersion so a replica
	// that has not replayed a schema change yet answers 409 (transient)
	// and the fan-out falls through to the primary.
	catVer   uint64
	primary  map[string]int64
	replicas map[string]map[string]int64
}

// Coordinator fans queries out over the shards: writes are routed by
// partition hash (or broadcast), reads are split by sql.PlanDistributed
// into shard subqueries plus a local merge fragment over an Exchange.
type Coordinator struct {
	cfg    Config
	client *Client

	mu sync.Mutex
	//ocht:guarded-by mu
	routes map[string]tableRoute
	//ocht:guarded-by mu
	health []shardHealth
}

// New builds a coordinator over the given cluster layout.
func New(cfg Config, client *Client) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one shard")
	}
	if cfg.StatusTTL <= 0 {
		cfg.StatusTTL = time.Second
	}
	if client == nil {
		client = &Client{}
	}
	return &Coordinator{
		cfg:    cfg,
		client: client,
		routes: map[string]tableRoute{},
		health: make([]shardHealth, len(cfg.Shards)),
	}, nil
}

// Result is a completed coordinator statement.
type Result struct {
	Columns      []string
	Rows         [][]exec.Value
	RowsAffected int64
}

// RenderCell formats one result value the way the single-node server's
// JSON encoder does, with one twist: the merge operator re-sums shard
// partials without the domain bounds a single node uses to prove
// SumFitsInt64, so merged sums are conservatively 128-bit even when the
// total is small. Narrow those back to a JSON number when they fit so
// distributed output matches single-node output; only genuinely large
// values render as decimal strings.
func RenderCell(v exec.Value) any {
	if v.Null {
		return nil
	}
	switch v.Typ {
	case vec.F64:
		return v.F
	case vec.Str:
		return v.S
	case vec.I128:
		if v.I128.IsInt64() {
			return v.I128.Int64()
		}
		return v.I128.String()
	default:
		return v.I
	}
}

// Query parses and runs one statement against the cluster.
func (c *Coordinator) Query(ctx context.Context, text string) (*Result, error) {
	stmt, err := sql.ParseStatement(text)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return c.read(ctx, s)
	case *sql.CreateTableStmt:
		return c.create(ctx, s, text)
	case *sql.InsertStmt:
		return c.insert(ctx, s)
	case *sql.CopyStmt:
		return c.copyCSV(ctx, s)
	}
	return nil, fmt.Errorf("dist: unsupported statement %T", stmt)
}

// ---- write path ----------------------------------------------------

// create broadcasts the DDL to every shard primary (replicas replay it
// off the WAL) and records the table's routing.
func (c *Coordinator) create(ctx context.Context, s *sql.CreateTableStmt, text string) (*Result, error) {
	route := tableRoute{cols: s.Cols, partCol: -1}
	if !c.cfg.Broadcast[s.Name] {
		pc, err := pickPartitionCol(s.Name, s.Cols, c.cfg.PartitionKeys)
		if err != nil {
			return nil, err
		}
		route.partCol = pc
	}
	if err := c.execAll(ctx, text); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.routes[s.Name] = route
	c.mu.Unlock()
	return &Result{}, nil
}

// pickPartitionCol resolves the partition column: the configured
// override, else the first integer or string column (floats make poor
// hash keys), else column zero.
func pickPartitionCol(table string, cols []sql.ColDef, overrides map[string]string) (int, error) {
	if name, ok := overrides[table]; ok {
		for i, cd := range cols {
			if cd.Name == name {
				return i, nil
			}
		}
		return 0, fmt.Errorf("dist: table %s has no partition column %s", table, name)
	}
	for i, cd := range cols {
		if cd.Type != vec.F64 {
			return i, nil
		}
	}
	return 0, nil
}

// route returns the table's routing, learning it from the shards'
// /tables listing when the coordinator has not seen the CREATE (e.g.
// after a coordinator restart). Lazily learned routes assume nullable
// columns; hashing only needs names and types.
func (c *Coordinator) route(ctx context.Context, table string) (tableRoute, error) {
	c.mu.Lock()
	r, ok := c.routes[table]
	c.mu.Unlock()
	if ok {
		return r, nil
	}
	infos, _, err := c.client.Tables(ctx, c.cfg.Shards[0].Primary)
	if err != nil {
		return tableRoute{}, fmt.Errorf("dist: discovering table %s: %w", table, err)
	}
	for _, ti := range infos {
		if ti.Name != table {
			continue
		}
		types, terr := sql.ShardTypes(ti.Types)
		if terr != nil {
			return tableRoute{}, terr
		}
		cols := make([]sql.ColDef, len(ti.Columns))
		for i := range ti.Columns {
			cols[i] = sql.ColDef{Name: ti.Columns[i], Type: types[i], Nullable: true}
		}
		r = tableRoute{cols: cols, partCol: -1}
		if !c.cfg.Broadcast[table] {
			pc, perr := pickPartitionCol(table, cols, c.cfg.PartitionKeys)
			if perr != nil {
				return tableRoute{}, perr
			}
			r.partCol = pc
		}
		c.mu.Lock()
		c.routes[table] = r
		c.mu.Unlock()
		return r, nil
	}
	return tableRoute{}, fmt.Errorf("dist: unknown table %s", table)
}

// execAll runs one write statement on every shard primary concurrently.
func (c *Coordinator) execAll(ctx context.Context, text string) error {
	errs := make([]error, len(c.cfg.Shards))
	var wg sync.WaitGroup
	for i, sh := range c.cfg.Shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			_, errs[i] = c.client.Exec(ctx, base, text)
		}(i, sh.Primary)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("dist: shard %d: %w", i, err)
		}
	}
	return nil
}

// insert hash-routes each VALUES row to its shard and re-renders one
// INSERT per shard; broadcast tables get every row everywhere.
func (c *Coordinator) insert(ctx context.Context, s *sql.InsertStmt) (*Result, error) {
	route, err := c.route(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	if route.partCol < 0 {
		text := renderInsert(s.Table, s.Columns, s.Rows)
		if err := c.execAll(ctx, text); err != nil {
			return nil, err
		}
		return &Result{RowsAffected: int64(len(s.Rows))}, nil
	}

	// Locate the partition column inside the VALUES row layout.
	vi := route.partCol
	if s.Columns != nil {
		vi = -1
		for i, name := range s.Columns {
			if name == route.cols[route.partCol].Name {
				vi = i
				break
			}
		}
	}
	perShard := make([][][]sql.Node, len(c.cfg.Shards))
	for _, row := range s.Rows {
		si := 0
		if vi >= 0 {
			si, err = literalShard(row[vi], route.cols[route.partCol], len(c.cfg.Shards))
			if err != nil {
				return nil, fmt.Errorf("dist: %s: %w", s.Table, err)
			}
		}
		perShard[si] = append(perShard[si], row)
	}
	return c.scatterWrite(ctx, s.Table, s.Columns, perShard)
}

// scatterWrite ships each shard its slice of rows concurrently.
func (c *Coordinator) scatterWrite(ctx context.Context, table string, columns []string, perShard [][][]sql.Node) (*Result, error) {
	var total int64
	errs := make([]error, len(c.cfg.Shards))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := range perShard {
		if len(perShard[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := c.client.Exec(ctx, c.cfg.Shards[i].Primary, renderInsert(table, columns, perShard[i]))
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dist: shard %d: %w", i, err)
		}
	}
	return &Result{RowsAffected: total}, nil
}

// renderInsert rebuilds INSERT text for one shard's rows. VALUES only
// holds literals (and negations), which FormatNode round-trips exactly.
func renderInsert(table string, columns []string, rows [][]sql.Node) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	if len(columns) > 0 {
		b.WriteString(" (")
		b.WriteString(strings.Join(columns, ", "))
		b.WriteString(")")
	}
	b.WriteString(" VALUES ")
	for ri, row := range rows {
		if ri > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for ci, n := range row {
			if ci > 0 {
				b.WriteString(", ")
			}
			b.WriteString(sql.FormatNode(n))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// literalShard hashes one VALUES literal to a shard. The canonical hash
// input depends on the column type so INSERT and COPY agree: integers as
// decimal, floats as shortest 'g' form, strings as raw bytes. NULL keys
// all land on shard 0.
func literalShard(n sql.Node, cd sql.ColDef, nshards int) (int, error) {
	neg := false
	if ng, ok := n.(*sql.NegOp); ok {
		neg = true
		n = ng.L
	}
	switch e := n.(type) {
	case *sql.NullLit:
		return 0, nil
	case *sql.IntLit:
		v := e.V
		if neg {
			v = -v
		}
		return cellShard(strconv.FormatInt(v, 10), cd, nshards)
	case *sql.FloatLit:
		v := e.V
		if neg {
			v = -v
		}
		return cellShard(strconv.FormatFloat(v, 'g', -1, 64), cd, nshards)
	case *sql.StrLit:
		return int(fnv64(e.V) % uint64(nshards)), nil
	}
	return 0, fmt.Errorf("partition key must be a literal, got %T", n)
}

// cellShard hashes one canonical cell string per the column type.
func cellShard(cell string, cd sql.ColDef, nshards int) (int, error) {
	switch cd.Type {
	case vec.Str:
		return int(fnv64(cell) % uint64(nshards)), nil
	case vec.F64:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return 0, fmt.Errorf("column %s: %q is not a number", cd.Name, cell)
		}
		return int(fnv64(strconv.FormatFloat(f, 'g', -1, 64)) % uint64(nshards)), nil
	default:
		v, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("column %s: %q is not an integer", cd.Name, cell)
		}
		return int(fnv64(strconv.FormatInt(v, 10)) % uint64(nshards)), nil
	}
}

// fnv64 is FNV-1a; the routing hash must be stable across coordinator
// versions because it determines data placement.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// copyCSV bulk-loads a coordinator-local CSV by routing each record to
// its shard and shipping per-shard INSERT batches through the ordinary
// ingest path, so sharded COPY and sharded INSERT are the same machinery.
func (c *Coordinator) copyCSV(ctx context.Context, s *sql.CopyStmt) (*Result, error) {
	route, err := c.route(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, fmt.Errorf("dist: COPY %s: %w", s.Table, err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	if s.Delimiter != 0 {
		r.Comma = s.Delimiter
	}
	r.ReuseRecord = true

	var header []string
	if s.Header {
		rec, herr := r.Read()
		if herr != nil {
			return nil, fmt.Errorf("dist: COPY %s: reading header: %w", s.Table, herr)
		}
		header = append(header, rec...)
		for _, name := range header {
			found := false
			for _, cd := range route.cols {
				if cd.Name == name {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("dist: COPY %s: no column %s", s.Table, name)
			}
		}
	} else {
		for _, cd := range route.cols {
			header = append(header, cd.Name)
		}
	}
	colDef := make([]sql.ColDef, len(header))
	for i, name := range header {
		for _, cd := range route.cols {
			if cd.Name == name {
				colDef[i] = cd
			}
		}
	}
	partIdx := -1
	for i, name := range header {
		if route.partCol >= 0 && name == route.cols[route.partCol].Name {
			partIdx = i
		}
	}

	var total int64
	perShard := make([][][]sql.Node, len(c.cfg.Shards))
	flush := func() error {
		res, ferr := c.scatterWrite(ctx, s.Table, header, perShard)
		if ferr != nil {
			return ferr
		}
		total += res.RowsAffected
		for i := range perShard {
			perShard[i] = perShard[i][:0]
		}
		return nil
	}
	const batchRows = 4096
	batched := 0
	for {
		rec, rerr := r.Read()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			return nil, fmt.Errorf("dist: COPY %s: %w", s.Table, rerr)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dist: COPY %s: record has %d fields, want %d", s.Table, len(rec), len(header))
		}
		row := make([]sql.Node, len(rec))
		for i, cell := range rec {
			n, nerr := csvLiteral(cell, colDef[i])
			if nerr != nil {
				return nil, fmt.Errorf("dist: COPY %s: %w", s.Table, nerr)
			}
			row[i] = n
		}
		si := 0
		if route.partCol >= 0 && partIdx >= 0 && rec[partIdx] != "" {
			si, err = cellShard(rec[partIdx], route.cols[route.partCol], len(c.cfg.Shards))
			if err != nil {
				return nil, fmt.Errorf("dist: COPY %s: %w", s.Table, err)
			}
		}
		if route.partCol < 0 {
			for i := range perShard {
				perShard[i] = append(perShard[i], row)
			}
		} else {
			perShard[si] = append(perShard[si], row)
		}
		batched++
		if batched >= batchRows {
			if err := flush(); err != nil {
				return nil, err
			}
			batched = 0
		}
	}
	if batched > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	if route.partCol < 0 {
		total /= int64(len(c.cfg.Shards))
	}
	return &Result{RowsAffected: total}, nil
}

// csvLiteral converts one CSV cell into the literal node the shard's
// INSERT path will coerce, mirroring the engine's own CSV rules: empty
// is NULL for nullable columns and the empty string for NOT NULL text.
func csvLiteral(cell string, cd sql.ColDef) (sql.Node, error) {
	if cell == "" {
		if cd.Nullable {
			return &sql.NullLit{}, nil
		}
		if cd.Type == vec.Str {
			return &sql.StrLit{V: ""}, nil
		}
		return nil, fmt.Errorf("empty cell for NOT NULL %s column %s", cd.Type, cd.Name)
	}
	switch cd.Type {
	case vec.Str:
		return &sql.StrLit{V: cell}, nil
	case vec.F64:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return nil, fmt.Errorf("column %s: %q is not a number", cd.Name, cell)
		}
		return &sql.FloatLit{V: f}, nil
	default:
		v, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("column %s: %q is not an integer", cd.Name, cell)
		}
		return &sql.IntLit{V: v}, nil
	}
}

// ---- read path -----------------------------------------------------

// read splits the SELECT, scatters the shard subquery, and runs the
// merge fragment locally over an Exchange of the gathered rows.
func (c *Coordinator) read(ctx context.Context, stmt *sql.SelectStmt) (*Result, error) {
	d, err := sql.PlanDistributed(stmt)
	if err != nil {
		return nil, err
	}
	eps, vers := c.endpoints(ctx, sql.JoinTables(stmt))
	req := server.ShardRequest{SQL: d.ShardSQL, Workers: c.cfg.Workers}
	if c.cfg.Fanout.ShardTimeout > 0 {
		req.TimeoutMs = int(c.cfg.Fanout.ShardTimeout / time.Millisecond)
	}
	calls := make([]ShardCall, len(c.cfg.Shards))
	for i := range calls {
		calls[i] = ShardCall{Endpoints: eps[i], Req: req}
		// Gate replica-routed subqueries on the primary's catalog
		// version: a replica still replaying a schema change answers
		// 409 and the fan-out advances to the primary.
		calls[i].Req.MinCatalogVersion = vers[i]
	}
	parts, err := Fanout(ctx, c.client, c.cfg.Fanout, calls)
	if err != nil {
		return nil, err
	}

	names, types, rows, err := unifyParts(parts)
	if err != nil {
		return nil, err
	}
	root, order, limit, err := d.Merge(exec.NewExchange(names, types, rows))
	if err != nil {
		return nil, err
	}
	qc := exec.NewQCtx(c.cfg.Flags)
	qc.Workers = 1 // the merge fragment is small; shards did the heavy lifting
	res, err := exec.RunSortedCtx(ctx, qc, root, order, limit)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: res.Names, Rows: res.Rows}, nil
}

// unifyParts unions the shard results under one column typing. Shards
// may disagree on integer width — one shard's value domain can prove a
// SUM fits int64 while another's cannot — so integer columns widen to
// the largest width seen, with I128 cells rebuilt from the narrow form.
func unifyParts(parts []*ShardResult) ([]string, []vec.Type, [][]exec.Value, error) {
	names := parts[0].Columns
	types := append([]vec.Type(nil), parts[0].Types...)
	nrows := 0
	for _, p := range parts[1:] {
		if len(p.Types) != len(types) {
			return nil, nil, nil, fmt.Errorf("dist: shard arity mismatch: %d vs %d columns", len(p.Types), len(types))
		}
		for i, t := range p.Types {
			w, err := widen(types[i], t)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("dist: column %s: %w", names[i], err)
			}
			types[i] = w
		}
	}
	for _, p := range parts {
		nrows += len(p.Rows)
	}
	rows := make([][]exec.Value, 0, nrows)
	for _, p := range parts {
		for _, r := range p.Rows {
			for i := range r {
				if types[i] == vec.I128 && r[i].Typ != vec.I128 {
					r[i] = exec.Value{Typ: vec.I128, Null: r[i].Null, I128: i128.FromInt64(r[i].I)}
				}
			}
			rows = append(rows, r)
		}
	}
	return names, types, rows, nil
}

// widen merges two column types across shards.
func widen(a, b vec.Type) (vec.Type, error) {
	if a == b {
		return a, nil
	}
	ra, ok1 := intRank[a]
	rb, ok2 := intRank[b]
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("type mismatch: %v vs %v", a, b)
	}
	if ra > rb {
		return a, nil
	}
	return b, nil
}

var intRank = map[vec.Type]int{vec.Bool: 0, vec.I8: 1, vec.I16: 2, vec.I32: 3, vec.I64: 4, vec.I128: 5}

// endpoints computes each shard's candidate endpoints for a read over
// the given tables: caught-up replicas first (when enabled), the
// primary as the final fallback.
func (c *Coordinator) endpoints(ctx context.Context, tables []string) ([][]string, []uint64) {
	out := make([][]string, len(c.cfg.Shards))
	vers := make([]uint64, len(c.cfg.Shards))
	for i, sh := range c.cfg.Shards {
		if !c.cfg.ReplicaReads || len(sh.Replicas) == 0 {
			out[i] = []string{sh.Primary}
			continue
		}
		h := c.shardHealth(ctx, i)
		vers[i] = h.catVer
		var eps []string
		for _, rep := range sh.Replicas {
			if caughtUp(h, rep, tables) {
				eps = append(eps, rep)
			}
		}
		out[i] = append(eps, sh.Primary)
	}
	return out, vers
}

// caughtUp reports whether replica rep has replayed every queried table
// up to the primary's LSN as of the last health poll.
func caughtUp(h shardHealth, rep string, tables []string) bool {
	rl, ok := h.replicas[rep]
	if !ok || h.primary == nil {
		return false
	}
	for _, t := range tables {
		if rl[t] < h.primary[t] {
			return false
		}
	}
	return true
}

// shardHealth returns the shard's replication state, refreshing the
// TTL-cached snapshot from the primary's /wal/status and each replica's
// /replication/status when stale.
func (c *Coordinator) shardHealth(ctx context.Context, i int) shardHealth {
	c.mu.Lock()
	h := c.health[i]
	c.mu.Unlock()
	if h.at.After(time.Now().Add(-c.cfg.StatusTTL)) {
		return h
	}

	sh := c.cfg.Shards[i]
	fresh := shardHealth{at: time.Now(), replicas: map[string]map[string]int64{}}
	if lsns, ver, err := c.client.WALStatus(ctx, sh.Primary); err == nil {
		fresh.primary = lsns
		fresh.catVer = ver
		for _, rep := range sh.Replicas {
			if rs, rerr := c.client.ReplicationStatus(ctx, rep); rerr == nil {
				fresh.replicas[rep] = rs.Tables
			}
		}
	}
	c.mu.Lock()
	c.health[i] = fresh
	c.mu.Unlock()
	return fresh
}

// ReplicaState exposes the cached per-replica catch-up LSNs (primary
// LSN map first, then one map per replica endpoint), for operators and
// the coordinator's status endpoint.
func (c *Coordinator) ReplicaState() []map[string]map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]map[string]map[string]int64, len(c.health))
	for i, h := range c.health {
		m := map[string]map[string]int64{c.cfg.Shards[i].Primary: h.primary}
		for rep, lsns := range h.replicas {
			m[rep] = lsns
		}
		out[i] = m
	}
	return out
}
