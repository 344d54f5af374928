package tpch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/server"
	"ocht/internal/vec"
)

// TestStatementsServed sends the SQL statements through the server's
// /query handler and compares the rows, in order, with Q's.
func TestStatementsServed(t *testing.T) {
	cat := catFor(t)
	for name, flags := range map[string]core.Flags{"ussr": {UseUSSR: true}, "all": core.All()} {
		h := server.New(cat, server.Config{Flags: flags, Workers: 1}).Handler()
		for q := 1; q <= 22; q++ {
			text, ok := statements[q]
			if !ok {
				continue
			}
			body, _ := json.Marshal(server.QueryRequest{SQL: text})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			var resp server.QueryResponse
			dec := json.NewDecoder(rec.Body)
			dec.UseNumber()
			if err := dec.Decode(&resp); err != nil || rec.Code != http.StatusOK || resp.Error != "" {
				t.Fatalf("%s Q%d: status %d, error %q, decode %v", name, q, rec.Code, resp.Error, err)
			}
			want := Q(q, cat, exec.NewQCtx(flags))
			if len(resp.Rows) != len(want.Rows) {
				t.Fatalf("%s Q%d: %d rows served, %d from Q", name, q, len(resp.Rows), len(want.Rows))
			}
			for i, row := range resp.Rows {
				for j, cell := range row {
					if w := want.Rows[i][j]; !cellEqual(cell, w) {
						t.Fatalf("%s Q%d row %d column %d: served %v, Q %s", name, q, i, j, cell, w)
					}
				}
			}
		}
	}
}

// cellEqual compares a served JSON cell with a result value. A DOUBLE is
// compared by value: JSON carries all of its bits, Value.String rounds.
func cellEqual(cell any, v exec.Value) bool {
	switch {
	case cell == nil:
		return v.Null
	case v.Typ == vec.F64 && !v.Null:
		f, err := cell.(json.Number).Float64()
		return err == nil && f == v.F
	}
	return fmt.Sprint(cell) == v.String()
}
