package bi

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
)

// TestStatementsServed sends the 20 statement texts through the server's
// /query handler and compares the rows, in order, with Q's.
func TestStatementsServed(t *testing.T) {
	cat := catFor(t)
	for name, flags := range map[string]core.Flags{"ussr": {UseUSSR: true}, "all": core.All()} {
		h := server.New(cat, server.Config{Flags: flags, Workers: 1}).Handler()
		for q := 1; q <= NumQueries; q++ {
			body, _ := json.Marshal(server.QueryRequest{SQL: statements[q-1]})
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
					got := fmt.Sprint(cell)
					if cell == nil {
						got = "NULL"
					}
					if w := want.Rows[i][j].String(); got != w {
						t.Fatalf("%s Q%d row %d column %d: served %s, Q %s", name, q, i, j, got, w)
					}
				}
			}
		}
	}
}
