package sql

import (
	"fmt"
	"testing"
)

// TestNotSelectsNoNullRow pins SQL's three-valued NOT: a row whose note is
// NULL makes note = 'x' NULL, and NOT NULL is NULL, so no negated form
// selects it. testCatalog has 10 000 sales rows, 1 112 NULL notes and
// 1 778 rows with note 'note 1 here'; the other 7 110 notes are non-NULL
// and different.
func TestNotSelectsNoNullRow(t *testing.T) {
	cat := testCatalog()
	cases := []struct {
		cond string
		want int64
	}{
		{"note = 'note 1 here'", 1778},
		{"note <> 'note 1 here'", 7110},
		{"NOT (note = 'note 1 here')", 7110},
		{"note NOT IN ('note 1 here')", 7110},
		{"NOT (note IN ('note 1 here'))", 7110},
		{"note NOT LIKE 'note 1%'", 7110},
		{"NOT (note LIKE 'note 1%')", 7110},
		{"NOT (NOT (note = 'note 1 here'))", 1778},
		{"NOT (note IS NULL)", 8888},
		{"NOT (note IS NOT NULL)", 1112},
		// De Morgan: qty > 5 holds on half of every note group.
		{"NOT (note = 'note 1 here' OR qty > 5)", 3555},
		{"NOT (note = 'note 1 here' AND qty > 5)", 8555},
	}
	for _, c := range cases {
		where := mustRun(t, cat, "SELECT COUNT(*) FROM sales WHERE "+c.cond)
		if got := where.Rows[0][0].I; got != c.want {
			t.Errorf("WHERE %s: %d rows, want %d", c.cond, got, c.want)
		}
		q := fmt.Sprintf("SELECT SUM(CASE WHEN %s THEN 1 ELSE 0 END) FROM sales", c.cond)
		if got := mustRun(t, cat, q).Rows[0][0].I; got != c.want {
			t.Errorf("CASE WHEN %s: %d rows, want %d", c.cond, got, c.want)
		}
	}
}
