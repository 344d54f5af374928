package sql

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParse feeds arbitrary bytes through the lexer and parser. The
// contract under fuzzing: Parse either returns a statement or an error —
// it never panics, never loops, and a statement that parses once
// round-trips through a second Parse of the same input identically
// (determinism).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT COUNT(*) FROM t",
		"SELECT a, b, SUM(c) FROM t WHERE a = 'x' GROUP BY a, b ORDER BY a LIMIT 10",
		"SELECT a FROM t JOIN u ON a = b",
		"SELECT a FROM t LEFT OUTER JOIN u ON a = b WHERE c > 5",
		"SELECT * FROM t",
		"SELECT a FROM t WHERE s = 'it''s quoted'",
		"SELECT SUM(a * (100 - b)) FROM t WHERE c >= 19940101 AND c < 19950101",
		"SELECT a FROM t WHERE b IN ('x', 'y', 'z')",
		"SELECT a FROM t WHERE b LIKE '%foo%'",
		"SELECT a FROM t WHERE b IS NOT NULL ORDER BY a DESC",
		"SELECT MIN(a), MAX(b), AVG(c), COUNT(d) FROM t GROUP BY e",
		"select lower_case from t",
		"SELECT",
		"SELECT FROM",
		"'unclosed",
		"SELECT a FROM t WHERE (((((a = 1)))))",
		"SELECT a -- no comment syntax",
		"\x00\xff\xfe",
		strings.Repeat("(", 100),
		strings.Repeat("SELECT ", 50),
		// Write-path statements.
		"CREATE TABLE t (a BIGINT NOT NULL, b TEXT, c DOUBLE)",
		"CREATE TABLE IF NOT EXISTS t (a INT)",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL)",
		"INSERT INTO t VALUES (1, 2.5, 'z')",
		"COPY t FROM 'f.csv' WITH HEADER DELIMITER '|'",
		"CREATE TABLE t (a VARCHAR(30))",
		"INSERT INTO t VALUES",
		"COPY t FROM",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, query string) {
		// ParseStatement covers the DDL/DML grammar too; same contract:
		// a statement or an error, never a panic.
		if s, err := ParseStatement(query); err == nil && s == nil {
			t.Fatalf("ParseStatement(%q) returned nil statement and nil error", query)
		}
		stmt, err := Parse(query)
		if err != nil {
			if stmt != nil {
				t.Fatalf("Parse(%q) returned both a statement and error %v", query, err)
			}
			return
		}
		if stmt == nil {
			t.Fatalf("Parse(%q) returned nil statement and nil error", query)
		}
		// Determinism: the same input must parse the same way again.
		stmt2, err2 := Parse(query)
		if err2 != nil || stmt2 == nil {
			t.Fatalf("Parse(%q) succeeded once then failed: %v", query, err2)
		}
		if stmt.Table != stmt2.Table || len(stmt.Items) != len(stmt2.Items) ||
			len(stmt.Joins) != len(stmt2.Joins) || len(stmt.GroupBy) != len(stmt2.GroupBy) {
			t.Fatalf("Parse(%q) is nondeterministic", query)
		}
		// Accepted identifiers came from the lexer, so they must be valid
		// UTF-8 the rest of the engine can store and hash.
		if !utf8.ValidString(stmt.Table) {
			t.Fatalf("Parse(%q) accepted non-UTF-8 table name %q", query, stmt.Table)
		}
	})
}

// TestParseFuzzRegressions pins inputs that the fuzzer (or thinking like
// one) found interesting: each must error cleanly rather than panic or
// mis-parse.
func TestParseFuzzRegressions(t *testing.T) {
	mustErr := []string{
		"",                                      // empty input
		"   \t\n  ",                             // whitespace only
		"SELECT",                                // truncated after keyword
		"SELECT a FROM",                         // truncated mid-clause
		"SELECT a FROM t WHERE",                 // trailing WHERE
		"SELECT a FROM t GROUP",                 // GROUP without BY
		"SELECT a FROM t ORDER",                 // ORDER without BY
		"SELECT a FROM t LIMIT",                 // LIMIT without count
		"SELECT a FROM t LIMIT 'x'",             // non-numeric limit
		"SELECT a FROM t JOIN",                  // JOIN without table
		"SELECT a FROM t JOIN u",                // JOIN without ON
		"SELECT a FROM t LEFT u ON a = b",       // LEFT without JOIN
		"SELECT 'unclosed FROM t",               // unterminated string literal
		"SELECT a FROM t WHERE a = 'x",          // unterminated at end
		"SELECT a FROM t extra trailing tokens", // garbage after statement
		"SELECT (a FROM t",                      // unbalanced paren
		"SELECT a) FROM t",                      // stray close paren
		"SELECT a,, b FROM t",                   // empty list element
		"SELECT , FROM t",                       // leading comma
		"FROM t SELECT a",                       // clauses out of order
		"SELECT a FROM t WHERE = 5",             // operator without lhs
		"SELECT a FROM t WHERE a = = 5",         // doubled operator
		"SELECT COUNT(* FROM t",                 // unclosed call
		"\x00",                                  // NUL byte
		"SELECT \xff\xfe FROM t",                // invalid UTF-8 identifier position
	}
	for _, q := range mustErr {
		stmt, err := func() (s *SelectStmt, err error) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Parse(%q) panicked: %v", q, p)
				}
			}()
			return Parse(q)
		}()
		if err == nil {
			t.Errorf("Parse(%q) = %+v, want error", q, stmt)
		}
	}

	// Inputs that must keep parsing (guard against over-tightening).
	mustOK := []string{
		"SELECT a FROM t",
		"SELECT a FROM t WHERE s = 'it''s'", // escaped quote stays one literal
		"select count(*) from t",            // keywords any case
		"SELECT a FROM t LIMIT 0",
	}
	for _, q := range mustOK {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v, want success", q, err)
		}
	}
}
