package bi

import (
	"fmt"

	"ocht/internal/exec"
	"ocht/internal/sql"
	"ocht/internal/storage"
)

// NumQueries is the number of workload queries.
const NumQueries = 20

// statements are the workload's SQL texts. The mix follows the paper's
// CommonGovernment profile: almost all queries are aggregations over
// string columns with small results, a few (Q6, Q8, Q20) group on
// very-high-cardinality strings whose dictionaries overflow the USSR.
var statements = [NumQueries]string{
	// Q1: spend per agency — low-cardinality long strings, the USSR
	// sweet spot.
	"SELECT agency, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY agency ORDER BY cnt DESC LIMIT 1000",
	// Q2: contracts per status — tiny dictionary.
	"SELECT status, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY status ORDER BY cnt DESC LIMIT 1000",
	// Q3: agency x status matrix.
	"SELECT agency, status, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY agency, status ORDER BY cnt DESC LIMIT 1000",
	// Q4: contract types.
	"SELECT contract_type, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY contract_type ORDER BY cnt DESC LIMIT 1000",
	// Q5: spend per vendor — medium cardinality (thousands of strings).
	"SELECT vendor, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY vendor ORDER BY cnt DESC LIMIT 1000",
	// Q6: count per description — near-unique strings; the dictionary
	// does not fit the USSR (the paper's rejection regime).
	"SELECT description, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY description ORDER BY cnt DESC LIMIT 1000",
	// Q7: spend per product code — large dictionary, partially resident.
	"SELECT product, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY product ORDER BY cnt DESC LIMIT 1000",
	// Q8: award ids of one year — another overflowing dictionary.
	"SELECT award_id, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts WHERE year = 2015 GROUP BY award_id ORDER BY cnt DESC LIMIT 1000",
	// Q9: state x contract type.
	"SELECT state, contract_type, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY state, contract_type ORDER BY cnt DESC LIMIT 1000",
	// Q10: departments of active contracts (NULL-able group key).
	"SELECT dept, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts WHERE status = 'ACTIVE' GROUP BY dept ORDER BY cnt DESC LIMIT 1000",
	// Q11: product x year.
	"SELECT product, year, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY product, year ORDER BY cnt DESC LIMIT 1000",
	// Q12: big-ticket agencies.
	"SELECT agency, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts WHERE amount > 5000000 GROUP BY agency ORDER BY cnt DESC LIMIT 1000",
	// Q13: agency x year trend.
	"SELECT agency, year_str, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY agency, year_str ORDER BY cnt DESC LIMIT 1000",
	// Q14: California vendors.
	"SELECT vendor, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts WHERE state = 'CALIFORNIA' GROUP BY vendor ORDER BY cnt DESC LIMIT 1000",
	// Q15: spend per state, known states only.
	"SELECT state, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts WHERE state IS NOT NULL GROUP BY state ORDER BY cnt DESC LIMIT 1000",
	// Q16: three-way string group.
	"SELECT agency, contract_type, status, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY agency, contract_type, status ORDER BY cnt DESC LIMIT 1000",
	// Q17: recent expired contracts per agency.
	"SELECT agency, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts WHERE year >= 2016 AND status = 'EXPIRED' GROUP BY agency ORDER BY cnt DESC LIMIT 1000",
	// Q18: departments overall.
	"SELECT dept, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY dept ORDER BY cnt DESC LIMIT 1000",
	// Q19: the year-stored-as-string column the workload study calls out.
	"SELECT year_str, status, COUNT(*) AS cnt, SUM(amount) AS total FROM contracts GROUP BY year_str, status ORDER BY cnt DESC LIMIT 1000",
	// Q20: vendor join + grouping on award ids — a large unified
	// dictionary plus a join, the paper's third no-benefit query.
	"SELECT award_id, v_state, SUM(amount) AS total FROM contracts JOIN vendors ON vendor = v_name " +
		"WHERE year < 2013 GROUP BY award_id, v_state ORDER BY total DESC LIMIT 1000",
}

// parsed holds the statements, parsed once.
var parsed = func() (out [NumQueries]*sql.SelectStmt) {
	for i, text := range statements {
		stmt, err := sql.Parse(text)
		if err != nil {
			panic(fmt.Sprintf("bi: Q%d: %v", i+1, err))
		}
		out[i] = stmt
	}
	return out
}()

// Q runs BI workload query n (1..20) under qc: the SQL planner plans the
// statement against cat, and qc's flags and workers run it.
func Q(n int, cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	if n < 1 || n > NumQueries {
		panic(fmt.Sprintf("bi: no query %d", n))
	}
	root, order, limit, err := sql.Plan(parsed[n-1], cat)
	if err != nil {
		panic(fmt.Sprintf("bi: Q%d: %v", n, err))
	}
	return exec.RunSorted(qc, root, order, limit)
}
