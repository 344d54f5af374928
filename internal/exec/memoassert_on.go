//go:build ocht_debug

package exec

import (
	"fmt"

	"ocht/internal/vec"
)

// debugAssertMemoHits checks every row the code memo resolved — rows not
// in miss, both ascending, among them the rows that copied the record of
// their batch's first row with the same codes — against its group: the
// record's stored key must be the row's key, read from the row's own
// dictionary view. A memo keyed by anything weaker than the view identity
// would hand a row another string's group.
func debugAssertMemoHits(g *groupTable, rows, miss []int32) {
	t := g.pt.Part(0)
	stored := vec.New(vec.Str, 1)
	for _, r := range rows {
		if len(miss) > 0 && miss[0] == r {
			miss = miss[1:]
			continue
		}
		rec := g.recs[r]
		for ci, v := range g.rawKeys {
			t.LoadKey(ci, []int32{rec}, stored, []int32{0})
			got := stored.Str[0]
			if v.IsNull(int(r)) {
				if got != nullStrRef {
					panic(fmt.Sprintf("exec: code memo gave NULL key %d of row %d record %d holding %q", ci, r, rec, g.store.Get(got)))
				}
				continue
			}
			want := string(v.DictEntry(v.CodeAt(int(r))))
			if got == nullStrRef || g.store.Get(got) != want {
				panic(fmt.Sprintf("exec: code memo gave row %d (key %d %q) record %d of another key", r, ci, want, rec))
			}
		}
	}
}
