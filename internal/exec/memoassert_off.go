//go:build !ocht_debug

package exec

// Release builds trust the code memo; see memoassert_on.go for the
// checked twin.

func debugAssertMemoHits(g *groupTable, rows, miss []int32) {}
