//go:build !ocht_debug

package exec

import "ocht/internal/core"

// Release builds skip the partition-ownership bookkeeping entirely; see
// partassert_on.go for the checked twin.

func newPartOwnerAssert(n int) []int32 { return nil }

func debugAssertPartOwner(claims []int32, pi, w int) {}

func debugAssertLinked(parts []*core.Table) {}
