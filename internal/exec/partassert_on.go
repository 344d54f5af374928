//go:build ocht_debug

package exec

import (
	"fmt"
	"sync/atomic"

	"ocht/internal/core"
)

// newPartOwnerAssert allocates the partition-claim table the ocht_debug
// build uses to pin the owner-computes contract: after the phase-1→phase-2
// handoff every partition is built by exactly one worker — its assigned
// owner — and never revisited.
func newPartOwnerAssert(n int) []int32 {
	claims := make([]int32, n)
	for i := range claims {
		claims[i] = -1
	}
	return claims
}

// debugAssertPartOwner atomically claims partition pi for worker w and
// panics when some worker already built it: a scheduling bug that would
// silently double-count every group in the partition.
func debugAssertPartOwner(claims []int32, pi, w int) {
	if !atomic.CompareAndSwapInt32(&claims[pi], -1, int32(w)) {
		panic(fmt.Sprintf("exec: partition %d built by worker %d but already claimed by worker %d",
			pi, w, atomic.LoadInt32(&claims[pi])))
	}
}

// debugAssertLinked panics when an owner handed over a partition table
// it did not link: owners link on their own goroutines, so Adopt's
// fallback link must stay a no-op.
func debugAssertLinked(parts []*core.Table) {
	for pi, t := range parts {
		if n := t.Unlinked(); n != 0 {
			panic(fmt.Sprintf("exec: partition %d reached Adopt with %d unlinked records", pi, n))
		}
	}
}
