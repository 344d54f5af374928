package exec

// The select kernels: one tight loop per operator over a selection,
// writing the surviving rows compacted into out (out[k] = r, k advancing
// only on a hit, so out may be rows itself). Each returns the count.

// b2i is the branch-free form of a verdict.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selBool selects the rows where v equals want and, when nulls is
// non-nil, the row is not NULL.
//
//ocht:hot
func selBool(v, nulls []bool, want bool, rows, out []int32) int {
	k := 0
	if nulls == nil {
		for _, r := range rows {
			out[k] = r
			k += b2i(v[r] == want)
		}
		return k
	}
	for _, r := range rows {
		out[k] = r
		k += b2i(v[r] == want && !nulls[r])
	}
	return k
}

// selI64Const selects the rows where a[r] op c holds.
//
//ocht:hot
func selI64Const(op cmpOp, a []int64, c int64, rows, out []int32) int {
	k := 0
	switch op {
	case opEQ:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] == c)
		}
	case opNE:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] != c)
		}
	case opLT:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] < c)
		}
	case opLE:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] <= c)
		}
	case opGT:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] > c)
		}
	case opGE:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] >= c)
		}
	}
	return k
}

// selI64Cols selects the rows where a[r] op b[r] holds.
//
//ocht:hot
func selI64Cols(op cmpOp, a, b []int64, rows, out []int32) int {
	k := 0
	switch op {
	case opEQ:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] == b[r])
		}
	case opNE:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] != b[r])
		}
	case opLT:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] < b[r])
		}
	case opLE:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] <= b[r])
		}
	case opGT:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] > b[r])
		}
	case opGE:
		for _, r := range rows {
			out[k] = r
			k += b2i(a[r] >= b[r])
		}
	}
	return k
}

// selI64In selects the rows whose a[r] is in the ascending set, or not in
// it when neg.
//
//ocht:hot
func selI64In(a, set []int64, neg bool, rows, out []int32) int {
	k := 0
	lo, hi := set[0], set[len(set)-1]
	for _, r := range rows {
		x := a[r]
		in := false
		if x >= lo && x <= hi {
			// Lists are short: a linear scan beats a search.
			for _, s := range set {
				if s == x {
					in = true
					break
				}
			}
		}
		out[k] = r
		k += b2i(in != neg)
	}
	return k
}

// selVerdict selects the rows whose dictionary code (plain, or decoded
// from bit-packed words) the verdict table accepts.
//
//ocht:hot
func selVerdict[C int32 | int64](ok []bool, codes []C, rows, out []int32) int {
	k := 0
	for _, r := range rows {
		out[k] = r
		k += b2i(ok[codes[r]])
	}
	return k
}

// intersectSel writes the rows also in the ascending selection a.
//
//ocht:hot
func intersectSel(a, rows, out []int32) int {
	k, i := 0, 0
	for _, r := range rows {
		for i < len(a) && a[i] < r {
			i++
		}
		if i == len(a) {
			break
		}
		out[k] = r
		k += b2i(a[i] == r)
	}
	return k
}

// minusSel writes the rows not in the ascending selection a, a subset of
// rows.
//
//ocht:hot
func minusSel(rows, a, out []int32) int {
	k, i := 0, 0
	for _, r := range rows {
		if i < len(a) && a[i] == r {
			i++
			continue
		}
		out[k] = r
		k++
	}
	return k
}

// mergeSel merges two disjoint ascending selections.
//
//ocht:hot
func mergeSel(a, b, out []int32) int {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	k += copy(out[k:], b[j:])
	return k
}
