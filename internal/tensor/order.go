package tensor

import (
	"math"
	"math/bits"
)

// LexOrder returns the permutation that stably sorts n rows lexicographically
// by the key columns, cols[0] most significant: position i of the sorted
// sequence holds row LexOrder(cols, n)[i]. Rows with equal keys keep their
// input order, so the result is exactly the one sort.SliceStable produces
// with a column-by-column signed comparator. The columns are not modified.
//
// It is a least-significant-digit radix sort. Each column, last to first,
// gets one stable counting pass per digit of its values' offset from the
// column minimum, so signed order holds and no table is indexed by a raw
// value. Digits are 16 bits wide, narrowed to 8 for small n so that no
// pass costs more than O(n), and a pass is skipped when every row falls in
// one bucket. Cost is O(len(cols)·n) time, the result plus one more int32
// slice of length n when two or more passes run, and a count table of at
// most 65536 entries whatever the values.
func LexOrder(cols [][]int32, n int) []int32 {
	if n > math.MaxInt32 {
		panic("tensor: LexOrder needs row positions that fit in int32")
	}
	width := uint(min(max(bits.Len(uint(n)), 8), 16))
	mask := uint32(1)<<width - 1
	var ord, buf, count []int32 // a nil ord is the identity
	for c := len(cols) - 1; c >= 0 && n > 1; c-- {
		col := cols[c][:n]
		lo, hi := col[0], col[0]
		for _, v := range col[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		base := uint32(lo)
		span := uint32(hi) - base // hi - lo, exact in uint32
		for shift := uint(0); shift < 32 && span>>shift != 0; shift += width {
			if count == nil {
				count = make([]int32, mask+1)
			}
			cnt := count[:min(span>>shift, mask)+1]
			clear(cnt)
			// Counting does not depend on the current order.
			for _, v := range col {
				cnt[(uint32(v)-base)>>shift&mask]++
			}
			if cnt[(uint32(col[0])-base)>>shift&mask] == int32(n) {
				continue // one bucket: the pass would keep the order
			}
			var sum int32
			for b, k := range cnt {
				cnt[b] = sum
				sum += k
			}
			if buf == nil {
				buf = make([]int32, n)
			}
			if ord == nil {
				for r, v := range col {
					d := (uint32(v) - base) >> shift & mask
					buf[cnt[d]] = int32(r)
					cnt[d]++
				}
			} else {
				for _, r := range ord {
					d := (uint32(col[r]) - base) >> shift & mask
					buf[cnt[d]] = r
					cnt[d]++
				}
			}
			ord, buf = buf, ord
		}
	}
	if ord == nil {
		ord = make([]int32, n)
		for i := range ord {
			ord[i] = int32(i)
		}
	}
	return ord
}

// OrderBy returns the permutation that stably sorts the non-zeros
// lexicographically under the mode permutation perm (perm[0] is the most
// significant mode): new position i holds old non-zero OrderBy(perm)[i].
// The tensor is not modified.
//
// Input in natural mode order (as Dedup and the shard store leave it) needs
// at most the root pass when the remaining modes of perm ascend, as in
// csf.DefaultPerm: stable-sorting by perm[0] alone keeps the natural order
// of the rest. One linear scan confirms the natural order; it is not assumed.
func (t *COO) OrderBy(perm []int) []int32 {
	if len(perm) != t.Order() {
		panic("tensor: OrderBy permutation length mismatch")
	}
	cols := make([][]int32, len(perm))
	for k, m := range perm {
		cols[k] = t.Inds[m]
	}
	if len(perm) > 0 && restAscending(perm) && LexSorted(t.Inds, t.NNZ()) {
		if perm[0] == 0 {
			cols = nil // perm is the natural order itself
		} else {
			cols = cols[:1]
		}
	}
	return LexOrder(cols, t.NNZ())
}

// restAscending reports whether perm[1:] lists every mode other than perm[0]
// in ascending order.
func restAscending(perm []int) bool {
	for k := 1; k < len(perm); k++ {
		want := k - 1
		if want >= perm[0] {
			want = k
		}
		if perm[k] != want {
			return false
		}
	}
	return true
}

// LexSorted reports whether n rows are already in lexicographic order by the
// key columns, cols[0] most significant: whether LexOrder would return the
// identity. It is one linear scan with no allocation.
func LexSorted(cols [][]int32, n int) bool {
	for p := 1; p < n; p++ {
		for _, col := range cols {
			if col[p] != col[p-1] {
				if col[p] < col[p-1] {
					return false
				}
				break
			}
		}
	}
	return true
}
