package csf

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"aoadmm/internal/tensor"
)

// refSort is the comparison sort Build used to run on its input: a stable
// sort of the non-zeros in place, lexicographic under perm.
func refSort(t *tensor.COO, perm []int) {
	idx := make([]int, t.NNZ())
	for i := range idx {
		idx[i] = i
	}
	less := func(p, q int) bool {
		for _, m := range perm {
			if t.Inds[m][p] != t.Inds[m][q] {
				return t.Inds[m][p] < t.Inds[m][q]
			}
		}
		return false
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	for m := range t.Inds {
		old := append([]int32(nil), t.Inds[m]...)
		for i, j := range idx {
			t.Inds[m][i] = old[j]
		}
	}
	oldV := append([]float64(nil), t.Vals...)
	for i, j := range idx {
		t.Vals[i] = oldV[j]
	}
}

// refBuild is the sort-then-build algorithm Build replaced: sort the COO in
// place, record each level's node starts as leaf offsets, then convert them
// into next-level node offsets.
func refBuild(t *tensor.COO, perm []int) *Tensor {
	order := t.Order()
	refSort(t, perm)
	nnz := t.NNZ()
	c := &Tensor{
		Dims: append([]int(nil), t.Dims...),
		Perm: append([]int(nil), perm...),
		FPtr: make([][]int32, order-1),
		FIDs: make([][]int32, order),
		Vals: append([]float64(nil), t.Vals...),
	}
	c.FIDs[order-1] = append([]int32(nil), t.Inds[perm[order-1]]...)
	changedAbove := func(d, p int) bool {
		for dd := 0; dd <= d; dd++ {
			m := perm[dd]
			if t.Inds[m][p] != t.Inds[m][p-1] {
				return true
			}
		}
		return false
	}
	for d := order - 2; d >= 0; d-- {
		var fids, fptr []int32
		for p := 0; p < nnz; p++ {
			if p == 0 || changedAbove(d, p) {
				fids = append(fids, t.Inds[perm[d]][p])
				fptr = append(fptr, int32(p))
			}
		}
		c.FIDs[d] = fids
		c.FPtr[d] = append(fptr, int32(nnz))
	}
	for d := 0; d < order-2; d++ {
		next, ptr := c.FPtr[d+1], c.FPtr[d]
		converted := make([]int32, len(ptr))
		j := 0
		for i, leafOff := range ptr {
			if i == len(ptr)-1 {
				converted[i] = int32(len(c.FIDs[d+1]))
				break
			}
			for next[j] != leafOff {
				j++
			}
			converted[i] = int32(j)
		}
		c.FPtr[d] = converted
	}
	return c
}

// assertSameTree compares two trees field for field, values bit for bit.
func assertSameTree(t *testing.T, name string, want, got *Tensor) {
	t.Helper()
	if !slices.Equal(want.Dims, got.Dims) || !slices.Equal(want.Perm, got.Perm) {
		t.Fatalf("%s: dims/perm %v/%v, want %v/%v", name, got.Dims, got.Perm, want.Dims, want.Perm)
	}
	if !slices.Equal(want.Vals, got.Vals) {
		t.Fatalf("%s: vals %v, want %v", name, got.Vals, want.Vals)
	}
	if len(want.FIDs) != len(got.FIDs) || len(want.FPtr) != len(got.FPtr) {
		t.Fatalf("%s: %d/%d levels, want %d/%d", name, len(got.FIDs), len(got.FPtr), len(want.FIDs), len(want.FPtr))
	}
	for d := range want.FIDs {
		if !slices.Equal(want.FIDs[d], got.FIDs[d]) {
			t.Fatalf("%s: FIDs[%d] %v, want %v", name, d, got.FIDs[d], want.FIDs[d])
		}
	}
	for d := range want.FPtr {
		if !slices.Equal(want.FPtr[d], got.FPtr[d]) {
			t.Fatalf("%s: FPtr[%d] %v, want %v", name, d, got.FPtr[d], want.FPtr[d])
		}
	}
}

// assertSameCOOExact requires identical dims, index columns and values in
// the same order.
func assertSameCOOExact(t *testing.T, name string, want, got *tensor.COO) {
	t.Helper()
	if !slices.Equal(want.Dims, got.Dims) || !slices.Equal(want.Vals, got.Vals) {
		t.Fatalf("%s: input tensor modified", name)
	}
	for m := range want.Inds {
		if !slices.Equal(want.Inds[m], got.Inds[m]) {
			t.Fatalf("%s: input mode %d modified", name, m)
		}
	}
}

// allPerms lists every ordering of 0..n-1.
func allPerms(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, p := range allPerms(n - 1) {
		for at := 0; at <= len(p); at++ {
			out = append(out, slices.Insert(slices.Clone(p), at, n-1))
		}
	}
	return out
}

// TestBuildMatchesSortThenBuild checks Build and BuildSet against the old
// sort-then-build algorithm for every permutation of orders 2–4, on empty,
// single and duplicate-heavy tensors, presorted and shuffled, and that the
// input COO comes back unchanged.
func TestBuildMatchesSortThenBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for order := 2; order <= 4; order++ {
		for _, nnz := range []int{0, 1, 2, 9, 60, 400} {
			for _, maxDim := range []int{2, 9} { // 2: mostly duplicates
				dims := make([]int, order)
				for m := range dims {
					dims[m] = 1 + rng.Intn(maxDim)
				}
				x := tensor.NewCOO(dims, nnz)
				coord := make([]int, order)
				for p := 0; p < nnz; p++ {
					for m := range coord {
						coord[m] = rng.Intn(dims[m])
					}
					x.Append(coord, rng.NormFloat64())
				}
				sorted := x.Clone()
				refSort(sorted, DefaultPerm(order, 0))
				for _, in := range []struct {
					name string
					x    *tensor.COO
				}{{"shuffled", x}, {"presorted", sorted}} {
					name := fmt.Sprintf("order %d nnz %d dims %v %s", order, nnz, dims, in.name)
					orig := in.x.Clone()
					for _, perm := range allPerms(order) {
						got := Build(in.x, perm)
						assertSameCOOExact(t, name, orig, in.x)
						assertSameTree(t, fmt.Sprintf("%s perm %v", name, perm), refBuild(orig.Clone(), perm), got)
					}
					set := BuildSet(in.x)
					assertSameCOOExact(t, name, orig, in.x)
					// The old BuildSet sorted one COO in place, root after root.
					chain := orig.Clone()
					for m := 0; m < order; m++ {
						want := refBuild(chain, DefaultPerm(order, m))
						assertSameTree(t, fmt.Sprintf("%s set root %d", name, m), want, set.Tree(m))
					}
				}
			}
		}
	}
}
