package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refLess is the comparator Sort used before the radix order: non-zeros p
// and q compared lexicographically under perm, perm[0] most significant.
func refLess(t *COO, perm []int, p, q int) bool {
	for _, m := range perm {
		if t.Inds[m][p] != t.Inds[m][q] {
			return t.Inds[m][p] < t.Inds[m][q]
		}
	}
	return false
}

// refOrderBy is the reference permutation: sort.SliceStable with refLess.
func refOrderBy(t *COO, perm []int) []int32 {
	idx := make([]int, t.NNZ())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return refLess(t, perm, idx[a], idx[b]) })
	out := make([]int32, len(idx))
	for i, j := range idx {
		out[i] = int32(j)
	}
	return out
}

// permutations lists every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// rawCOO builds a tensor straight from columns, bypassing Append's bounds
// checks so negative and out-of-Dims coordinates can be ordered.
func rawCOO(dims []int, cols [][]int32) *COO {
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	vals := make([]float64, n)
	for p := range vals {
		vals[p] = float64(p)
	}
	return &COO{Dims: dims, Inds: cols, Vals: vals}
}

// cloneCols deep-copies index columns.
func cloneCols(cols [][]int32) [][]int32 {
	out := make([][]int32, len(cols))
	for m, c := range cols {
		out[m] = append([]int32(nil), c...)
	}
	return out
}

// checkOrderBy compares OrderBy with the reference for every permutation of
// the modes and checks the tensor is left untouched.
func checkOrderBy(t *testing.T, name string, x *COO) {
	t.Helper()
	before := cloneCols(x.Inds)
	for _, perm := range permutations(x.Order()) {
		got := x.OrderBy(perm)
		if want := refOrderBy(x, perm); !slices.Equal(got, want) {
			t.Fatalf("%s perm %v: order %v, want %v", name, perm, got, want)
		}
		for m := range before {
			if !slices.Equal(before[m], x.Inds[m]) {
				t.Fatalf("%s perm %v: OrderBy modified mode %d", name, perm, m)
			}
		}
	}
}

func TestOrderByMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type valueGen struct {
		name string
		draw func(dim int) int32
	}
	gens := []valueGen{
		{"in-range", func(dim int) int32 { return int32(rng.Intn(dim)) }},
		// Two or three distinct values: heavy duplication, and often one
		// bucket per digit so passes are skipped.
		{"duplicates", func(int) int32 { return int32(rng.Intn(3)) * 5 }},
		{"negative-and-past-dims", func(dim int) int32 { return int32(rng.Intn(4*dim) - 2*dim) }},
		// Spans wider than 16 bits take two digit passes per column;
		// multiples of 1<<16 share one low digit, so that pass is skipped.
		{"wide", func(int) int32 {
			switch rng.Intn(4) {
			case 0:
				return math.MinInt32 + int32(rng.Intn(3))
			case 1:
				return math.MaxInt32 - int32(rng.Intn(3))
			case 2:
				return int32(rng.Intn(5)) << 16
			}
			return rng.Int31() - rng.Int31()
		}},
	}
	for order := 2; order <= 4; order++ {
		for _, nnz := range []int{0, 1, 2, 7, 40, 300} {
			for _, g := range gens {
				dims := make([]int, order)
				cols := make([][]int32, order)
				for m := range dims {
					dims[m] = 1 + rng.Intn(6)
					cols[m] = make([]int32, nnz)
					for p := range cols[m] {
						cols[m][p] = g.draw(dims[m])
					}
				}
				x := rawCOO(dims, cols)
				name := fmt.Sprintf("order %d nnz %d %s", order, nnz, g.name)
				checkOrderBy(t, name+" shuffled", x)

				// Presorted into natural order: the root-pass shortcut runs
				// for every DefaultPerm-shaped permutation.
				x.permuteNonzeros(refOrderBy(x, naturalPerm(order)))
				if !LexSorted(x.Inds, x.NNZ()) {
					t.Fatalf("%s: presorted input not in natural order", name)
				}
				checkOrderBy(t, name+" presorted", x)
			}
		}
	}
}

// naturalPerm returns 0..order-1.
func naturalPerm(order int) []int {
	perm := make([]int, order)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

func TestLexSortedDetectsDisorder(t *testing.T) {
	x := rawCOO([]int{3, 3}, [][]int32{{0, 0, 1, 1}, {0, 2, 1, 1}})
	if !LexSorted(x.Inds, x.NNZ()) {
		t.Fatal("non-decreasing input with a duplicate reported as disordered")
	}
	x.Inds[1][3] = 0 // (1,1) then (1,0)
	if LexSorted(x.Inds, x.NNZ()) {
		t.Fatal("descending last mode not detected")
	}
	checkOrderBy(t, "disordered", x)
}

func TestRestAscending(t *testing.T) {
	for _, tc := range []struct {
		perm []int
		want bool
	}{
		{[]int{0}, true},
		{[]int{0, 1, 2}, true},
		{[]int{1, 0, 2}, true},
		{[]int{2, 0, 1}, true},
		{[]int{1, 2, 0}, false},
		{[]int{0, 2, 1}, false},
		{[]int{1, 1, 2}, false},
	} {
		if got := restAscending(tc.perm); got != tc.want {
			t.Errorf("restAscending(%v) = %v, want %v", tc.perm, got, tc.want)
		}
	}
}

// FuzzLexOrder compares the radix order with the sort.SliceStable reference
// on arbitrary int32 columns, directly and through OrderBy with every root
// on the raw and the naturally presorted rows.
func FuzzLexOrder(f *testing.F) {
	f.Add(byte(3), []byte{})
	f.Add(byte(2), []byte{1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add(byte(1), []byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 0, 0, 1, 0, 0, 0, 0, 0})
	f.Add(byte(4), []byte("a tensor of arbitrary coordinates, duplicates and all"))
	f.Fuzz(func(t *testing.T, ncols byte, data []byte) {
		order := 1 + int(ncols)%4
		n := len(data) / (4 * order)
		cols := make([][]int32, order)
		for m := range cols {
			cols[m] = make([]int32, n)
			for p := range cols[m] {
				off := 4 * (p*order + m)
				cols[m][p] = int32(binary.LittleEndian.Uint32(data[off:]))
			}
		}
		x := rawCOO(make([]int, order), cols)
		natural := naturalPerm(order)
		want := refOrderBy(x, natural)
		if got := LexOrder(cols, n); !slices.Equal(got, want) {
			t.Fatalf("LexOrder %v, want %v", got, want)
		}
		identity := slices.IsSortedFunc(want, func(a, b int32) int { return int(a - b) })
		if LexSorted(cols, n) != identity {
			t.Fatalf("LexSorted = %v for order %v", !identity, want)
		}
		for pass := 0; pass < 2; pass++ {
			for root := 0; root < order; root++ {
				perm := append([]int{root}, slices.Delete(naturalPerm(order), root, root+1)...)
				if got, want := x.OrderBy(perm), refOrderBy(x, perm); !slices.Equal(got, want) {
					t.Fatalf("OrderBy(%v) %v, want %v", perm, got, want)
				}
			}
			x.permuteNonzeros(refOrderBy(x, natural))
		}
	})
}
