// Package tensor provides the coordinate (COO) sparse-tensor representation,
// FROSTT-style text I/O, and synthetic workload generators.
//
// COO is the interchange format: tensors are read, generated, sorted, and
// deduplicated here, then compiled into CSF trees (package csf) for the
// MTTKRP kernels.
package tensor

import (
	"fmt"
	"math"
)

// COO is a sparse tensor of arbitrary order in coordinate format.
// Inds[m][p] is the mode-m index (0-based) of the p-th non-zero and Vals[p]
// its value. Dims[m] is the length of mode m.
type COO struct {
	Dims []int
	Inds [][]int32
	Vals []float64
}

// NewCOO allocates an empty tensor with the given mode lengths and capacity
// for nnz non-zeros.
func NewCOO(dims []int, nnz int) *COO {
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in %v", dims))
		}
	}
	inds := make([][]int32, len(dims))
	for m := range inds {
		inds[m] = make([]int32, 0, nnz)
	}
	return &COO{
		Dims: append([]int(nil), dims...),
		Inds: inds,
		Vals: make([]float64, 0, nnz),
	}
}

// Order returns the number of modes.
func (t *COO) Order() int { return len(t.Dims) }

// NNZ returns the number of stored non-zeros.
func (t *COO) NNZ() int { return len(t.Vals) }

// Append adds one non-zero. The coordinate length must equal the order and
// each index must be within its mode's bounds.
func (t *COO) Append(coord []int, val float64) {
	if len(coord) != t.Order() {
		panic(fmt.Sprintf("tensor: coordinate of length %d for order-%d tensor", len(coord), t.Order()))
	}
	for m, c := range coord {
		if c < 0 || c >= t.Dims[m] {
			panic(fmt.Sprintf("tensor: index %d out of range for mode %d (dim %d)", c, m, t.Dims[m]))
		}
		t.Inds[m] = append(t.Inds[m], int32(c))
	}
	t.Vals = append(t.Vals, val)
}

// At returns the coordinate of non-zero p as a freshly allocated slice.
func (t *COO) At(p int) []int {
	c := make([]int, t.Order())
	for m := range c {
		c[m] = int(t.Inds[m][p])
	}
	return c
}

// Density returns NNZ / Π dims.
func (t *COO) Density() float64 {
	prod := 1.0
	for _, d := range t.Dims {
		prod *= float64(d)
	}
	if prod == 0 {
		return 0
	}
	return float64(t.NNZ()) / prod
}

// NormSq returns Σ v², the squared Frobenius norm of the tensor.
func (t *COO) NormSq() float64 {
	var s float64
	for _, v := range t.Vals {
		s += v * v
	}
	return s
}

// Norm returns the Frobenius norm.
func (t *COO) Norm() float64 { return math.Sqrt(t.NormSq()) }

// Clone returns a deep copy.
func (t *COO) Clone() *COO {
	c := NewCOO(t.Dims, t.NNZ())
	for m := range t.Inds {
		c.Inds[m] = append(c.Inds[m][:0], t.Inds[m]...)
	}
	c.Vals = append(c.Vals[:0], t.Vals...)
	return c
}

// Sort orders the non-zeros lexicographically by the mode permutation perm,
// stably (see OrderBy).
func (t *COO) Sort(perm []int) {
	t.permuteNonzeros(t.OrderBy(perm))
}

// permuteNonzeros reorders storage so that new position i holds old
// non-zero idx[i].
func (t *COO) permuteNonzeros(idx []int32) {
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

// Dedup sorts by the natural mode order and merges duplicate coordinates by
// summing their values. It returns the number of merged duplicates.
func (t *COO) Dedup() int {
	if t.NNZ() == 0 {
		return 0
	}
	perm := make([]int, t.Order())
	for i := range perm {
		perm[i] = i
	}
	t.Sort(perm)
	w := 0
	merged := 0
	for p := 1; p < t.NNZ(); p++ {
		same := true
		for m := range t.Inds {
			if t.Inds[m][p] != t.Inds[m][w] {
				same = false
				break
			}
		}
		if same {
			t.Vals[w] += t.Vals[p]
			merged++
			continue
		}
		w++
		for m := range t.Inds {
			t.Inds[m][w] = t.Inds[m][p]
		}
		t.Vals[w] = t.Vals[p]
	}
	n := w + 1
	for m := range t.Inds {
		t.Inds[m] = t.Inds[m][:n]
	}
	t.Vals = t.Vals[:n]
	return merged
}

// Validate checks structural and numerical sanity: index arrays of equal
// length, indices within their modes' bounds, and finite values. Solvers
// call it on input tensors; NaN or Inf values would silently poison every
// downstream reduction.
func (t *COO) Validate() error {
	nnz := len(t.Vals)
	for m := range t.Inds {
		if len(t.Inds[m]) != nnz {
			return fmt.Errorf("tensor: mode %d has %d indices for %d values", m, len(t.Inds[m]), nnz)
		}
		dim := int32(t.Dims[m])
		for p, idx := range t.Inds[m] {
			if idx < 0 || idx >= dim {
				return fmt.Errorf("tensor: non-zero %d mode %d index %d out of range [0, %d)", p, m, idx, dim)
			}
		}
	}
	for p, v := range t.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tensor: non-zero %d has non-finite value %v", p, v)
		}
	}
	return nil
}

// SliceCounts returns, for mode m, the number of non-zeros in each slice
// (index value) of that mode. Used for skew diagnostics and workload
// characterization.
func (t *COO) SliceCounts(m int) []int {
	counts := make([]int, t.Dims[m])
	for _, i := range t.Inds[m] {
		counts[i]++
	}
	return counts
}

// String summarizes the tensor.
func (t *COO) String() string {
	return fmt.Sprintf("COO{dims=%v, nnz=%d, density=%.3g}", t.Dims, t.NNZ(), t.Density())
}
