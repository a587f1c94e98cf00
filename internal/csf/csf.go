// Package csf implements the compressed sparse fiber (CSF) tensor format of
// SPLATT (Smith & Karypis), the substrate the paper's MTTKRP kernels run on.
//
// CSF recursively compresses the modes of a sparse tensor: a tree per root
// slice, where each root-to-leaf path encodes one non-zero's coordinate and
// the values sit at the leaves (paper Fig. 2). One Tensor is built per mode
// ordering; a Set holds one tree rooted at each mode so that MTTKRP for any
// mode traverses a tree whose root is that mode.
package csf

import (
	"fmt"

	"aoadmm/internal/tensor"
)

// Tensor is a CSF encoding of a sparse tensor under a fixed mode permutation.
//
// Level d of the structure stores the tree nodes at depth d (depth 0 = root
// slices, depth Order-1 = leaves, one leaf per non-zero). FIDs[d][n] is the
// index, within mode Perm[d], of node n at depth d. FPtr[d][n] : FPtr[d][n+1]
// is the range of node n's children at depth d+1 (FPtr has Order-1 levels).
// Vals[p] is the value of leaf p.
type Tensor struct {
	Dims []int // original mode lengths (unpermuted)
	Perm []int // Perm[0] is the root mode
	FPtr [][]int32
	FIDs [][]int32
	Vals []float64
}

// Build compiles a COO tensor into CSF under the given mode permutation.
// It reads the non-zeros through their stable lexicographic order under perm
// (tensor.COO.OrderBy, a linear-time radix order) and leaves the COO
// untouched. Duplicate coordinates become sibling leaves in input order.
func Build(t *tensor.COO, perm []int) *Tensor {
	order := t.Order()
	if len(perm) != order {
		panic(fmt.Sprintf("csf: perm length %d != order %d", len(perm), order))
	}
	seen := make([]bool, order)
	for _, m := range perm {
		if m < 0 || m >= order || seen[m] {
			panic(fmt.Sprintf("csf: invalid permutation %v", perm))
		}
		seen[m] = true
	}
	ord := t.OrderBy(perm)

	nnz := len(ord)
	c := &Tensor{
		Dims: append([]int(nil), t.Dims...),
		Perm: append([]int(nil), perm...),
		FPtr: make([][]int32, order-1),
		FIDs: make([][]int32, order),
		Vals: make([]float64, nnz),
	}
	cols := make([][]int32, order) // cols[d] holds the depth-d mode's indices
	for d, m := range perm {
		cols[d] = t.Inds[m]
	}

	// Leaf level: one node per non-zero.
	leaf := make([]int32, nnz)
	leafCol := cols[order-1]
	for i, p := range ord {
		c.Vals[i] = t.Vals[p]
		leaf[i] = leafCol[p]
	}
	c.FIDs[order-1] = leaf

	// Upper levels in one pass: a new node starts at depth d whenever any of
	// modes perm[0..d] changes between adjacent non-zeros, and its children
	// start at the node the next level is about to append.
	prev := make([]int32, order)
	for i, p := range ord {
		d := 0
		if i > 0 {
			for d < order-1 && cols[d][p] == prev[d] {
				d++
			}
		}
		for ; d < order-1; d++ {
			v := cols[d][p]
			prev[d] = v
			child := int32(i)
			if d < order-2 {
				child = int32(len(c.FIDs[d+1]))
			}
			c.FIDs[d] = append(c.FIDs[d], v)
			c.FPtr[d] = append(c.FPtr[d], child)
		}
	}
	for d := 0; d < order-1; d++ {
		c.FPtr[d] = append(c.FPtr[d], int32(len(c.FIDs[d+1])))
	}
	return c
}

// Order returns the number of modes.
func (c *Tensor) Order() int { return len(c.Dims) }

// NNZ returns the number of non-zeros (leaves).
func (c *Tensor) NNZ() int { return len(c.Vals) }

// NSlices returns the number of non-empty root slices.
func (c *Tensor) NSlices() int { return len(c.FIDs[0]) }

// RootMode returns the mode at the root of this tree.
func (c *Tensor) RootMode() int { return c.Perm[0] }

// NNodes returns the node count at depth d.
func (c *Tensor) NNodes(d int) int { return len(c.FIDs[d]) }

// Children returns the child node range [begin, end) at depth d+1 for node n
// at depth d.
func (c *Tensor) Children(d, n int) (begin, end int) {
	return int(c.FPtr[d][n]), int(c.FPtr[d][n+1])
}

// Walk calls fn(coord, val) for every non-zero, with coord in original
// (unpermuted) mode order. Intended for tests and small tensors.
func (c *Tensor) Walk(fn func(coord []int, val float64)) {
	order := c.Order()
	coord := make([]int, order)
	var rec func(d, n int)
	rec = func(d, n int) {
		coord[c.Perm[d]] = int(c.FIDs[d][n])
		if d == order-1 {
			fn(coord, c.Vals[n])
			return
		}
		begin, end := c.Children(d, n)
		for ch := begin; ch < end; ch++ {
			rec(d+1, ch)
		}
	}
	for r := 0; r < c.NSlices(); r++ {
		rec(0, r)
	}
}

// ToCOO expands the CSF back to coordinate format (tests, round-trips).
func (c *Tensor) ToCOO() *tensor.COO {
	out := tensor.NewCOO(c.Dims, c.NNZ())
	c.Walk(func(coord []int, val float64) {
		out.Append(coord, val)
	})
	return out
}

// MemoryBytes reports the structure's footprint — the backing-array
// capacities, not the lengths, since capacity is what the allocator actually
// committed. Used by experiment reporting and the out-of-core peak-memory
// accounting.
func (c *Tensor) MemoryBytes() int {
	b := cap(c.Vals) * 8
	for _, l := range c.FIDs {
		b += cap(l) * 4
	}
	for _, l := range c.FPtr {
		b += cap(l) * 4
	}
	return b
}

// DefaultPerm returns the canonical permutation rooting the tree at mode
// root and keeping the remaining modes in ascending order. SPLATT sorts
// remaining modes by length; ascending order keeps tests deterministic and
// the difference is immaterial at reproduction scale.
func DefaultPerm(order, root int) []int {
	if root < 0 || root >= order {
		panic(fmt.Sprintf("csf: root mode %d out of range for order %d", root, order))
	}
	perm := make([]int, 0, order)
	perm = append(perm, root)
	for m := 0; m < order; m++ {
		if m != root {
			perm = append(perm, m)
		}
	}
	return perm
}

// Set holds one CSF tree rooted at every mode, the layout AO-ADMM uses so
// that each mode's MTTKRP has its output mode at the root (Algorithm 3).
type Set struct {
	Trees []*Tensor
}

// BuildSet constructs a Set from a COO tensor, one Build per root mode. The
// COO is not modified.
func BuildSet(t *tensor.COO) *Set {
	order := t.Order()
	s := &Set{Trees: make([]*Tensor, order)}
	for m := 0; m < order; m++ {
		s.Trees[m] = Build(t, DefaultPerm(order, m))
	}
	return s
}

// Tree returns the CSF tree rooted at mode m.
func (s *Set) Tree(m int) *Tensor { return s.Trees[m] }
