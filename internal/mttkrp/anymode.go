package mttkrp

import (
	"fmt"

	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/par"
)

// ComputeMode evaluates K = X(mode)·(⊙_{n≠mode} Aₙ) for ANY mode using a
// single CSF tree, regardless of which mode the tree is rooted at — the
// memory-efficient operating point of SPLATT (one tree instead of one per
// mode, at the cost of synchronization on non-root output modes).
//
// For the root mode this dispatches to the owner-computes Compute. For a
// mode at depth d > 0 the traversal carries a "prefix" product of the
// factor rows above depth d and, at each depth-d node, multiplies it with
// the "below" aggregate of the subtree (the same bottom-up accumulation the
// root kernel uses) into the output row of that node's index. Because
// several slices can update the same output row, each thread accumulates
// into a private output matrix and the partials are reduced afterwards
// (privatization; deterministic for a fixed thread count).
func ComputeMode(t *csf.Tensor, mode int, factors []*dense.Matrix, out *dense.Matrix, leaf LeafFactor, opts Options) {
	depth := -1
	for d, m := range t.Perm {
		if m == mode {
			depth = d
			break
		}
	}
	if depth < 0 {
		panic(fmt.Sprintf("mttkrp: mode %d not in tree permutation %v", mode, t.Perm))
	}
	if depth == 0 {
		Compute(t, factors, out, leaf, opts)
		return
	}
	order := t.Order()
	rank := out.Cols
	if out.Rows != t.Dims[mode] {
		panic(fmt.Sprintf("mttkrp: out has %d rows, mode %d has %d", out.Rows, mode, t.Dims[mode]))
	}
	if leaf == nil && depth != order-1 {
		leaf = DenseLeaf{M: factors[t.Perm[order-1]]}
	}

	threads := par.Threads(opts.Threads)
	out.Zero()
	nSlices := t.NSlices()
	chunk := opts.chunk(nSlices, threads)

	// Private per-thread outputs, reduced in thread order below. Slices are
	// dealt to threads cyclically, not claimed dynamically, so each private
	// sum — and hence the result — is reproducible for a thread count.
	privs := make([]*dense.Matrix, threads)
	for i := range privs {
		privs[i] = dense.New(out.Rows, rank)
	}

	par.CyclicT(opts.Telem, nSlices, chunk, threads, func(tid, begin, end int) {
		priv := privs[tid]
		// Prefix buffers: prefixes[d] holds the product of factor rows for
		// depths < d, for d in 1..depth. Below-buffers cover depths
		// depth..order-2.
		prefixes := make([][]float64, depth+1)
		for d := 1; d <= depth; d++ {
			prefixes[d] = make([]float64, rank)
		}
		belows := make([][]float64, order-1)
		for d := depth; d < order-1; d++ {
			belows[d] = make([]float64, rank)
		}

		// below accumulates the subtree aggregate under a depth >= depth
		// node, excluding the output mode's factor: leaves contribute
		// val·F_leaf(row,:), internal nodes multiply by their factor row.
		var below func(d, n int, dst []float64)
		below = func(d, n int, dst []float64) {
			if d == order-1 {
				if depth == order-1 {
					// The output mode IS the leaf mode; callers never
					// descend this far in that case.
					panic("mttkrp: below reached leaf for leaf-mode output")
				}
				leaf.AccumRow(dst, int(t.FIDs[d][n]), t.Vals[n])
				return
			}
			buf := belows[d]
			for i := range buf {
				buf[i] = 0
			}
			b, e := t.Children(d, n)
			for ch := b; ch < e; ch++ {
				below(d+1, ch, buf)
			}
			frow := factors[t.Perm[d]].Row(int(t.FIDs[d][n]))
			for i := range dst {
				dst[i] += buf[i] * frow[i]
			}
		}

		// walk carries the prefix product of factor rows above depth d.
		var walk func(d, n int, prefix []float64)
		walk = func(d, n int, prefix []float64) {
			if d == depth {
				outRow := priv.Row(int(t.FIDs[d][n]))
				if d == order-1 {
					// Leaf-mode output: below the node is just its value.
					v := t.Vals[n]
					for i := range outRow {
						outRow[i] += v * prefix[i]
					}
					return
				}
				buf := belows[d]
				for i := range buf {
					buf[i] = 0
				}
				b, e := t.Children(d, n)
				for ch := b; ch < e; ch++ {
					below(d+1, ch, buf)
				}
				for i := range outRow {
					outRow[i] += buf[i] * prefix[i]
				}
				return
			}
			// Extend the prefix with this node's factor row and recurse.
			// Siblings reuse the buffer sequentially: a child's subtree is
			// fully processed before the next sibling overwrites it.
			ext := prefixes[d+1]
			frow := factors[t.Perm[d]].Row(int(t.FIDs[d][n]))
			for i := range ext {
				ext[i] = prefix[i] * frow[i]
			}
			b, e := t.Children(d, n)
			for ch := b; ch < e; ch++ {
				walk(d+1, ch, ext)
			}
		}

		ones := make([]float64, rank)
		for i := range ones {
			ones[i] = 1
		}
		for s := begin; s < end; s++ {
			walk(0, s, ones)
		}
	})

	// Deterministic reduction in thread order.
	for _, priv := range privs {
		for i := 0; i < out.Rows; i++ {
			dst := out.Row(i)
			src := priv.Row(i)
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
}
