package dense

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when a pivot is not
// positive. Callers either fail or retry with diagonal jitter.
var ErrNotPositiveDefinite = errors.New("dense: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix M = L·Lᵀ and solves linear systems against it. ADMM forms
// one Cholesky of (G + ρI) per mode per outer iteration and then performs one
// forward/backward solve per matrix row per inner iteration, so Solve-side
// routines are the hot path.
//
// A single-row substitution is one serial chain of dependent subtractions,
// so it runs at floating-point add latency. Solve4 (and SolveRows, which is
// built on it) substitutes four rows together: each element of L is loaded
// once and feeds four independent accumulators. Every row still performs
// exactly SolveVec's operations in SolveVec's order — no reassociation and no
// reciprocal of the diagonal — so all three solves are bit-identical.
type Cholesky struct {
	n  int
	l  *Matrix // lower triangle, upper part zero
	lt *Matrix // Lᵀ (upper triangle), so backward substitution reads rows
}

// NewCholesky factors the symmetric positive definite matrix m. Only the
// lower triangle of m is read.
func NewCholesky(m *Matrix) (*Cholesky, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("dense: Cholesky of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		li := l.Row(i)
		for j := 0; j <= i; j++ {
			lj := l.Row(j)
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrNotPositiveDefinite
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return &Cholesky{n: n, l: l, lt: l.Transpose()}, nil
}

// NewCholeskyJitter factors m, retrying with exponentially growing diagonal
// jitter if m is numerically indefinite (which can happen for Gram matrices
// of rank-deficient factors). It returns the factorization and the jitter
// that was finally added.
func NewCholeskyJitter(m *Matrix, baseJitter float64, maxTries int) (*Cholesky, float64, error) {
	if baseJitter <= 0 {
		baseJitter = 1e-12 * (1 + Trace(m)/float64(max(m.Rows, 1)))
	}
	ch, err := NewCholesky(m)
	if err == nil {
		return ch, 0, nil
	}
	jitter := baseJitter
	for try := 0; try < maxTries; try++ {
		ch, err = NewCholesky(AddScaledIdentity(m, jitter))
		if err == nil {
			return ch, jitter, nil
		}
		jitter *= 10
	}
	return nil, 0, fmt.Errorf("dense: Cholesky failed after %d jitter retries: %w", maxTries, err)
}

// N returns the dimension of the factored matrix.
func (c *Cholesky) N() int { return c.n }

// L returns the lower-triangular factor (aliased, do not mutate).
func (c *Cholesky) L() *Matrix { return c.l }

// SolveVec solves (L·Lᵀ)·x = b in place: b is overwritten with x.
// len(b) must equal N().
func (c *Cholesky) SolveVec(b []float64) {
	n := c.n
	if len(b) != n {
		panic(fmt.Sprintf("dense: SolveVec length %d != %d", len(b), n))
	}
	// Forward substitution L·y = b (rows of L).
	for i := 0; i < n; i++ {
		li := c.l.Row(i)
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= li[k] * b[k]
		}
		b[i] = sum / li[i]
	}
	// Backward substitution Lᵀ·x = y (rows of Lᵀ, contiguous access).
	for i := n - 1; i >= 0; i-- {
		lti := c.lt.Row(i)
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= lti[k] * b[k]
		}
		b[i] = sum / lti[i]
	}
}

// Solve4 solves (L·Lᵀ)·x = b for four right-hand sides in place, with
// results bit-identical to four SolveVec calls. Each slice must have length
// N(); the four must not overlap.
func (c *Cholesky) Solve4(b0, b1, b2, b3 []float64) {
	n := c.n
	if len(b0) != n || len(b1) != n || len(b2) != n || len(b3) != n {
		panic(fmt.Sprintf("dense: Solve4 length != %d", n))
	}
	// Forward substitution L·y = b.
	for i := 0; i < n; i++ {
		li := c.l.Row(i)[:i+1]
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		for k, l := range li[:i] {
			s0 -= l * b0[k]
			s1 -= l * b1[k]
			s2 -= l * b2[k]
			s3 -= l * b3[k]
		}
		d := li[i]
		b0[i], b1[i], b2[i], b3[i] = s0/d, s1/d, s2/d, s3/d
	}
	// Backward substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		lti := c.lt.Row(i)[:n]
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		for k := i + 1; k < n; k++ {
			l := lti[k]
			s0 -= l * b0[k]
			s1 -= l * b1[k]
			s2 -= l * b2[k]
			s3 -= l * b3[k]
		}
		d := lti[i]
		b0[i], b1[i], b2[i], b3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

// SolveRows solves (L·Lᵀ)·xᵀ = bᵀ for every row of b in place; that is, each
// row b(i,:) is replaced by the solution of (L·Lᵀ)x = b(i,:)ᵀ. This is the
// multi-right-hand-side solve at the heart of the ADMM primal update
// (Algorithm 1, line 6), expressed over rows of the tall-and-skinny matrix so
// that it is trivially row-separable and therefore blockable. Rows go through
// Solve4 in groups of four and the remainder through SolveVec, so the result
// is bit-identical to solving each row with SolveVec.
func (c *Cholesky) SolveRows(b *Matrix) {
	if b.Cols != c.n {
		panic(fmt.Sprintf("dense: SolveRows width %d != %d", b.Cols, c.n))
	}
	i := 0
	for ; i+4 <= b.Rows; i += 4 {
		c.Solve4(b.Row(i), b.Row(i+1), b.Row(i+2), b.Row(i+3))
	}
	for ; i < b.Rows; i++ {
		c.SolveVec(b.Row(i))
	}
}

// Reconstruct returns L·Lᵀ (for tests).
func (c *Cholesky) Reconstruct() *Matrix {
	return MatMul(c.l, c.l.Transpose())
}
