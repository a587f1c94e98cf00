package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD returns a random symmetric positive definite n x n matrix.
func randSPD(n int, rng *rand.Rand) *Matrix {
	a := Random(n+3, n, rng) // more rows than cols => full column rank a.s.
	g := Gram(a, 1)
	return AddScaledIdentity(g, 0.1)
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 5, 20, 50} {
		m := randSPD(n, rng)
		ch, err := NewCholesky(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(ch.Reconstruct(), m); d > 1e-9 {
			t.Fatalf("n=%d: reconstruction error %v", n, d)
		}
	}
}

func TestCholeskyLowerTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randSPD(6, rng)
	ch, err := NewCholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	l := ch.L()
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("upper triangle non-zero at (%d,%d)", i, j)
			}
		}
		if l.At(i, i) <= 0 {
			t.Fatalf("non-positive diagonal at %d", i)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(m); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
	if _, err := NewCholesky(New(3, 3)); err == nil {
		t.Fatal("zero matrix must be rejected")
	}
	if _, err := NewCholesky(New(2, 3)); err == nil {
		t.Fatal("non-square must be rejected")
	}
}

func TestCholeskyJitterRecovers(t *testing.T) {
	// Singular PSD matrix: rank-1 Gram. Jitter must make it factorizable.
	a := FromRows([][]float64{{1, 2, 3}})
	g := Gram(a, 1) // rank 1, 3x3
	ch, jitter, err := NewCholeskyJitter(g, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if jitter <= 0 {
		t.Fatalf("expected positive jitter, got %v", jitter)
	}
	if ch == nil {
		t.Fatal("nil factorization")
	}
}

func TestCholeskyJitterNoopOnSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randSPD(4, rng)
	_, jitter, err := NewCholeskyJitter(m, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if jitter != 0 {
		t.Fatalf("SPD input must need no jitter, got %v", jitter)
	}
}

func TestSolveVecKnownSystem(t *testing.T) {
	// M = [[4,2],[2,3]], solve M x = b with known answer.
	m := FromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{10, 9} // x = (1.5, 2)
	ch.SolveVec(b)
	if math.Abs(b[0]-1.5) > 1e-12 || math.Abs(b[1]-2) > 1e-12 {
		t.Fatalf("SolveVec = %v", b)
	}
}

func TestSolveVecResidualProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		m := randSPD(n, rng)
		ch, err := NewCholesky(m)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// b = M x, solve, must recover x.
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += m.At(i, j) * x[j]
			}
		}
		ch.SolveVec(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRowsOnRowBlockView(t *testing.T) {
	// Solving a block view must update only that block of the parent.
	rng := rand.New(rand.NewSource(25))
	m := randSPD(4, rng)
	ch, err := NewCholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	full := Random(10, 4, rng)
	orig := full.Clone()
	ch.SolveRows(full.RowBlock(3, 7))
	for i := 0; i < 10; i++ {
		inside := i >= 3 && i < 7
		same := true
		for j := 0; j < 4; j++ {
			if full.At(i, j) != orig.At(i, j) {
				same = false
			}
		}
		if inside && same {
			t.Fatalf("row %d inside block unchanged", i)
		}
		if !inside && !same {
			t.Fatalf("row %d outside block modified", i)
		}
	}
}

// checkSolveRowsBitIdentical solves rows right-hand sides of rank f through
// SolveRows and through Solve4 (plus SolveVec for the remainder), both on a
// row-block view whose Stride exceeds Cols by pad, and requires each row to
// equal the per-row SolveVec result exactly. The padding columns and the
// parent rows around the view must be left untouched.
func checkSolveRowsBitIdentical(t testing.TB, seed int64, f, rows, pad int) {
	rng := rand.New(rand.NewSource(seed))
	ch, err := NewCholesky(randSPD(f, rng))
	if err != nil {
		t.Fatal(err)
	}
	stride := f + pad
	parent := &Matrix{Rows: rows + 2, Cols: f, Stride: stride, Data: make([]float64, (rows+2)*stride)}
	for i := range parent.Data {
		parent.Data[i] = rng.NormFloat64()
	}
	want := make([][]float64, rows)
	for i := range want {
		want[i] = append([]float64(nil), parent.Row(1+i)...)
		ch.SolveVec(want[i])
	}
	check := func(name string, got *Matrix, orig []float64) {
		for i := 0; i < rows; i++ {
			for j, w := range want[i] {
				if g := got.Row(1 + i)[j]; g != w {
					t.Fatalf("%s F=%d rows=%d pad=%d: row %d col %d = %v, SolveVec = %v", name, f, rows, pad, i, j, g, w)
				}
			}
		}
		for idx, v := range got.Data {
			row, col := idx/stride, idx%stride
			if (row == 0 || row > rows || col >= f) && v != orig[idx] {
				t.Fatalf("%s F=%d rows=%d pad=%d: wrote outside the view at row %d col %d", name, f, rows, pad, row, col)
			}
		}
	}
	orig := append([]float64(nil), parent.Data...)

	got := &Matrix{Rows: parent.Rows, Cols: f, Stride: stride, Data: append([]float64(nil), orig...)}
	ch.SolveRows(got.RowBlock(1, 1+rows))
	check("SolveRows", got, orig)

	copy(got.Data, orig)
	view := got.RowBlock(1, 1+rows)
	i := 0
	for ; i+4 <= rows; i += 4 {
		ch.Solve4(view.Row(i), view.Row(i+1), view.Row(i+2), view.Row(i+3))
	}
	for ; i < rows; i++ {
		ch.SolveVec(view.Row(i))
	}
	check("Solve4", got, orig)
}

// TestSolveRowsMatchesPerRowSolve requires SolveRows and Solve4 to equal
// per-row SolveVec exactly, across full four-row groups and leftovers.
func TestSolveRowsMatchesPerRowSolve(t *testing.T) {
	for _, f := range []int{1, 2, 3, 5, 32} {
		for rows := 0; rows <= 9; rows++ {
			checkSolveRowsBitIdentical(t, int64(100*f+rows), f, rows, 3)
		}
	}
}

func TestSolve4LengthPanics(t *testing.T) {
	ch, _ := NewCholesky(FromRows([][]float64{{2, 0}, {0, 2}}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ok := []float64{1, 2}
	ch.Solve4(ok, ok[:1], []float64{1, 2}, []float64{3, 4})
}

func TestSolveVecLengthPanics(t *testing.T) {
	m := FromRows([][]float64{{2}})
	ch, _ := NewCholesky(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ch.SolveVec([]float64{1, 2})
}
