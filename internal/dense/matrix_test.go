package dense

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero storage")
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row aliasing broken: %v", row)
	}
	row[0] = -1
	if m.At(1, 0) != -1 {
		t.Fatal("Row must alias storage")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
	empty := FromRows(nil)
	if empty.Rows != 0 {
		t.Fatal("empty FromRows")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowBlockViewAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	blk := m.RowBlock(1, 3)
	if blk.Rows != 2 || blk.Cols != 2 {
		t.Fatalf("block shape %dx%d", blk.Rows, blk.Cols)
	}
	if blk.At(0, 0) != 3 || blk.At(1, 1) != 6 {
		t.Fatalf("block content wrong: %v", blk)
	}
	blk.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Fatal("RowBlock must alias parent storage")
	}
}

func TestRowBlockOfBlock(t *testing.T) {
	m := Random(10, 3, rand.New(rand.NewSource(1)))
	blk := m.RowBlock(2, 9).RowBlock(1, 4) // rows 3..6 of m
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if blk.At(i, j) != m.At(3+i, j) {
				t.Fatalf("nested block mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestRowBlockBoundsPanics(t *testing.T) {
	m := New(3, 2)
	for _, c := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for [%d,%d)", c[0], c[1])
				}
			}()
			m.RowBlock(c[0], c[1])
		}()
	}
}

func TestRowBlockEmptyOfStridedMatrix(t *testing.T) {
	// A 3x2 matrix with Stride 4: its storage ends 2 elements after the last
	// row's start, so an empty view must not slice from row begin*Stride.
	m := &Matrix{Rows: 3, Cols: 2, Stride: 4, Data: make([]float64, 2*4+2)}
	for b := 0; b <= m.Rows; b++ {
		if v := m.RowBlock(b, b); v.Rows != 0 || v.Cols != 2 {
			t.Fatalf("RowBlock(%d,%d) = %dx%d", b, b, v.Rows, v.Cols)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 100)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
	// Clone of a strided view must compact.
	v := m.RowBlock(1, 2)
	cv := v.Clone()
	if cv.Stride != cv.Cols || cv.At(0, 1) != 4 {
		t.Fatalf("strided clone wrong: %+v", cv)
	}
}

func TestCopyFrom(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := New(2, 2)
	b.CopyFrom(a)
	if !Equal(a, b, 0) {
		t.Fatal("CopyFrom failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape mismatch panic")
		}
	}()
	New(1, 2).CopyFrom(a)
}

func TestZeroFill(t *testing.T) {
	m := Random(4, 3, rand.New(rand.NewSource(2)))
	m.Fill(2.5)
	for _, v := range m.Data {
		if v != 2.5 {
			t.Fatal("Fill failed")
		}
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(3)[%d][%d] = %v", i, j, e.At(i, j))
			}
		}
	}
}

func TestRandomRangeAndDeterminism(t *testing.T) {
	a := Random(5, 4, rand.New(rand.NewSource(7)))
	b := Random(5, 4, rand.New(rand.NewSource(7)))
	if !Equal(a, b, 0) {
		t.Fatal("Random must be deterministic for equal seeds")
	}
	for _, v := range a.Data {
		if v < 0 || v >= 1 {
			t.Fatalf("value %v out of [0,1)", v)
		}
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose mismatch")
			}
		}
	}
	if tt := tr.Transpose(); !Equal(tt, m, 0) {
		t.Fatal("double transpose must round-trip")
	}
}

func TestEqualAndMaxAbsDiff(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{1, 2.05}, {3, 4}})
	if Equal(a, b, 0.01) {
		t.Fatal("should differ at tol 0.01")
	}
	if !Equal(a, b, 0.1) {
		t.Fatal("should match at tol 0.1")
	}
	if d := MaxAbsDiff(a, b); math.Abs(d-0.05) > 1e-12 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	if Equal(a, New(2, 3), 1e9) {
		t.Fatal("shape mismatch must report unequal")
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	for _, m := range []*Matrix{New(0, 0), New(1, 1), Random(20, 20, rand.New(rand.NewSource(3)))} {
		if s := m.String(); s == "" {
			t.Fatal("empty String()")
		}
	}
}
