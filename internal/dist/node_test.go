package dist

import (
	"math/rand"
	"testing"

	"aoadmm/internal/dense"
)

// reduceAll compacts and reduces the partials into a fresh K in node
// order, node i owning owned[i].
func reduceAll(t *testing.T, partials []*dense.Matrix, owned [][2]int) (*dense.Matrix, CommStats) {
	t.Helper()
	k := dense.New(partials[0].Rows, partials[0].Cols)
	var p Pricer
	for i, part := range partials {
		rows, vals := NonZeroRows(part)
		if err := ReduceRows(k, rows, vals, owned[i], &p); err != nil {
			t.Fatal(err)
		}
	}
	return k, p.Stats()
}

func TestReduceRowsSumsInNodeOrder(t *testing.T) {
	// 1 + 1e16 rounds back to 1e16, so the order of the three terms
	// decides the result.
	terms := []float64{1, 1e16, -1e16}
	var want, reversed float64
	for i := range terms {
		want += terms[i]
		reversed += terms[len(terms)-1-i]
	}
	if want == reversed {
		t.Fatalf("terms do not expose the summation order: %v", want)
	}
	partials := make([]*dense.Matrix, len(terms))
	for i, v := range terms {
		partials[i] = dense.FromRows([][]float64{{v}})
	}
	k, _ := reduceAll(t, partials, [][2]int{{0, 1}, {1, 1}, {1, 1}})
	if got := k.At(0, 0); got != want {
		t.Fatalf("K = %v, want the node-order sum %v", got, want)
	}
}

func TestReduceRowsPricesNonOwnedNonZeroRows(t *testing.T) {
	// Node 0 owns rows [0, 2), node 1 owns [2, 4). Each node has one owned
	// and one foreign non-zero row, plus all-zero rows on both sides.
	partials := []*dense.Matrix{
		dense.FromRows([][]float64{{1, 0}, {0, 0}, {0, 2}, {0, 0}}),
		dense.FromRows([][]float64{{0, 0}, {3, 0}, {0, 0}, {4, 5}}),
	}
	rows, vals := NonZeroRows(partials[1])
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 3 || len(vals) != 4 {
		t.Fatalf("compacted rows %v vals %v, want rows [1 3]", rows, vals)
	}
	k, comm := reduceAll(t, partials, [][2]int{{0, 2}, {2, 4}})
	if want := (CommStats{MTTKRPBytes: 2 * 2 * 8, Messages: 2}); comm != want {
		t.Fatalf("priced %+v, want %+v (one foreign row per node)", comm, want)
	}
	want := dense.FromRows([][]float64{{1, 0}, {3, 0}, {0, 2}, {4, 5}})
	for i := range want.Data {
		if k.Data[i] != want.Data[i] {
			t.Fatalf("K = %v, want %v", k.Data, want.Data)
		}
	}
}

func TestReduceRowsRejectsRowOutsideDim(t *testing.T) {
	k := dense.New(3, 2)
	var p Pricer
	for _, row := range []int32{3, -1} {
		if err := ReduceRows(k, []int32{row}, []float64{1, 2}, [2]int{0, 3}, &p); err == nil {
			t.Fatalf("row %d outside dim 3 accepted", row)
		}
	}
}

func TestCompactedReduceEqualsDenseSum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rows, rank, nodes = 30, 3, 4
	partials := make([]*dense.Matrix, nodes)
	sum := dense.New(rows, rank)
	for i := range partials {
		partials[i] = dense.Random(rows, rank, rng)
		for r := 0; r < rows; r++ {
			if rng.Intn(3) == 0 {
				for j := range partials[i].Row(r) {
					partials[i].Row(r)[j] = 0
				}
			}
		}
		for j, v := range partials[i].Data {
			sum.Data[j] += v
		}
	}
	k, _ := reduceAll(t, partials, Partition(rows, nodes))
	for j := range sum.Data {
		if k.Data[j] != sum.Data[j] {
			t.Fatalf("entry %d: compacted reduce %v, dense sum %v", j, k.Data[j], sum.Data[j])
		}
	}
}
