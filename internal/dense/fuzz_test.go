package dense

import "testing"

// FuzzSolveRows checks that the four-row interleaved solve behind SolveRows
// stays bit-identical to per-row SolveVec for any rank, row count and stride
// padding, including the leftover rows that fall back to SolveVec.
func FuzzSolveRows(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(9), uint8(3))
	f.Add(int64(2), uint8(1), uint8(0), uint8(0))
	f.Add(int64(3), uint8(5), uint8(17), uint8(1))
	f.Add(int64(4), uint8(64), uint8(4), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, rank, rows, pad uint8) {
		checkSolveRowsBitIdentical(t, seed, 1+int(rank)%64, int(rows)%18, int(pad)%8)
	})
}
