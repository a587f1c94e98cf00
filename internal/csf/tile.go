package csf

import (
	"fmt"

	"aoadmm/internal/tensor"
)

// SplitLeafTiles partitions a tensor into tiles along the LEAF mode of the
// given permutation: tile k holds exactly the non-zeros whose leaf-mode
// index falls in [k·tileRows, (k+1)·tileRows), each compiled into its own
// CSF tree under perm.
//
// This is SPLATT-style cache tiling for MTTKRP: within one tile, every
// leaf-factor access lands in a tileRows-row window, so a tile size chosen
// to fit the cache keeps the most-frequently-hit factor resident while the
// tile is processed. Root-mode output rows may be touched by several tiles;
// the MTTKRP kernel accumulates across tiles (see mttkrp.ComputeTiled).
func SplitLeafTiles(t *tensor.COO, perm []int, tileRows int) []*Tensor {
	if tileRows <= 0 {
		panic(fmt.Sprintf("csf: tileRows must be positive, got %d", tileRows))
	}
	order := t.Order()
	if len(perm) != order {
		panic(fmt.Sprintf("csf: perm length %d != order %d", len(perm), order))
	}
	leafMode := perm[order-1]
	nTiles := (t.Dims[leafMode] + tileRows - 1) / tileRows
	if nTiles <= 1 {
		return []*Tensor{Build(t, perm)}
	}

	// Bucket non-zeros by tile.
	buckets := make([]*tensor.COO, nTiles)
	for k := range buckets {
		buckets[k] = tensor.NewCOO(t.Dims, 0)
	}
	coord := make([]int, order)
	for p := 0; p < t.NNZ(); p++ {
		for m := range coord {
			coord[m] = int(t.Inds[m][p])
		}
		k := coord[leafMode] / tileRows
		buckets[k].Append(coord, t.Vals[p])
	}

	tiles := make([]*Tensor, 0, nTiles)
	for _, b := range buckets {
		if b.NNZ() == 0 {
			continue
		}
		tiles = append(tiles, Build(b, perm))
	}
	return tiles
}
