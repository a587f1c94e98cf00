package ooc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"aoadmm/internal/tensor"
)

// ShardedTensor is an opened ".aoshard" directory: the verified header plus
// the ability to load any shard individually. It holds no shard data itself —
// shards are loaded (and released) one at a time by the streaming engine.
type ShardedTensor struct {
	dir string
	h   *Header
}

// IsShardDir reports whether path looks like a shard directory (a directory
// containing a header file). It does not validate the header; Open does.
func IsShardDir(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, HeaderFileName))
	return err == nil
}

// Open reads and verifies the header of a shard directory and stats every
// shard file so truncated or missing shards fail here rather than mid-solve.
// Shard payload CRCs are verified lazily, at LoadShard time.
func Open(dir string) (*ShardedTensor, error) {
	raw, err := os.ReadFile(filepath.Join(dir, HeaderFileName))
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	h, err := DecodeHeader(raw)
	if err != nil {
		return nil, fmt.Errorf("ooc: %s: %w", dir, err)
	}
	for i, s := range h.Shards {
		fi, err := os.Stat(filepath.Join(dir, ShardFileName(i)))
		if err != nil {
			return nil, fmt.Errorf("ooc: %s: %w", dir, err)
		}
		if want := shardPayloadBytes(h.Order(), s.NNZ); fi.Size() != want {
			return nil, fmt.Errorf("ooc: %s: shard %d is %d bytes, want %d (torn write?)",
				dir, i, fi.Size(), want)
		}
	}
	return &ShardedTensor{dir: dir, h: h}, nil
}

// Dir returns the shard directory path.
func (s *ShardedTensor) Dir() string { return s.dir }

// Order returns the number of modes.
func (s *ShardedTensor) Order() int { return s.h.Order() }

// Dims returns the global mode lengths (a copy).
func (s *ShardedTensor) Dims() []int { return append([]int(nil), s.h.Dims...) }

// NNZ returns the total non-zero count across shards.
func (s *ShardedTensor) NNZ() int64 { return s.h.NNZ }

// NormSq returns the squared Frobenius norm recorded at conversion time.
func (s *ShardedTensor) NormSq() float64 { return s.h.NormSq }

// NumShards returns the shard count.
func (s *ShardedTensor) NumShards() int { return len(s.h.Shards) }

// Shard returns shard i's metadata.
func (s *ShardedTensor) Shard(i int) ShardInfo { return s.h.Shards[i] }

// String summarizes the sharded tensor.
func (s *ShardedTensor) String() string {
	return fmt.Sprintf("Sharded{dims=%v, nnz=%d, shards=%d}", s.h.Dims, s.h.NNZ, len(s.h.Shards))
}

// LoadShard reads, CRC-verifies, and decodes shard i into a COO tensor
// carrying the full global dims (indices are global, sorted lexicographically
// with mode 0 most significant). The returned tensor is owned by the caller;
// building CSF or ALTO from it leaves it unchanged.
func (s *ShardedTensor) LoadShard(i int) (*tensor.COO, error) {
	if i < 0 || i >= len(s.h.Shards) {
		return nil, fmt.Errorf("ooc: shard %d out of range [0, %d)", i, len(s.h.Shards))
	}
	info := s.h.Shards[i]
	raw, err := os.ReadFile(filepath.Join(s.dir, ShardFileName(i)))
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	if want := shardPayloadBytes(s.h.Order(), info.NNZ); int64(len(raw)) != want {
		return nil, fmt.Errorf("ooc: shard %d is %d bytes, want %d (torn write?)", i, len(raw), want)
	}
	if sum := crc32.ChecksumIEEE(raw); sum != info.CRC {
		return nil, fmt.Errorf("ooc: shard %d CRC mismatch (stored %08x, computed %08x)", i, info.CRC, sum)
	}
	return decodeShard(raw, s.h, info, i)
}

// decodeShard parses a verified payload into a COO, validating every index
// against the header's dims and the shard's mode-0 range.
func decodeShard(raw []byte, h *Header, info ShardInfo, shard int) (*tensor.COO, error) {
	order := h.Order()
	nnz := int(info.NNZ)
	t := &tensor.COO{
		Dims: append([]int(nil), h.Dims...),
		Inds: make([][]int32, order),
		Vals: make([]float64, nnz),
	}
	off := 0
	for m := 0; m < order; m++ {
		lo, hi := int32(0), int32(h.Dims[m])
		if m == 0 {
			lo, hi = int32(info.Lo), int32(info.Hi)
		}
		col := make([]int32, nnz)
		for p := range col {
			v := int32(binary.LittleEndian.Uint32(raw[off:]))
			if v < lo || v >= hi {
				return nil, fmt.Errorf("ooc: shard %d non-zero %d mode %d index %d outside [%d, %d)",
					shard, p, m, v, lo, hi)
			}
			col[p] = v
			off += 4
		}
		t.Inds[m] = col
	}
	for p := range t.Vals {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ooc: shard %d non-zero %d has non-finite value %v", shard, p, v)
		}
		t.Vals[p] = v
		off += 8
	}
	return t, nil
}

// ReadAll loads every shard and concatenates them into one in-memory COO —
// a convenience for tools and tests working on tensors known to fit in RAM.
func (s *ShardedTensor) ReadAll() (*tensor.COO, error) {
	out := tensor.NewCOO(s.h.Dims, int(s.h.NNZ))
	for i := range s.h.Shards {
		part, err := s.LoadShard(i)
		if err != nil {
			return nil, err
		}
		for m := range out.Inds {
			out.Inds[m] = append(out.Inds[m], part.Inds[m]...)
		}
		out.Vals = append(out.Vals, part.Vals...)
	}
	return out, nil
}
