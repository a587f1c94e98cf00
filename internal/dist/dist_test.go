package dist

import (
	"math"
	"testing"

	"aoadmm/internal/core"
	"aoadmm/internal/prox"
	"aoadmm/internal/tensor"
)

// alignedTensor builds a tensor whose mode lengths are divisible by
// nodes*blockSize, so the distributed block grid matches the shared-memory
// one exactly.
func alignedTensor(t *testing.T) *tensor.COO {
	t.Helper()
	// Every mode length is a multiple of nodes*blockSize for nodes in
	// {1, 2, 4} and blockSize 20, so node boundaries always fall on block
	// boundaries and the distributed block grid matches the shared one.
	x, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: []int{80, 160, 240}, NNZ: 5000, Rank: 3, Seed: 140, NoiseStd: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestSingleNodeMatchesSharedMemoryExactly(t *testing.T) {
	x := alignedTensor(t)
	opts := Options{
		Nodes: 1, Rank: 5, Seed: 1, MaxOuterIters: 8, BlockSize: 20,
		Constraints: []prox.Operator{prox.NonNegative{}},
	}
	d, err := Run(x.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Factorize(x.Clone(), core.Options{
		Rank: 5, Seed: 1, MaxOuterIters: 8, BlockSize: 20,
		Constraints: []prox.Operator{prox.NonNegative{}},
		Variant:     core.Blocked, Threads: 1, Tol: 1e-300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.RelErr-s.RelErr) > 1e-12 {
		t.Fatalf("1-node distributed %v != shared-memory %v", d.RelErr, s.RelErr)
	}
	if d.Comm.MTTKRPBytes != 0 || d.Comm.FactorBytes != 0 {
		t.Fatalf("1 node must not communicate: %+v", d.Comm)
	}
}

func TestMultiNodeMatchesSingleNode(t *testing.T) {
	// Node boundaries at multiples of the block size keep the block grids
	// identical, so node count must not change the arithmetic at all.
	x := alignedTensor(t)
	opts := Options{
		Rank: 5, Seed: 1, MaxOuterIters: 6, BlockSize: 20,
		Constraints: []prox.Operator{prox.NonNegative{}},
	}
	opts.Nodes = 1
	one, err := Run(x.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		opts.Nodes = n
		multi, err := Run(x.Clone(), opts)
		if err != nil {
			t.Fatalf("nodes=%d: %v", n, err)
		}
		if math.Abs(multi.RelErr-one.RelErr) > 1e-12 {
			t.Fatalf("nodes=%d: relerr %v != %v", n, multi.RelErr, one.RelErr)
		}
	}
}

func TestADMMPhaseIsCommunicationFree(t *testing.T) {
	// The paper's §IV-B claim: blocked ADMM needs no communication beyond
	// MTTKRP. The simulator tracks ADMM-phase traffic explicitly.
	x := alignedTensor(t)
	res, err := Run(x, Options{
		Nodes: 4, Rank: 5, Seed: 1, MaxOuterIters: 5,
		Constraints: []prox.Operator{prox.NonNegative{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.ADMMBytes != 0 {
		t.Fatalf("blocked ADMM communicated %d bytes", res.Comm.ADMMBytes)
	}
	if res.Comm.MTTKRPBytes == 0 || res.Comm.FactorBytes == 0 {
		t.Fatalf("expected MTTKRP/factor traffic with 4 nodes: %+v", res.Comm)
	}
	// What the baseline would have paid instead.
	base := BaselineADMMCommBytes(4, 3, res.OuterIters, 10)
	if base <= 0 {
		t.Fatalf("baseline comm estimate %d", base)
	}
}

func TestCommGrowsWithNodes(t *testing.T) {
	x := alignedTensor(t)
	var prev int64 = -1
	for _, n := range []int{1, 2, 4} {
		res, err := Run(x.Clone(), Options{
			Nodes: n, Rank: 4, Seed: 1, MaxOuterIters: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Comm.Total() <= prev {
			t.Fatalf("comm did not grow: nodes=%d total=%d prev=%d", n, res.Comm.Total(), prev)
		}
		prev = res.Comm.Total()
	}
}

func TestPartition(t *testing.T) {
	p := Partition(10, 3)
	if p[0] != [2]int{0, 4} || p[1] != [2]int{4, 7} || p[2] != [2]int{7, 10} {
		t.Fatalf("partition = %v", p)
	}
	p = Partition(2, 4)
	total := 0
	for _, span := range p {
		if span[1] < span[0] {
			t.Fatalf("negative span %v", span)
		}
		total += span[1] - span[0]
	}
	if total != 2 {
		t.Fatalf("partition lost rows: %v", p)
	}
}

func TestSplitByMode0(t *testing.T) {
	x := tensor.NewCOO([]int{4, 3}, 4)
	x.Append([]int{0, 0}, 1)
	x.Append([]int{1, 1}, 2)
	x.Append([]int{2, 2}, 3)
	x.Append([]int{3, 0}, 4)
	parts := SplitByMode0(x, Partition(4, 2))
	if parts[0].NNZ() != 2 || parts[1].NNZ() != 2 {
		t.Fatalf("split sizes %d/%d", parts[0].NNZ(), parts[1].NNZ())
	}
	for p := 0; p < parts[0].NNZ(); p++ {
		if parts[0].Inds[0][p] >= 2 {
			t.Fatal("node 0 received a foreign slice")
		}
	}
}

func TestOptionValidation(t *testing.T) {
	x := alignedTensor(t)
	if _, err := Run(x, Options{Nodes: 0, Rank: 3}); err == nil {
		t.Fatal("Nodes=0 accepted")
	}
	if _, err := Run(x, Options{Nodes: 2, Rank: 0}); err == nil {
		t.Fatal("Rank=0 accepted")
	}
	if _, err := Run(tensor.NewCOO([]int{2, 2}, 0), Options{Nodes: 1, Rank: 2}); err == nil {
		t.Fatal("empty tensor accepted")
	}
	if _, err := Run(x, Options{Nodes: 1, Rank: 2, Constraints: make([]prox.Operator, 2)}); err == nil {
		t.Fatal("wrong constraint count accepted")
	}
	vec := tensor.NewCOO([]int{5}, 2)
	vec.Append([]int{1}, 1)
	vec.Append([]int{3}, 2)
	if _, err := Run(vec, Options{Nodes: 2, Rank: 2, MaxOuterIters: 1}); err == nil {
		t.Fatal("order-1 tensor accepted")
	}
	outside := tensor.NewCOO([]int{4, 4, 4}, 2)
	outside.Append([]int{0, 1, 2}, 1)
	outside.Append([]int{3, 0, 0}, 2)
	outside.Inds[0][1] = 4 // past Dims[0], as a hand-built or decoded tensor may be
	if _, err := Run(outside, Options{Nodes: 2, Rank: 2, MaxOuterIters: 1}); err == nil {
		t.Fatal("coordinate outside Dims accepted")
	}
}

func TestExplicitMode0RangesMatchEvenPartition(t *testing.T) {
	// Passing the even partition explicitly must change nothing — numbers
	// or priced bytes — relative to the default; a bogus partition must be
	// rejected.
	x := alignedTensor(t)
	opts := Options{
		Nodes: 4, Rank: 4, Seed: 1, MaxOuterIters: 4, BlockSize: 20,
	}
	def, err := Run(x.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Mode0Ranges = Partition(x.Dims[0], 4)
	exp, err := Run(x.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if exp.RelErr != def.RelErr || exp.Comm != def.Comm {
		t.Fatalf("explicit ranges diverged: relerr %v vs %v, comm %+v vs %+v",
			exp.RelErr, def.RelErr, exp.Comm, def.Comm)
	}
	opts.Mode0Ranges = [][2]int{{0, 10}, {10, 20}, {20, 30}, {30, 40}} // short of Dims[0]
	if _, err := Run(x.Clone(), opts); err == nil {
		t.Fatal("non-partitioning Mode0Ranges accepted")
	}
}

func TestTolStopsEarly(t *testing.T) {
	x := alignedTensor(t)
	res, err := Run(x, Options{
		Nodes: 2, Rank: 5, Seed: 1, MaxOuterIters: 40, BlockSize: 20, Tol: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.OuterIters >= 40 {
		t.Fatalf("loose Tol did not stop early: converged=%v iters=%d", res.Converged, res.OuterIters)
	}
}

func TestBaselineADMMCommBytes(t *testing.T) {
	if BaselineADMMCommBytes(1, 3, 10, 10) != 0 {
		t.Fatal("single node must be zero")
	}
	b2 := BaselineADMMCommBytes(2, 3, 10, 10)
	b8 := BaselineADMMCommBytes(8, 3, 10, 10)
	if b2 <= 0 || b8 <= b2 {
		t.Fatalf("comm estimates: n=2 %d, n=8 %d", b2, b8)
	}
}

func TestMoreNodesThanRows(t *testing.T) {
	x := tensor.NewCOO([]int{3, 50, 50}, 3)
	x.Append([]int{0, 1, 2}, 1)
	x.Append([]int{1, 10, 20}, 2)
	x.Append([]int{2, 30, 40}, 3)
	res, err := Run(x, Options{Nodes: 8, Rank: 2, MaxOuterIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIters != 2 {
		t.Fatalf("iterations %d", res.OuterIters)
	}
}
