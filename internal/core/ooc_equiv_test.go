package core

import (
	"math"
	"path/filepath"
	"testing"

	"aoadmm/internal/ooc"
	"aoadmm/internal/prox"
	"aoadmm/internal/tensor"
)

// equivDatasets are two differently-shaped synthetic tensors (one skewed,
// power-law-ish; one uniform 4-way) over which out-of-core runs must
// reproduce in-memory results.
var equivDatasets = []struct {
	name string
	gen  tensor.GenOptions
}{
	{"skewed3", tensor.GenOptions{Dims: []int{70, 40, 25}, NNZ: 6000, Skew: []float64{1.4, 0, 0}, Seed: 21}},
	{"uniform4", tensor.GenOptions{Dims: []int{30, 24, 18, 12}, NNZ: 5000, Seed: 22}},
}

// shardedFor converts the tensor under a budget strictly below its in-memory
// estimate, so the run exercises the same configuration the admission layer
// would pick for a too-big tensor.
func shardedFor(t *testing.T, coo *tensor.COO) (*ooc.ShardedTensor, int64) {
	t.Helper()
	budget := ooc.InMemoryBytes(coo.Order(), int64(coo.NNZ())) / 3
	if !ooc.Decide(coo.Order(), int64(coo.NNZ()), budget).OutOfCore {
		t.Fatalf("budget %d does not force out-of-core", budget)
	}
	st, err := ooc.ConvertCOO(coo, filepath.Join(t.TempDir(), "shards"), ooc.ConvertOptions{MemBudgetBytes: budget})
	if err != nil {
		t.Fatalf("ConvertCOO: %v", err)
	}
	if st.NumShards() < 2 {
		t.Fatalf("conversion yielded %d shard(s); test needs real streaming", st.NumShards())
	}
	return st, budget
}

// TestFactorizeOOCMatchesInMemory runs AO-ADMM in-memory and out-of-core
// from the same seed with single-threaded kernels and a fixed iteration
// count, and requires the final relative errors to agree to 1e-9.
func TestFactorizeOOCMatchesInMemory(t *testing.T) {
	for _, ds := range equivDatasets {
		t.Run(ds.name, func(t *testing.T) {
			coo, err := tensor.Uniform(ds.gen)
			if err != nil {
				t.Fatal(err)
			}
			st, budget := shardedFor(t, coo)

			opts := Options{
				Rank:          4,
				Constraints:   []prox.Operator{prox.NonNegative{}},
				MaxOuterIters: 8,
				Tol:           1e-15, // run all iterations on both paths
				Threads:       1,
				Seed:          5,
			}
			mem, err := Factorize(coo, opts)
			if err != nil {
				t.Fatalf("Factorize: %v", err)
			}
			opts.MemBudgetBytes = budget
			oocRes, err := FactorizeOOC(st, opts)
			if err != nil {
				t.Fatalf("FactorizeOOC: %v", err)
			}

			if mem.OuterIters != oocRes.OuterIters {
				t.Fatalf("iteration counts diverged: %d vs %d", mem.OuterIters, oocRes.OuterIters)
			}
			if d := math.Abs(mem.RelErr - oocRes.RelErr); d > 1e-9 {
				t.Fatalf("relerr diverged by %g (in-memory %v, ooc %v)", d, mem.RelErr, oocRes.RelErr)
			}

			r := oocRes.OOC
			if r == nil {
				t.Fatal("FactorizeOOC did not attach an OOC report")
			}
			if r.ShardLoads == 0 || r.ShardBytesRead == 0 {
				t.Fatalf("empty shard I/O counters: %+v", r)
			}
			if r.PeakTrackedBytes <= 0 || r.PeakTrackedBytes > budget {
				t.Fatalf("tracked peak %d outside (0, budget %d]", r.PeakTrackedBytes, budget)
			}
			if r.BudgetBytes != budget {
				t.Fatalf("report budget %d, want %d", r.BudgetBytes, budget)
			}
			if r.EstimateBytes <= budget {
				t.Fatalf("estimate %d should exceed budget %d", r.EstimateBytes, budget)
			}
			if mem.OOC != nil {
				t.Fatal("in-memory run must not carry an OOC report")
			}
			// The report must surface in the metrics schema too.
			if rep := oocRes.Metrics.Report(); rep.OOC == nil || rep.OOC.ShardLoads != r.ShardLoads {
				t.Fatalf("metrics report OOC section missing or inconsistent: %+v", rep.OOC)
			}
		})
	}
}

// TestFactorizeALSOOCMatchesInMemory is the same equivalence check for the
// unconstrained ALS baseline.
func TestFactorizeALSOOCMatchesInMemory(t *testing.T) {
	for _, ds := range equivDatasets {
		t.Run(ds.name, func(t *testing.T) {
			coo, err := tensor.Uniform(ds.gen)
			if err != nil {
				t.Fatal(err)
			}
			st, budget := shardedFor(t, coo)

			opts := ALSOptions{
				Rank:          4,
				MaxOuterIters: 8,
				Tol:           1e-15,
				Threads:       1,
				Seed:          5,
			}
			mem, err := FactorizeALS(coo, opts)
			if err != nil {
				t.Fatalf("FactorizeALS: %v", err)
			}
			opts.MemBudgetBytes = budget
			oocRes, err := FactorizeALSOOC(st, opts)
			if err != nil {
				t.Fatalf("FactorizeALSOOC: %v", err)
			}
			if mem.OuterIters != oocRes.OuterIters {
				t.Fatalf("iteration counts diverged: %d vs %d", mem.OuterIters, oocRes.OuterIters)
			}
			if d := math.Abs(mem.RelErr - oocRes.RelErr); d > 1e-9 {
				t.Fatalf("relerr diverged by %g (in-memory %v, ooc %v)", d, mem.RelErr, oocRes.RelErr)
			}
			if oocRes.OOC == nil || oocRes.OOC.Shards != st.NumShards() {
				t.Fatalf("OOC report missing or wrong shard count: %+v", oocRes.OOC)
			}
		})
	}
}

// TestFactorizeOOCValidation covers the fail-fast paths of the out-of-core
// entry points.
func TestFactorizeOOCValidation(t *testing.T) {
	if _, err := FactorizeOOC(nil, Options{Rank: 2}); err == nil {
		t.Fatal("nil sharded tensor must be rejected")
	}
	if _, err := FactorizeALSOOC(nil, ALSOptions{Rank: 2}); err == nil {
		t.Fatal("nil sharded tensor must be rejected (ALS)")
	}
}
