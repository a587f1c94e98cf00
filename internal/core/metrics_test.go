package core

import (
	"strconv"
	"testing"
	"time"

	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
)

// End-to-end check of the observability subsystem against the acceptance
// criteria: per-mode kernel timings, per-block inner-iteration histogram,
// per-thread scheduler telemetry, and the per-iteration density timeline.
func TestFactorizeCollectMetrics(t *testing.T) {
	x := testTensor(t, 141)
	res, err := Factorize(x, Options{
		Rank:            6,
		Constraints:     []prox.Operator{prox.NonNegL1{Lambda: 0.05}},
		Variant:         Blocked,
		Threads:         2,
		MaxOuterIters:   8,
		ExploitSparsity: true,
		AdaptiveRho:     true,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics not populated")
	}
	rep := res.Metrics.Report()
	if rep.Schema != stats.MetricsSchema {
		t.Fatalf("schema %q", rep.Schema)
	}

	// Per-mode kernels: mttkrp, gram_product, gram, admm_inner, cholesky,
	// and prox must appear for every mode; csf_setup and fit are modeless.
	order := x.Order()
	seen := map[string]map[int]bool{}
	for _, k := range rep.Kernels {
		if k.Calls <= 0 {
			t.Fatalf("kernel %s mode %d has %d calls", k.Kernel, k.Mode, k.Calls)
		}
		if seen[k.Kernel] == nil {
			seen[k.Kernel] = map[int]bool{}
		}
		seen[k.Kernel][k.Mode] = true
	}
	for _, kernel := range []string{"mttkrp", "gram_product", "gram", "admm_inner", "cholesky", "prox"} {
		for m := 0; m < order; m++ {
			if !seen[kernel][m] {
				t.Errorf("kernel %s missing mode %d (have %v)", kernel, m, seen[kernel])
			}
		}
	}
	for _, kernel := range []string{"csf_setup", "fit"} {
		if !seen[kernel][stats.ModeNone] {
			t.Errorf("kernel %s missing ModeNone entry", kernel)
		}
	}

	// ADMM counters: one solve per mode per outer iteration, and the
	// histogram must account for every block processed.
	if want := int64(order * res.OuterIters); rep.ADMM.Solves != want {
		t.Fatalf("ADMM solves = %d, want %d", rep.ADMM.Solves, want)
	}
	if rep.ADMM.Blocks <= 0 {
		t.Fatal("no blocks recorded")
	}
	var histTotal int64
	for _, n := range rep.ADMM.InnerIterHistogram {
		histTotal += n
	}
	if histTotal != rep.ADMM.Blocks {
		t.Fatalf("histogram accounts for %d blocks, want %d", histTotal, rep.ADMM.Blocks)
	}

	// Scheduler telemetry: some thread claimed chunks, and the imbalance
	// ratio is defined (>= 1) once work was done.
	if len(rep.Scheduler.Threads) == 0 {
		t.Fatal("no scheduler telemetry")
	}
	var chunks int64
	for _, s := range rep.Scheduler.Threads {
		chunks += s.Chunks
	}
	if chunks <= 0 {
		t.Fatal("no chunks recorded")
	}
	if rep.Scheduler.ImbalanceRatio < 1 {
		t.Fatalf("imbalance ratio %v, want >= 1", rep.Scheduler.ImbalanceRatio)
	}

	// Density timeline: one sample per mode per outer iteration, with a
	// recognized structure label.
	if want := order * res.OuterIters; len(rep.Sparsity) != want {
		t.Fatalf("sparsity timeline has %d samples, want %d", len(rep.Sparsity), want)
	}
	for _, s := range rep.Sparsity {
		if s.Density < 0 || s.Density > 1 {
			t.Fatalf("density %v out of range", s.Density)
		}
		switch s.Structure {
		case "DENSE", "CSR", "CSR-H":
		default:
			t.Fatalf("unknown structure %q", s.Structure)
		}
	}
}

func TestALSCollectMetrics(t *testing.T) {
	x := testTensor(t, 144)
	res, err := FactorizeALS(x, ALSOptions{
		Rank: 4, MaxOuterIters: 4, Threads: 2, Seed: 1, Ridge: 1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Metrics.Report()
	if len(rep.Kernels) == 0 || len(rep.Sparsity) == 0 || len(rep.Scheduler.Threads) == 0 {
		t.Fatalf("ALS metrics incomplete: %d kernels, %d sparsity, %d threads",
			len(rep.Kernels), len(rep.Sparsity), len(rep.Scheduler.Threads))
	}
	for _, k := range rep.Kernels {
		if k.Kernel == "admm_inner" {
			t.Fatal("ALS recorded an ADMM kernel")
		}
	}
}

func TestHALSCollectMetrics(t *testing.T) {
	x := testTensor(t, 145)
	res, err := FactorizeHALS(x, HALSOptions{
		Rank: 4, MaxOuterIters: 4, Threads: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Metrics.Report()
	found := false
	for _, k := range rep.Kernels {
		if k.Kernel == string(stats.KernelHALSUpdate) {
			found = true
		}
	}
	if !found {
		t.Fatal("HALS metrics missing hals_update kernel")
	}
	if len(rep.Sparsity) == 0 || len(rep.Scheduler.Threads) == 0 {
		t.Fatalf("HALS metrics incomplete: %d sparsity, %d threads",
			len(rep.Sparsity), len(rep.Scheduler.Threads))
	}
}

// TestBreakdownIsTopLevelKernelSum pins the one-stream contract on every
// entry-point family: per phase, Result.Breakdown is exactly the sum of the
// report's parent-less kernel rows, and every nested row names a row of
// its own mode as parent.
func TestBreakdownIsTopLevelKernelSum(t *testing.T) {
	x := testTensor(t, 146)
	st, _ := shardedFor(t, x)
	admmOpts := Options{
		Rank: 4, Constraints: []prox.Operator{prox.NonNegative{}}, Variant: Blocked,
		MaxOuterIters: 4, Threads: 2, Seed: 1, AdaptiveRho: true,
	}
	cases := []struct {
		name  string
		solve func() (*Result, error)
	}{
		{"blocked-admm", func() (*Result, error) { return Factorize(x, admmOpts) }},
		{"als", func() (*Result, error) {
			return FactorizeALS(x, ALSOptions{Rank: 4, MaxOuterIters: 4, Threads: 2, Seed: 1, Ridge: 1e-10})
		}},
		{"hals", func() (*Result, error) {
			return FactorizeHALS(x, HALSOptions{Rank: 4, MaxOuterIters: 4, Threads: 2, Seed: 1})
		}},
		{"ooc-admm", func() (*Result, error) { return FactorizeOOC(st, admmOpts) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.solve()
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Metrics.Report()
			want := map[stats.Phase]time.Duration{}
			rows := map[string]bool{}
			for _, kt := range rep.Kernels {
				if kt.Parent == "" {
					want[stats.Kernel(kt.Kernel).Phase()] += kt.Duration
					rows[kt.Kernel+"/"+strconv.Itoa(kt.Mode)] = true
				}
			}
			for _, p := range []stats.Phase{stats.PhaseSetup, stats.PhaseMTTKRP, stats.PhaseADMM, stats.PhaseOther} {
				if got := res.Breakdown.Get(p); got != want[p] || got <= 0 {
					t.Errorf("phase %s: breakdown %v, top-level rows sum to %v", p, got, want[p])
				}
			}
			for _, kt := range rep.Kernels {
				wantUnit := stats.UnitWall
				if kt.Parent != "" {
					wantUnit = stats.UnitCPU
					if !rows[kt.Parent+"/"+strconv.Itoa(kt.Mode)] {
						t.Errorf("row %s mode %d names parent %q, which has no row of that mode",
							kt.Kernel, kt.Mode, kt.Parent)
					}
				}
				if kt.Unit != wantUnit {
					t.Errorf("row %s mode %d parent %q has unit %q, want %q", kt.Kernel, kt.Mode, kt.Parent, kt.Unit, wantUnit)
				}
			}
		})
	}
}
