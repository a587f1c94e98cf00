// Benchmarks regenerating the paper's tables and figures (one Benchmark per
// artifact) plus kernel microbenchmarks. Run everything with
//
//	go test -bench=. -benchmem
//
// The dataset proxies are generated once per process and cached. Scales are
// kept small so the full suite completes on a laptop; cmd/paperbench runs
// the same experiments at -scale medium for the recorded results in
// EXPERIMENTS.md.
package aoadmm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aoadmm/internal/admm"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/perfmodel"
	"aoadmm/internal/prox"
	"aoadmm/internal/sparse"
)

var (
	tensorCache   = map[string]*Tensor{}
	tensorCacheMu sync.Mutex
)

func benchTensor(b *testing.B, name string) *Tensor {
	b.Helper()
	tensorCacheMu.Lock()
	defer tensorCacheMu.Unlock()
	if t, ok := tensorCache[name]; ok {
		return t
	}
	t, err := Dataset(name, ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	tensorCache[name] = t
	return t
}

// BenchmarkFig3KernelBreakdown times one full rank-16 non-negative baseline
// factorization per dataset and reports the per-kernel fractions of Fig. 3
// as custom metrics.
func BenchmarkFig3KernelBreakdown(b *testing.B) {
	for _, name := range DatasetNames() {
		b.Run(name, func(b *testing.B) {
			x := benchTensor(b, name)
			var fr perfmodel.Fractions
			for i := 0; i < b.N; i++ {
				res, err := Factorize(x, Options{
					Rank:          16,
					Constraints:   []Constraint{NonNegative()},
					Variant:       Baseline,
					MaxOuterIters: 10,
					Seed:          1,
				})
				if err != nil {
					b.Fatal(err)
				}
				fr = perfmodel.FromBreakdown(res.Breakdown)
			}
			b.ReportMetric(fr.MTTKRP, "mttkrp-frac")
			b.ReportMetric(fr.ADMM, "admm-frac")
			b.ReportMetric(fr.Other, "other-frac")
		})
	}
}

// benchScaling reports the modeled 20-thread speedup per dataset for one
// variant (Fig. 4 baseline / Fig. 5 blocked).
func benchScaling(b *testing.B, variant perfmodel.Variant) {
	model := perfmodel.Default()
	for _, name := range DatasetNames() {
		b.Run(name, func(b *testing.B) {
			fr, err := perfmodel.PaperFractions(name)
			if err != nil {
				b.Fatal(err)
			}
			var s float64
			for i := 0; i < b.N; i++ {
				s = model.AppSpeedup(fr, variant, 20)
			}
			b.ReportMetric(s, "speedup-at-20")
		})
	}
}

// BenchmarkFig4BaselineScaling reports the modeled baseline speedups.
func BenchmarkFig4BaselineScaling(b *testing.B) { benchScaling(b, perfmodel.Baseline) }

// BenchmarkFig5BlockedScaling reports the modeled blocked speedups.
func BenchmarkFig5BlockedScaling(b *testing.B) { benchScaling(b, perfmodel.Blocked) }

// BenchmarkFig6Convergence times base vs blocked non-negative factorization
// per dataset (Fig. 6's trajectories) and reports final error and outer
// iteration count.
func BenchmarkFig6Convergence(b *testing.B) {
	for _, name := range DatasetNames() {
		for _, variant := range []Variant{Baseline, Blocked} {
			b.Run(fmt.Sprintf("%s/%s", name, variant), func(b *testing.B) {
				x := benchTensor(b, name)
				var relErr float64
				var iters int
				for i := 0; i < b.N; i++ {
					res, err := Factorize(x, Options{
						Rank:          16,
						Constraints:   []Constraint{NonNegative()},
						Variant:       variant,
						MaxOuterIters: 20,
						Seed:          1,
					})
					if err != nil {
						b.Fatal(err)
					}
					relErr, iters = res.RelErr, res.OuterIters
				}
				b.ReportMetric(relErr, "rel-err")
				b.ReportMetric(float64(iters), "outer-iters")
			})
		}
	}
}

// BenchmarkTable2SparseStructures times ℓ₁-regularized factorization with
// the DENSE / CSR / CSR-H factor structures across ranks (Table II) and
// reports the final density of the longest factor.
func BenchmarkTable2SparseStructures(b *testing.B) {
	for _, name := range []string{"reddit", "amazon"} {
		for _, rank := range []int{8, 16, 32} {
			for _, structure := range []Structure{StructDense, StructCSR, StructHybrid} {
				b.Run(fmt.Sprintf("%s/F=%d/%s", name, rank, structure), func(b *testing.B) {
					x := benchTensor(b, name)
					var density float64
					for i := 0; i < b.N; i++ {
						res, err := Factorize(x, Options{
							Rank:            rank,
							Constraints:     []Constraint{NonNegativeL1(0.1)},
							MaxOuterIters:   10,
							ExploitSparsity: structure != StructDense,
							Structure:       structure,
							Seed:            1,
						})
						if err != nil {
							b.Fatal(err)
						}
						density = res.FactorDensities[longestMode(x)]
					}
					b.ReportMetric(density, "factor-density")
				})
			}
		}
	}
}

func longestMode(x *Tensor) int {
	best := 0
	for m, d := range x.Dims {
		if d > x.Dims[best] {
			best = m
		}
	}
	return best
}

// BenchmarkMTTKRP measures the raw kernel with dense, CSR, and hybrid leaf
// factors at 10% factor density — the §IV-C comparison isolated from the
// rest of the factorization.
func BenchmarkMTTKRP(b *testing.B) {
	x := benchTensor(b, "amazon")
	rank := 32
	rng := rand.New(rand.NewSource(1))
	factors := make([]*dense.Matrix, x.Order())
	for m, d := range x.Dims {
		factors[m] = dense.Random(d, rank, rng)
	}
	tree := csf.Build(x.Clone(), csf.DefaultPerm(x.Order(), 0))
	leafMode := tree.Perm[x.Order()-1]
	lf := factors[leafMode]
	for i := range lf.Data {
		if rng.Float64() < 0.9 {
			lf.Data[i] = 0
		}
	}
	out := dense.New(x.Dims[0], rank)

	b.Run("dense-leaf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mttkrp.Compute(tree, factors, out, nil, mttkrp.Options{Threads: 1})
		}
	})
	b.Run("csr-leaf", func(b *testing.B) {
		leaf := sparse.FromDense(lf, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mttkrp.Compute(tree, factors, out, leaf, mttkrp.Options{Threads: 1})
		}
	})
	b.Run("csr-leaf-with-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			leaf := sparse.FromDense(lf, 0)
			mttkrp.Compute(tree, factors, out, leaf, mttkrp.Options{Threads: 1})
		}
	})
	b.Run("hybrid-leaf", func(b *testing.B) {
		leaf := sparse.FromDenseHybrid(lf, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mttkrp.Compute(tree, factors, out, leaf, mttkrp.Options{Threads: 1})
		}
	})
}

// BenchmarkCSFBuild measures compiling a CSF set (one tree per root mode) on
// the patents proxy (short dense modes) and the NELL proxy (long sparse
// modes), each presorted in natural mode order as generated, where the
// radix order needs at most the root pass, and shuffled, where it runs
// every digit pass.
func BenchmarkCSFBuild(b *testing.B) {
	for _, name := range []string{"patents", "nell"} {
		x := benchTensor(b, name)
		shuffled := x.Clone()
		rng := rand.New(rand.NewSource(4))
		rng.Shuffle(shuffled.NNZ(), func(p, q int) {
			for _, col := range shuffled.Inds {
				col[p], col[q] = col[q], col[p]
			}
			shuffled.Vals[p], shuffled.Vals[q] = shuffled.Vals[q], shuffled.Vals[p]
		})
		for _, in := range []struct {
			name string
			x    *Tensor
		}{{"presorted", x}, {"shuffled", shuffled}} {
			b.Run(name+"/"+in.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					csf.BuildSet(in.x)
				}
				b.ReportMetric(float64(in.x.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "nnz/s")
			})
		}
	}
}

// BenchmarkADMM measures one inner solve, baseline vs blocked, on a
// tall-and-skinny problem shaped like a mode update.
func BenchmarkADMM(b *testing.B) {
	rows, rank := 20000, 32
	rng := rand.New(rand.NewSource(2))
	g := dense.AddScaledIdentity(dense.Gram(dense.Random(rank*3, rank, rng), 1), 0.5)
	k := dense.Random(rows, rank, rng)
	cfg := admm.Config{Prox: prox.NonNegative{}, MaxIters: 10, Threads: 1}

	h0 := dense.Random(rows, rank, rng)
	h := dense.New(rows, rank)
	u := dense.New(rows, rank)

	b.Run("baseline", func(b *testing.B) {
		ws := &admm.Workspace{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h.CopyFrom(h0)
			u.Zero()
			b.StartTimer()
			if _, err := admm.Run(h, u, k, g, ws, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blocked", func(b *testing.B) {
		ws := &admm.Workspace{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h.CopyFrom(h0)
			u.Zero()
			b.StartTimer()
			if _, err := admm.RunBlocked(h, u, k, g, ws, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCholeskySolve measures the per-row normal-equations solve that
// dominates ADMM's line 6, on one default block of rows. Every op restores
// the right-hand sides from src first (the copy is timed in both
// sub-benchmarks): solving the same rows in place again and again would
// shrink them toward the subnormal range and make ns/op depend on b.N.
// "SolveRows" is the four-row interleaved solve, "per-row" a plain SolveVec
// loop over the same rows.
func BenchmarkCholeskySolve(b *testing.B) {
	for _, rank := range []int{16, 32, 50, 100} {
		rng := rand.New(rand.NewSource(3))
		g := dense.AddScaledIdentity(dense.Gram(dense.Random(rank*2, rank, rng), 1), 1)
		ch, err := dense.NewCholesky(g)
		if err != nil {
			b.Fatal(err)
		}
		src := dense.Random(admm.DefaultBlockSize, rank, rng)
		rows := dense.New(src.Rows, rank)
		b.Run(fmt.Sprintf("F=%d/SolveRows", rank), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows.CopyFrom(src)
				ch.SolveRows(rows)
			}
		})
		b.Run(fmt.Sprintf("F=%d/per-row", rank), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows.CopyFrom(src)
				for r := 0; r < rows.Rows; r++ {
					ch.SolveVec(rows.Row(r))
				}
			}
		})
	}
}

// BenchmarkTopK measures the serving-path completion kernel across rank,
// target-mode length, and factor density (dense scoring vs the CSR
// short-circuit path used below the registry's 20% threshold).
func BenchmarkTopK(b *testing.B) {
	for _, cfg := range []struct {
		rows    int
		rank    int
		density float64
	}{
		{rows: 10_000, rank: 16, density: 1.0},
		{rows: 10_000, rank: 64, density: 1.0},
		{rows: 200_000, rank: 16, density: 1.0},
		{rows: 200_000, rank: 16, density: 0.1},
		{rows: 200_000, rank: 64, density: 0.1},
	} {
		name := fmt.Sprintf("rows=%d/F=%d/density=%.2f", cfg.rows, cfg.rank, cfg.density)
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			model := kruskal.Random([]int{500, cfg.rows, 400}, cfg.rank, rng)
			target := model.Factors[1]
			if cfg.density < 1 {
				for i := range target.Data {
					if rng.Float64() >= cfg.density {
						target.Data[i] = 0
					}
				}
			}
			q := CompletionQuery{Anchors: map[int]int{0: 3, 2: 11}, TargetMode: 1, K: 10}
			if cfg.density < 0.20 {
				q.TargetLeaf = sparse.FromDense(target, 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := TopKQuery(model, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Indexed vs scan on a clustered target: rows drawn around a few dozen
	// centroids (realistic fitted-factor structure) let the cluster index
	// prune most of the target wholesale. The index is built outside the
	// timer, matching the registry, which builds it once at registration.
	for _, rows := range []int{100_000, 200_000} {
		rng := rand.New(rand.NewSource(11))
		const rank, centers = 16, 40
		model := kruskal.Random([]int{500, rows, 400}, rank, rng)
		target := model.Factors[1]
		cent := dense.Random(centers, rank, rng)
		for j := 0; j < rows; j++ {
			c := cent.Row(j % centers)
			row := target.Row(j)
			for f := range row {
				row[f] = c[f] + 0.05*rng.NormFloat64()
			}
		}
		q := CompletionQuery{Anchors: map[int]int{0: 3, 2: 11}, TargetMode: 1, K: 10}
		ix, err := BuildRowIndex(model, 1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("clustered/rows=%d/scan", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := TopKQuery(model, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("clustered/rows=%d/indexed", rows), func(b *testing.B) {
			iq := q
			iq.Index = ix
			var st IndexStats
			iq.Stats = &st
			for i := 0; i < b.N; i++ {
				if _, err := TopKQuery(model, iq); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Pruned), "clusters-pruned")
			b.ReportMetric(float64(st.RowsScanned), "rows-scanned")
		})
	}
}
