package experiments

import (
	"fmt"
	"time"

	"aoadmm/internal/alto"
	"aoadmm/internal/csf"
	"aoadmm/internal/datasets"
	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/perfmodel"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

// Kernels runs the CSF vs ALTO MTTKRP head-to-head (extension: the kernel
// backend added after the paper, see docs/FORMATS.md). Two synthetic shapes
// bracket the crossover — a uniform tensor with long fibers where CSF's
// amortized tree walk wins, and a planted power-law tensor whose hypersparse
// fibers make CSF pay a full node path per non-zero while ALTO's linear scan
// stays flat. For each, it measures single build and full all-mode MTTKRP
// sweep times for both formats and prints the perfmodel cost model's pick
// next to the measured winner, so a drifting model is visible at a glance.
// The same two shapes (at medium scale) back the CI bench gate
// (cmd/benchdiff + BENCH_kernels.json).
func Kernels(cfg Config) error {
	cfg.fill()
	tbl := &stats.Table{Headers: []string{
		"tensor", "dims", "nnz", "avg_fiber",
		"build_csf_ms", "build_alto_ms", "sweep_csf_ms", "sweep_alto_ms",
		"alto/csf", "model_pick", "measured_win",
	}}
	for _, sc := range kernelScenarios(cfg.Scale) {
		x, err := tensor.Uniform(sc.gen)
		if err != nil {
			return fmt.Errorf("kernels %s: %w", sc.name, err)
		}
		factors, out := kernelOperands(x, cfg.Rank)

		csfStart := time.Now()
		set := csf.BuildSet(x)
		buildCSF := time.Since(csfStart)
		altoStart := time.Now()
		at, err := alto.Build(x, alto.Options{})
		if err != nil {
			return fmt.Errorf("kernels %s alto build: %w", sc.name, err)
		}
		buildALTO := time.Since(altoStart)

		sweepCSF := minSweep(3, func() {
			for m := 0; m < x.Order(); m++ {
				k := out.RowBlock(0, x.Dims[m])
				mttkrp.Compute(set.Tree(m), factors, k, nil, mttkrp.Options{Threads: cfg.Threads})
			}
		})
		sweepALTO := minSweep(3, func() {
			for m := 0; m < x.Order(); m++ {
				k := out.RowBlock(0, x.Dims[m])
				at.MTTKRP(m, factors, k, mttkrp.Options{Threads: cfg.Threads})
			}
		})

		prof := perfmodel.ProfileTensor(x, cfg.Rank, cfg.Threads)
		fiber := 0.0
		for m := 0; m < x.Order(); m++ {
			fiber += prof.AvgFiberLen(m)
		}
		fiber /= float64(x.Order())
		pick := perfmodel.ChooseKernelFormat(x, cfg.Rank, cfg.Threads)
		win := perfmodel.FormatCSF
		if sweepALTO < sweepCSF {
			win = perfmodel.FormatALTO
		}

		tbl.AddRow(sc.name,
			fmt.Sprintf("%v", x.Dims),
			fmt.Sprintf("%d", x.NNZ()),
			fmt.Sprintf("%.2f", fiber),
			fmt.Sprintf("%.1f", buildCSF.Seconds()*1e3),
			fmt.Sprintf("%.1f", buildALTO.Seconds()*1e3),
			fmt.Sprintf("%.1f", sweepCSF.Seconds()*1e3),
			fmt.Sprintf("%.1f", sweepALTO.Seconds()*1e3),
			fmt.Sprintf("%.2f", sweepALTO.Seconds()/sweepCSF.Seconds()),
			pick, win)
	}
	fmt.Fprintf(cfg.Out, "\n== Kernel head-to-head (extension): CSF vs ALTO MTTKRP at rank %d ==\n", cfg.Rank)
	if err := tbl.Render(cfg.Out); err != nil {
		return err
	}
	return cfg.writeCSV("kernels.csv", tbl.WriteCSV)
}

type kernelScenario struct {
	name string
	gen  tensor.GenOptions
}

// kernelScenarios returns the two crossover-bracketing shapes, sized by
// scale. Medium matches internal/alto's BenchmarkMTTKRP scenarios exactly
// (keep in sync); small shrinks the non-zero counts so `paperbench kernels`
// and the harness tests stay fast; large doubles the medium budget.
func kernelScenarios(scale datasets.Scale) []kernelScenario {
	nnzU, nnzS := 400_000, 300_000
	switch scale {
	case datasets.Small:
		nnzU, nnzS = 50_000, 40_000
	case datasets.Large:
		nnzU, nnzS = 800_000, 600_000
	}
	return []kernelScenario{
		{name: "uniform", gen: tensor.GenOptions{
			Dims: []int{96, 96, 96}, NNZ: nnzU, Seed: 11,
		}},
		{name: "power-law", gen: tensor.GenOptions{
			Dims: []int{65_536, 65_536, 256}, NNZ: nnzS,
			Skew: []float64{1.1, 1.1, 1.4}, Seed: 12,
		}},
	}
}

// kernelOperands builds deterministic dense factors and a max-dim output
// buffer for a sweep over every mode of x.
func kernelOperands(x *tensor.COO, rank int) ([]*dense.Matrix, *dense.Matrix) {
	factors := make([]*dense.Matrix, x.Order())
	maxDim := 0
	for m := range factors {
		factors[m] = dense.New(x.Dims[m], rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = 1 + float64(i%13)*0.0625
		}
		if x.Dims[m] > maxDim {
			maxDim = x.Dims[m]
		}
	}
	return factors, dense.New(maxDim, rank)
}

// minSweep times fn reps times and returns the fastest run — the standard
// min-of-N estimator for a noisy single machine.
func minSweep(reps int, fn func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}
