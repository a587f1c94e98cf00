package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"aoadmm/internal/core"
	"aoadmm/internal/datasets"
	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
)

// Profile runs one instrumented blocked AO-ADMM factorization per dataset
// and writes the collected metrics reports (schema "aoadmm-metrics/v1",
// keyed by dataset name) as indented JSON to path. The run uses the
// configuration most of the paper's accelerations exercise — non-negative
// ℓ₁-regularized factors, dynamic factor sparsity, adaptive per-block ρ —
// so the report contains a non-trivial inner-iteration histogram and a
// sparsity timeline that actually changes structure.
func Profile(cfg Config, path string) error {
	cfg.fill()
	reports := make(map[string]*stats.Report, len(cfg.Datasets))
	tbl := &stats.Table{Headers: []string{"dataset", "kernels", "admm_solves", "threads", "imbalance", "density_samples"}}
	for _, name := range cfg.Datasets {
		x, err := datasets.Generate(name, cfg.Scale)
		if err != nil {
			return err
		}
		res, err := core.Factorize(x, core.Options{
			Rank:            cfg.Rank,
			Constraints:     []prox.Operator{prox.NonNegL1{Lambda: 0.05}},
			Variant:         core.Blocked,
			Threads:         cfg.Threads,
			MaxOuterIters:   cfg.MaxOuter,
			InnerMaxIters:   cfg.InnerMaxIters,
			ExploitSparsity: true,
			AdaptiveRho:     true,
			Seed:            1,
		})
		if err != nil {
			return fmt.Errorf("profile %s: %w", name, err)
		}
		rep := res.Metrics.Report()
		reports[name] = rep
		tbl.AddRow(name,
			fmt.Sprintf("%d", len(rep.Kernels)),
			fmt.Sprintf("%d", rep.ADMM.Solves),
			fmt.Sprintf("%d", len(rep.Scheduler.Threads)),
			fmt.Sprintf("%.2f", rep.Scheduler.ImbalanceRatio),
			fmt.Sprintf("%d", len(rep.Sparsity)))
	}
	fmt.Fprintf(cfg.Out, "\n== Profile: per-mode kernel metrics (rank-%d nonneg+l1 blocked, written to %s) ==\n", cfg.Rank, path)
	if err := tbl.Render(cfg.Out); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
