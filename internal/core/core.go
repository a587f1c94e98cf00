// Package core runs Algorithm 2 of the paper, the AO outer loop, once for
// every solver and data plane. Drive is that loop: per outer iteration and
// mode it forms the Gram product G, takes the MTTKRP K from an Engine, hands
// both to a Step that updates the mode's factor, and refreshes the factor's
// Gram; after the sweep it computes the fit (§V-A) and stops once the
// relative error changes by less than Tol (|Δerr| < Tol). Two parts plug in:
//
//   - the Engine says where K comes from: CSF trees or the ALTO format in
//     memory, mode-0 shards streamed from disk, or (internal/distnet)
//     partial MTTKRPs reduce-scattered across worker processes;
//   - the Step says how a mode is updated: blocked or baseline inner ADMM
//     (Factorize, FactorizeOOC; this step owns the duals), the ALS
//     normal-equations solve (FactorizeALS, FactorizeALSOOC), the HALS
//     column sweep (FactorizeHALS), or distnet's remote owned-rows ADMM.
//
// Each entry point fills its own defaults and calls Drive, so every path
// shares one stop rule, one checkpoint and warm-restart path, and one
// observability path (phase breakdown, kernel table, trace). The dynamic
// factor-sparsity management of §IV-C is the driver's leaf-factor cache.
// With no constraints AO-ADMM and ALS minimize the same objective, which
// makes ALS a correctness cross-check.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"aoadmm/internal/admm"
	"aoadmm/internal/blockmodel"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/faults"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/obs"
	"aoadmm/internal/ooc"
	"aoadmm/internal/par"
	"aoadmm/internal/prox"
	"aoadmm/internal/sparse"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

// Variant selects the inner ADMM formulation.
type Variant int

// Inner ADMM variants.
const (
	// Blocked is the paper's accelerated blockwise ADMM (§IV-B), the
	// default.
	Blocked Variant = iota
	// Baseline is the kernel-parallel ADMM with global convergence (§IV-A).
	Baseline
)

// String names the variant for logs and experiment output.
func (v Variant) String() string {
	if v == Baseline {
		return "base"
	}
	return "blocked"
}

// Structure selects the leaf-factor representation used during MTTKRP when a
// factor has gone sparse (§IV-C / Table II).
type Structure int

// MTTKRP leaf-factor structures.
const (
	// StructDense never compresses factors (Table II's DENSE row).
	StructDense Structure = iota
	// StructCSR stores sparse factors in CSR (Table II's CSR row).
	StructCSR
	// StructHybrid stores sparse factors in the hybrid dense+CSR form
	// (Table II's CSR-H row).
	StructHybrid
)

// String names the structure for logs and experiment output.
func (s Structure) String() string {
	switch s {
	case StructCSR:
		return "CSR"
	case StructHybrid:
		return "CSR-H"
	default:
		return "DENSE"
	}
}

// DefaultMaxOuterIters matches the paper's cap of 200 outer iterations.
const DefaultMaxOuterIters = 200

// DefaultTol matches the paper's stopping rule: stop when the relative
// error changes by less than 1e-6 between outer iterations.
const DefaultTol = 1e-6

// DefaultSparseThreshold is the density below which a factor "can be
// gainfully treated as sparse" (§V-E: 20%).
const DefaultSparseThreshold = 0.20

// Options configures a factorization.
type Options struct {
	// Rank is the CPD rank F (required, > 0).
	Rank int
	// Constraints holds one proximity operator per mode; a single-element
	// slice is broadcast to all modes; nil means unconstrained.
	Constraints []prox.Operator
	// Variant selects baseline or blocked inner ADMM.
	Variant Variant
	// MaxOuterIters caps outer iterations (<= 0 means 200, the paper's cap).
	MaxOuterIters int
	// Tol stops the run once the relative error changes by less than Tol
	// between outer iterations, |Δerr| < Tol (<= 0 means 1e-6).
	Tol float64
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// BlockSize is the blocked-ADMM rows per block (<= 0 means 50).
	BlockSize int
	// InnerEps is the ADMM residual tolerance (<= 0 means 1e-2).
	InnerEps float64
	// InnerMaxIters caps ADMM inner iterations (<= 0 means 50).
	InnerMaxIters int
	// AdaptiveRho enables per-block penalty residual balancing in the
	// blocked inner solver (Boyd §3.4.1), accelerating blocks whose fixed
	// rho = trace(G)/F is poorly matched to their conditioning.
	AdaptiveRho bool
	// ExploitSparsity enables the dynamic factor-sparsity machinery of
	// §IV-C: factors whose density drops below SparseThreshold are imaged
	// into the chosen Structure before MTTKRP.
	ExploitSparsity bool
	// Structure selects the compressed representation (CSR by default).
	Structure Structure
	// SparseThreshold overrides the 20% density threshold (<= 0 means 0.20).
	SparseThreshold float64
	// SingleCSF, when set, builds ONE CSF tree (rooted at the shortest
	// mode, maximizing compression) and computes every mode's MTTKRP from
	// it with privatized accumulation — SPLATT's memory-efficient operating
	// point, roughly one third of the default one-tree-per-mode footprint
	// at the cost of extra reduction work on non-root modes. Only applies
	// to the CSF kernel format.
	SingleCSF bool
	// KernelFormat selects the MTTKRP backend: "" or "csf" (compressed
	// sparse fiber trees, the default), "alto" (the adaptive linearized
	// format of internal/alto), or "auto" (pick per tensor from the
	// perfmodel kernel cost model). Out-of-core runs compile each resident
	// shard in this format. Any other name requires EngineBuilder and fails
	// loudly without one — formats never fall back silently.
	KernelFormat string
	// EngineBuilder, when non-nil, constructs the MTTKRP engine for
	// in-memory runs instead of the native KernelFormat switch. The
	// autoselect backend registry produces builders for registered names
	// (including probe-based selection); ignored out-of-core.
	EngineBuilder EngineBuilder
	// AutoBlockSize, when set, chooses the blocked-ADMM block size per mode
	// from the analytical model of internal/blockmodel (the paper's §VI
	// future-work item) instead of the fixed BlockSize.
	AutoBlockSize bool
	// StructureSelector, when non-nil and ExploitSparsity is set, picks the
	// leaf-factor structure per MTTKRP call from the factor's current
	// sparsity profile, overriding Structure (the paper's other §VI
	// future-work item; see internal/autoselect). It receives the leaf
	// factor's row count, the rank, the MTTKRP access count, the factor
	// density, and the share of factor non-zeros in denser-than-average
	// columns.
	StructureSelector func(leafRows, rank int, accesses int64, density, denseColumnShare float64) Structure
	// InitFactors, when non-nil, seeds the factorization from the given
	// Kruskal tensor (deep-copied) instead of random factors — e.g. a
	// checkpoint written by CheckpointDir, or an ALS warm start. Shapes
	// must match the tensor and Rank.
	InitFactors *kruskal.Tensor
	// InitDuals, when non-nil alongside InitFactors, restores the per-mode
	// scaled ADMM dual variables (deep-copied) from a checkpoint. A resumed
	// single-threaded run with restored duals reproduces the uninterrupted
	// trajectory exactly; without them the duals restart at zero and the run
	// re-converges. Shapes must match the factors.
	InitDuals []*dense.Matrix
	// DualScale multiplies the restored InitDuals by a constant in (0, 1]
	// before the first sweep (0 or 1 = use them verbatim). Streaming refits
	// set it to the sliding-window decay applied to the base tensor since the
	// parent model trained, so the carried-over duals match the re-weighted
	// objective they warm-start; see docs/STREAMING.md.
	DualScale float64
	// StartIter anchors the outer-iteration counter when resuming: the loop
	// runs iterations StartIter+1 through MaxOuterIters, and OuterIters,
	// checkpoints, and trace points report cumulative iteration numbers. The
	// iteration budget is therefore shared across interruptions rather than
	// restarting from zero on every resume.
	StartIter int
	// PrevRelErr seeds the improvement-based stopping comparison when
	// resuming (the relative error at StartIter, from the checkpoint meta);
	// <= 0 means +Inf, i.e. a fresh run.
	PrevRelErr float64
	// Seed drives factor initialization (ignored with InitFactors).
	Seed int64
	// MaxTime stops the factorization after the given wall time (0 = no
	// limit). The current iterate is returned; Converged reports false.
	MaxTime time.Duration
	// Ctx, when non-nil, is an external stop signal checked at every outer
	// iteration boundary: once done, the loop stops before the next sweep
	// and the current iterate is returned with Converged false and Stopped
	// true. Cancellation is not an error — long-running services use it to
	// cancel jobs and still receive the partial factors (e.g. for a final
	// checkpoint).
	Ctx context.Context
	// OnIteration, when non-nil, is invoked after every outer iteration
	// with the current trace point. Returning false stops the run.
	OnIteration func(stats.TracePoint) bool
	// CheckpointDir, when non-empty, saves the current factors under this
	// directory every CheckpointEvery outer iterations (overwriting the
	// previous checkpoint). A failed save is retried on the next interval
	// rather than aborting the run.
	CheckpointDir string
	// CheckpointEvery is the checkpoint interval in outer iterations
	// (<= 0 means 10).
	CheckpointEvery int
	// CheckpointJobID and CheckpointAttempt are stamped into each
	// checkpoint's meta record so a recovering service can tie the on-disk
	// state back to the job (and attempt) that wrote it.
	CheckpointJobID   string
	CheckpointAttempt int
	// Faults is the optional fault-injection registry (internal/faults);
	// nil — the default — makes every hook point a no-op.
	Faults *faults.Injector
	// MemBudgetBytes is the memory budget the admission layer used when it
	// routed this run (0 = unlimited). The core solvers do not enforce it —
	// the out-of-core entry points shard-stream regardless — but it is
	// echoed into Result.OOC and the metrics report so a run's budget and
	// its tracked peak can be compared after the fact.
	MemBudgetBytes int64
	// Tracer, when non-nil, records spans into per-thread ring buffers:
	// outer iterations, per-mode kernels, ADMM blocks, scheduler chunks, and
	// OOC shard pipeline events, exportable as Chrome trace_event JSON
	// (obs.Tracer.WriteChrome, the -trace CLI flag). nil — the default —
	// keeps every instrumentation point a single nil check with zero
	// allocations; see docs/OBSERVABILITY.md.
	Tracer *obs.Tracer
}

// fill applies the single-node entry points' defaults: one constraint per
// mode, the paper's 200-iteration cap and 1e-6 tolerance, and the 20%
// sparsity threshold.
func (o *Options) fill(order int) error {
	cons, err := BroadcastConstraints(o.Constraints, order)
	if err != nil {
		return err
	}
	o.Constraints = cons
	if o.MaxOuterIters <= 0 {
		o.MaxOuterIters = DefaultMaxOuterIters
	}
	if o.Tol <= 0 {
		o.Tol = DefaultTol
	}
	if o.SparseThreshold <= 0 {
		o.SparseThreshold = DefaultSparseThreshold
	}
	return nil
}

// BroadcastConstraints expands a constraint list to one operator per mode:
// an empty list leaves every mode unconstrained, a single operator applies
// to every mode, and an order-length list is taken mode by mode. A nil
// operator means unconstrained. Any other length is an error. The input is
// never modified.
func BroadcastConstraints(cs []prox.Operator, order int) ([]prox.Operator, error) {
	if len(cs) > 1 && len(cs) != order {
		return nil, fmt.Errorf("core: %d constraints for order-%d tensor", len(cs), order)
	}
	out := make([]prox.Operator, order)
	for m := range out {
		switch {
		case len(cs) == 1:
			out[m] = cs[0]
		case len(cs) == order:
			out[m] = cs[m]
		}
		if out[m] == nil {
			out[m] = prox.Unconstrained{}
		}
	}
	return out, nil
}

// Result reports a completed factorization.
type Result struct {
	// Factors is the fitted Kruskal tensor.
	Factors *kruskal.Tensor
	// RelErr is the final relative error ‖X−M‖/‖X‖.
	RelErr float64
	// OuterIters is the number of outer iterations executed.
	OuterIters int
	// Converged reports whether the improvement tolerance was met before
	// the iteration cap or time budget.
	Converged bool
	// Stopped reports that the run was halted by Options.Ctx cancellation
	// rather than by convergence, the iteration cap, or the time budget.
	Stopped bool
	// Duals is the final per-mode scaled ADMM dual state, exposed so a
	// service can checkpoint full resume state (factors + duals) at
	// cancellation; nil for ALS/HALS runs, which carry no duals.
	Duals []*dense.Matrix
	// CheckpointErr is the error from the most recent checkpoint save (nil
	// when the last save succeeded or checkpointing was off). A failed save
	// is retried at the next interval, so a run can finish successfully with
	// a stale checkpoint; callers that rely on checkpoints should inspect
	// this field.
	CheckpointErr error
	// InnerIters is the total ADMM inner-iteration count across modes and
	// outer iterations (maximum block count for blocked runs).
	InnerIters int
	// RowIters is the total per-row inner-iteration work (Σ rows·iters).
	RowIters int64
	// Breakdown is the per-phase wall-time split (Fig. 3), derived from
	// Metrics' top-level kernel rows.
	Breakdown *stats.Breakdown
	// Metrics is the fine-grained observability object (per-mode kernel
	// timers, ADMM block histogram, scheduler telemetry, sparsity
	// timeline), collected on every run.
	Metrics *stats.Metrics
	// Trace is the convergence trajectory (Fig. 6).
	Trace *stats.Trace
	// OOC reports shard-streaming I/O and admission accounting; nil for
	// in-memory runs.
	OOC *stats.OOCReport
	// FactorDensities is the final per-mode factor density (Table II).
	FactorDensities []float64
	// SparseMTTKRPs counts MTTKRP invocations that used a compressed leaf
	// factor.
	SparseMTTKRPs int
	// KernelBackends names the MTTKRP backend that served each mode
	// ("csf", "csf-single", "alto", "ooc-csf", ...), as chosen by the
	// kernel format options or the autoselect registry.
	KernelBackends []string
}

// sparseImage caches one mode's compressed factor representation together
// with the factor version it was built from, so images are rebuilt only
// after the factor changes (§IV-C: construction costs O(I·F) and must be
// balanced against its MTTKRP savings).
type sparseImage struct {
	version int
	leaf    mttkrp.LeafFactor
	density float64
}

// Factorize runs AO-ADMM (Algorithm 2) on an in-memory tensor.
func Factorize(x *tensor.COO, opts Options) (*Result, error) {
	p, err := InMemoryProblem(x, func() (Engine, error) { return newEngine(x, opts) })
	if err != nil {
		return nil, err
	}
	return factorize(p, admmStep, opts)
}

// FactorizeOOC runs AO-ADMM on a sharded on-disk tensor, streaming shards
// through the same outer loop as Factorize: per mode, shards are loaded one
// at a time (prefetched ahead on a background goroutine), compiled to CSF,
// and their partial MTTKRPs accumulated. ExploitSparsity and SingleCSF are
// inert out-of-core — there is no resident tree to image against. Shard I/O
// counters land in Result.OOC and the metrics report.
func FactorizeOOC(st *ooc.ShardedTensor, opts Options) (*Result, error) {
	p, err := shardedProblem(st, opts)
	if err != nil {
		return nil, err
	}
	return factorize(p, admmStep, opts)
}

// InMemoryProblem validates an in-memory tensor — at least two modes, at
// least one non-zero, every coordinate inside Dims — and describes it to
// the driver, with build compiling its engine.
func InMemoryProblem(x *tensor.COO, build func() (Engine, error)) (Problem, error) {
	if x.Order() < 2 {
		return Problem{}, fmt.Errorf("core: tensor must have >= 2 modes")
	}
	if x.NNZ() == 0 {
		return Problem{}, fmt.Errorf("core: empty tensor")
	}
	if err := x.Validate(); err != nil {
		return Problem{}, fmt.Errorf("core: invalid tensor: %w", err)
	}
	return Problem{Dims: x.Dims, NormSq: x.NormSq(), Build: build}, nil
}

// shardedProblem validates a sharded tensor and describes it to the driver
// with a shard-streaming engine. The per-shard invariants were already
// checked by ooc.Open.
func shardedProblem(st *ooc.ShardedTensor, opts Options) (Problem, error) {
	if st == nil {
		return Problem{}, fmt.Errorf("core: nil sharded tensor")
	}
	if st.Order() < 2 {
		return Problem{}, fmt.Errorf("core: tensor must have >= 2 modes")
	}
	if st.NNZ() == 0 {
		return Problem{}, fmt.Errorf("core: empty tensor")
	}
	if !validOOCFormat(opts.KernelFormat) {
		return Problem{}, fmt.Errorf("core: unknown out-of-core kernel format %q (known: csf, alto, auto)", opts.KernelFormat)
	}
	return Problem{Dims: st.Dims(), NormSq: st.NormSq(), Build: func() (Engine, error) {
		return newOOCEngine(st, opts.Rank, opts.MemBudgetBytes, opts.Tracer, opts.KernelFormat), nil
	}}, nil
}

// factorize fills the entry points' defaults and runs the driver with the
// step built from the filled options.
func factorize(p Problem, step func(Options) Step, opts Options) (*Result, error) {
	if err := opts.fill(len(p.Dims)); err != nil {
		return nil, err
	}
	// Drive's partial result on error carries metrics only; the entry
	// points return none.
	res, err := Drive(p, step(opts), opts)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// admmStep is AO-ADMM's mode update (Algorithm 2, lines 6/10/14): the
// blocked (§IV-B) or baseline (§IV-A) inner ADMM under the mode's
// constraint, warm-started from the mode's scaled duals.
func admmStep(opts Options) Step {
	ws := &admm.Workspace{}
	cfg := admm.Config{
		Eps:         opts.InnerEps,
		MaxIters:    opts.InnerMaxIters,
		Threads:     opts.Threads,
		BlockSize:   opts.BlockSize,
		AdaptiveRho: opts.AdaptiveRho,
	}
	solve := admm.RunBlocked
	if opts.Variant == Baseline {
		solve = admm.Run
	}
	return Step{Kernel: stats.KernelADMMInner, Duals: true, Update: func(u ModeUpdate) (admm.Stats, error) {
		cfg.Prox = opts.Constraints[u.Mode]
		cfg.Telem = u.Telem
		if opts.AutoBlockSize && opts.Variant != Baseline {
			cfg.BlockSize = blockmodel.DefaultModel().Choose(u.Factor.Rows, opts.Rank, par.Threads(opts.Threads))
		}
		st, err := solve(u.Factor, u.Dual, u.K, u.G, ws, cfg)
		if err != nil {
			return st, err
		}
		u.Metrics.AddSubKernel(stats.KernelADMMInner, stats.KernelCholesky, u.Mode, st.Timing.Cholesky)
		u.Metrics.AddSubKernel(stats.KernelADMMInner, stats.KernelProx, u.Mode, st.Timing.Prox)
		u.Metrics.RecordADMMSolve(st.BlockIters, st.RhoAdaptations)
		return st, nil
	}}
}

// leafFor decides the leaf-factor representation for one MTTKRP call: the
// tree's leaf-level factor is compressed when sparsity exploitation is on
// and its density is below the threshold; otherwise the dense matrix is
// used directly (nil → dense inside mttkrp.Compute).
func leafFor(opts Options, tree *csf.Tensor, model *kruskal.Tensor, versions []int, images []sparseImage, res *Result) mttkrp.LeafFactor {
	if tree == nil || !opts.ExploitSparsity {
		return nil
	}
	if opts.StructureSelector == nil && opts.Structure == StructDense {
		return nil
	}
	leafMode := tree.Perm[tree.Order()-1]
	img := &images[leafMode]
	if img.leaf == nil || img.version != versions[leafMode] {
		f := model.Factors[leafMode]
		density := dense.Density(f, 0)
		img.version = versions[leafMode]
		img.density = density

		structure := opts.Structure
		useSparse := density < opts.SparseThreshold
		if opts.StructureSelector != nil {
			structure = opts.StructureSelector(f.Rows, f.Cols, int64(tree.NNZ()),
				density, denseColumnShare(f))
			useSparse = structure != StructDense
		}
		switch {
		case !useSparse || structure == StructDense:
			img.leaf = nil
		case structure == StructHybrid:
			img.leaf = sparse.FromDenseHybrid(f, 0)
		default:
			img.leaf = sparse.FromDense(f, 0)
		}
	}
	if img.leaf != nil {
		res.SparseMTTKRPs++
	}
	return img.leaf
}

// denseColumnShare returns the fraction of a factor's non-zeros that live
// in columns denser than the column average — the quantity the structure
// selector uses to judge the CSR-H panel's usefulness.
func denseColumnShare(f *dense.Matrix) float64 {
	colNNZ := make([]int, f.Cols)
	total := 0
	for i := 0; i < f.Rows; i++ {
		row := f.Row(i)
		for j, v := range row {
			if v != 0 {
				colNNZ[j]++
				total++
			}
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(f.Cols)
	inDense := 0
	for _, c := range colNNZ {
		if float64(c) > mean {
			inDense += c
		}
	}
	return float64(inDense) / float64(total)
}

// RandomModel is the random initial model every solver and data plane
// starts from: kruskal.Random over a generator seeded with seed, rescaled so
// the initial model norm matches the data norm, ‖M₀‖ ≈ ‖X‖ (normSq is
// ‖X‖²). Without the rescale, a non-negative run whose data values dwarf
// the O(rank) initial model spends its first outer iterations in a flat
// relerr ≈ 1 transient that can falsely trip the improvement-based stopping
// rule. threads only parallelizes the model norm.
func RandomModel(dims []int, rank int, seed int64, normSq float64, threads int) *kruskal.Tensor {
	model := kruskal.Random(dims, rank, rand.New(rand.NewSource(seed)))
	if normSq <= 0 {
		return model
	}
	mNormSq := model.NormSq(threads)
	if mNormSq <= 0 {
		return model
	}
	s := math.Pow(normSq/mNormSq, 0.5/float64(model.Order()))
	for _, f := range model.Factors {
		dense.Scale(f, s)
	}
	return model
}

// checkInitDuals validates resumed dual variables against the tensor shape.
func checkInitDuals(duals []*dense.Matrix, dims []int, rank int) error {
	if len(duals) != len(dims) {
		return fmt.Errorf("core: %d InitDuals for order-%d tensor", len(duals), len(dims))
	}
	for m, d := range duals {
		if d == nil {
			return fmt.Errorf("core: InitDuals mode %d is nil", m)
		}
		if d.Rows != dims[m] || d.Cols != rank {
			return fmt.Errorf("core: InitDuals mode %d is %dx%d, want %dx%d",
				m, d.Rows, d.Cols, dims[m], rank)
		}
	}
	return nil
}

// checkInitShape validates a user-provided initialization.
func checkInitShape(k *kruskal.Tensor, dims []int, rank int) error {
	if k.Order() != len(dims) {
		return fmt.Errorf("core: InitFactors order %d != tensor order %d", k.Order(), len(dims))
	}
	if k.Rank() != rank {
		return fmt.Errorf("core: InitFactors rank %d != Rank %d", k.Rank(), rank)
	}
	for m, f := range k.Factors {
		if f.Rows != dims[m] {
			return fmt.Errorf("core: InitFactors mode %d has %d rows, tensor needs %d", m, f.Rows, dims[m])
		}
	}
	return nil
}

func gramProduct(grams []*dense.Matrix, skip int) *dense.Matrix {
	var out *dense.Matrix
	for m, g := range grams {
		if m == skip {
			continue
		}
		if out == nil {
			out = g.Clone()
		} else {
			dense.Hadamard(out, out, g)
		}
	}
	return out
}

func maxDim(dims []int) int {
	m := 0
	for _, d := range dims {
		if d > m {
			m = d
		}
	}
	return m
}
