// Package aoadmm is a pure-Go library for constrained sparse tensor
// factorization with accelerated AO-ADMM, reproducing Smith, Beri & Karypis,
// "Constrained Tensor Factorization with Accelerated AO-ADMM" (ICPP 2017).
//
// The library computes the canonical polyadic decomposition (CPD) of large
// sparse tensors under row-separable constraints and regularizations
// (non-negativity, ℓ₁ sparsity, ℓ₂ ridge, row simplex, boxes, ℓ₂ balls),
// using the AO-ADMM framework of Huang, Sidiropoulos & Liavas with the
// paper's two accelerations:
//
//   - blocked ADMM — per-block independent inner convergence with dynamic
//     block scheduling, eliminating inner-iteration synchronization and
//     creating cache locality;
//   - dynamic factor sparsity — CSR or hybrid dense+CSR (CSR-H) images of
//     factors that go sparse during the factorization, accelerating MTTKRP.
//
// # Quick start
//
//	x, _ := aoadmm.Dataset("amazon", aoadmm.ScaleSmall)
//	res, err := aoadmm.Factorize(x, aoadmm.Options{
//		Rank:        16,
//		Constraints: []aoadmm.Constraint{aoadmm.NonNegative()},
//	})
//	fmt.Println(res.RelErr, res.OuterIters)
//
// See the examples/ directory for complete programs and cmd/paperbench for
// the harness that regenerates every table and figure of the paper.
package aoadmm

import (
	"aoadmm/internal/autoselect"
	"aoadmm/internal/core"
	"aoadmm/internal/datasets"
	"aoadmm/internal/eval"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/obs"
	"aoadmm/internal/ooc"
	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
	"aoadmm/internal/stream"
	"aoadmm/internal/tensor"
)

// TracePoint is one outer-iteration sample of a convergence trace, as
// delivered to Options.OnIteration and recorded in Result.Trace.
type TracePoint = stats.TracePoint

// Trace is a convergence trajectory: relative error versus outer iteration
// and wall time.
type Trace = stats.Trace

// Tensor is a sparse tensor in coordinate form. Construct one with
// NewTensor, LoadTensor, Generate* helpers, or Dataset.
type Tensor = tensor.COO

// GenOptions configures the synthetic tensor generators.
type GenOptions = tensor.GenOptions

// Constraint is a row-separable proximity operator applied to one factor.
type Constraint = prox.Operator

// Options configures Factorize. The zero value plus a positive Rank runs an
// unconstrained blocked AO-ADMM with the paper's defaults (ε=0.01 inner
// tolerance, 50-row blocks, 200 outer iterations, 1e-6 improvement
// threshold, 20% sparsity threshold).
type Options = core.Options

// Result reports a completed factorization: the Kruskal factors, relative
// error, iteration counts, kernel-time breakdown, and convergence trace.
type Result = core.Result

// Metrics is the fine-grained observability record every solve collects
// into Result.Metrics: per-mode kernel timers, per-block ADMM
// inner-iteration histogram, per-thread scheduler telemetry, and the
// factor-density timeline. A nil *Metrics is safe to use; every method is a
// no-op.
type Metrics = stats.Metrics

// MetricsReport is the JSON-serializable snapshot produced by
// Metrics.Report, schema "aoadmm-metrics/v1".
type MetricsReport = stats.Report

// Tracer is a low-overhead span recorder. Assign one to Options.Tracer (or
// the ALS/HALS equivalent) to record outer-iteration, kernel, scheduler, and
// out-of-core spans into per-thread ring buffers, then export them as a
// Chrome trace_event file with WriteChromeFile. A nil *Tracer is safe
// everywhere; every method is a no-op.
type Tracer = obs.Tracer

// NewTracer creates a tracer sized for the given worker count (<= 0 means
// GOMAXPROCS) with the default per-shard ring capacity. Pass the same thread
// count as Options.Threads so worker spans land on dedicated shards.
func NewTracer(threads int) *Tracer { return obs.New(threads) }

// ALSOptions configures FactorizeALS.
type ALSOptions = core.ALSOptions

// KruskalTensor is the factored form: one factor matrix per mode plus
// optional component weights.
type KruskalTensor = kruskal.Tensor

// Variant selects the inner ADMM formulation.
type Variant = core.Variant

// Inner ADMM variants.
const (
	// Blocked is the paper's accelerated blockwise ADMM (§IV-B); default.
	Blocked = core.Blocked
	// Baseline is kernel-parallel ADMM with a global convergence criterion.
	Baseline = core.Baseline
)

// Structure selects the compressed leaf-factor representation for MTTKRP.
type Structure = core.Structure

// MTTKRP factor structures (Table II).
const (
	// StructDense disables factor compression.
	StructDense = core.StructDense
	// StructCSR compresses sparse factors to CSR.
	StructCSR = core.StructCSR
	// StructHybrid compresses sparse factors to the hybrid dense+CSR form.
	StructHybrid = core.StructHybrid
)

// Kernel backend format names accepted by Options.KernelFormat (and the
// ALS/HALS equivalents). Names outside this set resolve through the backend
// registry — see KernelBackends and ApplyKernelBackend.
const (
	// FormatCSF selects per-mode compressed sparse fiber trees (default).
	FormatCSF = core.FormatCSF
	// FormatALTO selects the adaptive linearized tensor format: one
	// bit-interleaved representation serving every mode's MTTKRP.
	FormatALTO = core.FormatALTO
	// FormatAuto picks CSF or ALTO per tensor from a structural cost model.
	FormatAuto = core.FormatAuto
)

// KernelBackends lists the registered MTTKRP kernel backends, sorted:
// the natives ("csf", "alto", "auto") plus registry extensions such as
// "probe" (measured per-mode selection).
func KernelBackends() []string { return autoselect.Backends() }

// ApplyKernelBackend resolves a backend name through the registry onto opts:
// native names set Options.KernelFormat, registered builders set
// Options.EngineBuilder. Unknown names return an error listing the
// registered set; the empty name is the default and leaves opts untouched.
func ApplyKernelBackend(opts *Options, name string) error {
	return autoselect.Apply(opts, name)
}

// Scale selects a built-in dataset proxy's size.
type Scale = datasets.Scale

// Dataset proxy scales.
const (
	// ScaleSmall is sized for tests (tens of thousands of non-zeros).
	ScaleSmall = datasets.Small
	// ScaleMedium is sized for benchmarks (hundreds of thousands).
	ScaleMedium = datasets.Medium
	// ScaleLarge is the largest built-in size (millions of non-zeros).
	ScaleLarge = datasets.Large
)

// Factorize computes a constrained CPD of x with AO-ADMM (Algorithm 2 of
// the paper).
func Factorize(x *Tensor, opts Options) (*Result, error) {
	return core.Factorize(x, opts)
}

// FactorizeALS computes an unconstrained CPD with alternating least squares,
// the classical baseline.
func FactorizeALS(x *Tensor, opts ALSOptions) (*Result, error) {
	return core.FactorizeALS(x, opts)
}

// HALSOptions configures FactorizeHALS.
type HALSOptions = core.HALSOptions

// FactorizeHALS computes a non-negative CPD with hierarchical alternating
// least squares (Cichocki & Phan), the classical fast local baseline for
// non-negative factorizations. It shares the MTTKRP/Gram substrate with
// AO-ADMM, making convergence-per-work comparisons direct.
func FactorizeHALS(x *Tensor, opts HALSOptions) (*Result, error) {
	return core.FactorizeHALS(x, opts)
}

// ShardedTensor is an on-disk sharded tensor (".aoshard" directory): a
// verified header plus mode-0-range-partitioned, individually-CRC'd shards,
// consumed one shard at a time by the out-of-core solvers.
type ShardedTensor = ooc.ShardedTensor

// ShardConvertOptions configures tensor-to-shard conversion (memory budget,
// shard size target, external-sort scratch directory).
type ShardConvertOptions = ooc.ConvertOptions

// OOCReport summarizes an out-of-core run's shard I/O, prefetch pipeline
// health, and memory-admission accounting (Result.OOC; the "ooc" section of
// aoadmm-metrics/v1).
type OOCReport = stats.OOCReport

// AdmissionDecision is the memory-admission layer's verdict: whether a
// tensor of a given shape should run in memory or out of core under a
// byte budget.
type AdmissionDecision = ooc.Decision

// DecideAdmission applies the admission rule: out-of-core exactly when a
// positive budget is below the estimated in-memory footprint of the solvers
// (COO + sort clone + per-mode CSF trees).
func DecideAdmission(order int, nnz, budgetBytes int64) AdmissionDecision {
	return ooc.Decide(order, nnz, budgetBytes)
}

// EstimateInMemoryBytes bounds the in-memory solvers' peak tensor-side
// footprint for a tensor of the given shape — the estimate DecideAdmission
// compares against the budget.
func EstimateInMemoryBytes(order int, nnz int64) int64 {
	return ooc.InMemoryBytes(order, nnz)
}

// OpenSharded opens and verifies a shard directory written by
// ConvertToShards or ConvertTensorToShards.
func OpenSharded(dir string) (*ShardedTensor, error) { return ooc.Open(dir) }

// IsShardDir reports whether path looks like a shard directory.
func IsShardDir(path string) bool { return ooc.IsShardDir(path) }

// StreamInfo is a read-only summary of a streaming lineage directory — the
// delta journal and materialized generations behind a live served model
// (docs/STREAMING.md).
type StreamInfo = stream.Info

// IsStreamDir reports whether path is a streaming lineage directory (as
// written under the daemon's <data>/stream/).
func IsStreamDir(path string) bool { return stream.IsStreamDir(path) }

// ReadStreamInfo summarizes a streaming lineage directory without opening it
// for writes: applied/pending delta batches, decay, journal size, and the
// materialized generations present on disk.
func ReadStreamInfo(path string) (*StreamInfo, error) { return stream.ReadInfo(path) }

// ConvertToShards streams a ".tns" or ".aotn" file of arbitrary size into a
// sorted shard directory via external merge sort, never holding more than
// the configured memory budget of records in RAM.
func ConvertToShards(path, outDir string, opts ShardConvertOptions) (*ShardedTensor, error) {
	return ooc.ConvertFile(path, outDir, opts)
}

// ConvertTensorToShards shards an in-memory tensor (generator output,
// datasets) into outDir.
func ConvertTensorToShards(x *Tensor, outDir string, opts ShardConvertOptions) (*ShardedTensor, error) {
	return ooc.ConvertCOO(x, outDir, opts)
}

// FactorizeOOC runs constrained AO-ADMM on a sharded on-disk tensor,
// streaming shards through the same outer loop as Factorize (one shard
// resident per MTTKRP plus one prefetched ahead). Final iterates match
// Factorize on the same seed up to floating-point summation order.
func FactorizeOOC(st *ShardedTensor, opts Options) (*Result, error) {
	return core.FactorizeOOC(st, opts)
}

// FactorizeALSOOC runs the unconstrained ALS baseline on a sharded on-disk
// tensor.
func FactorizeALSOOC(st *ShardedTensor, opts ALSOptions) (*Result, error) {
	return core.FactorizeALSOOC(st, opts)
}

// NewTensor allocates an empty sparse tensor with the given mode lengths.
func NewTensor(dims []int, capacityNNZ int) *Tensor {
	return tensor.NewCOO(dims, capacityNNZ)
}

// LoadTensor reads a FROSTT-style ".tns" text file (1-based indices, one
// non-zero per line).
func LoadTensor(path string) (*Tensor, error) { return tensor.LoadTNSFile(path) }

// SaveTensor writes a tensor in FROSTT ".tns" format.
func SaveTensor(path string, x *Tensor) error { return tensor.SaveTNSFile(path, x) }

// GenerateUniform samples a random sparse tensor (optionally Zipf-skewed
// per mode) with values in (0, 1].
func GenerateUniform(opts GenOptions) (*Tensor, error) { return tensor.Uniform(opts) }

// GeneratePlanted samples a sparse tensor from a planted non-negative
// low-rank model plus noise; the planted factors are returned for recovery
// experiments.
func GeneratePlanted(opts GenOptions) (*Tensor, [][]float64, error) {
	return tensor.PlantedLowRank(opts)
}

// LoadTensorBinary reads the compact AOTN binary tensor format written by
// SaveTensorBinary — an order of magnitude faster than the text format for
// large tensors.
func LoadTensorBinary(path string) (*Tensor, error) { return tensor.LoadBinaryFile(path) }

// SaveTensorBinary writes the tensor in the AOTN binary format.
func SaveTensorBinary(path string, x *Tensor) error { return tensor.SaveBinaryFile(path, x) }

// MultiStart runs Factorize once per seed and returns the best result (the
// lowest relative error) together with the winning seed. CPD is non-convex;
// random restarts are the standard defense against bad local minima.
func MultiStart(x *Tensor, opts Options, seeds []int64) (*Result, int64, error) {
	return core.MultiStart(x, opts, seeds)
}

// PathPoint is one step of an l1 regularization path: weight, error,
// densities, iterations.
type PathPoint = core.PathPoint

// LambdaPath fits non-negative l1-regularized factorizations across the
// given weights with warm starts (largest weight first), returning density
// and error per weight — the practitioner's tool for choosing the sparsity
// level in Table II style studies.
func LambdaPath(x *Tensor, opts Options, lambdas []float64) ([]PathPoint, error) {
	return core.LambdaPath(x, opts, lambdas)
}

// NewKruskal allocates a zero Kruskal tensor of the given shape — useful as
// the trivial comparison model in held-out evaluation.
func NewKruskal(dims []int, rank int) *KruskalTensor { return kruskal.New(dims, rank) }

// SaveFactors writes a factorization's Kruskal factors under dir as
// mode<N>.txt text matrices (plus lambda.txt when weights are present).
func SaveFactors(dir string, k *KruskalTensor) error { return k.Save(dir) }

// LoadFactors reads factors previously written by SaveFactors.
func LoadFactors(dir string) (*KruskalTensor, error) { return kruskal.Load(dir) }

// FactorMatchScore compares two Kruskal tensors: 1.0 means identical up to
// component permutation and per-mode scaling. The standard recovery metric
// for planted-factor experiments.
func FactorMatchScore(a, b *KruskalTensor) (float64, error) { return kruskal.FMS(a, b) }

// Match is one scored row from a top-K completion query.
type Match = kruskal.Match

// CompletionQuery describes a top-K completion: fix one row in each anchor
// mode and rank every row of the target mode by reconstructed value.
type CompletionQuery = kruskal.Query

// TopKQuery ranks the target mode's rows against the query's anchor rows and
// returns the K best matches, highest score first. This is the query kernel
// behind cmd/aoadmmd's /models/{id}/topk endpoint.
func TopKQuery(model *KruskalTensor, q CompletionQuery) ([]Match, error) { return model.TopK(q) }

// RowIndex is a k-means cluster index over one mode's factor rows. Attaching
// it to a CompletionQuery lets TopKQuery prune whole clusters by score upper
// bound while returning exactly the matches a full scan would.
type RowIndex = kruskal.RowIndex

// IndexStats reports how an indexed query spent its work: clusters scanned
// vs pruned, rows scored, and whether the index fell back to a full scan.
type IndexStats = kruskal.IndexStats

// BuildRowIndex clusters the rows of the model's given mode for indexed
// top-K queries. clusters <= 0 picks sqrt(rows); threads <= 0 uses
// GOMAXPROCS. The build is deterministic: no RNG, and identical results at
// any thread count.
func BuildRowIndex(model *KruskalTensor, mode, clusters, threads int) (*RowIndex, error) {
	return model.BuildIndex(mode, clusters, threads)
}

// TopKQueryBatch answers several completion queries that share a target mode
// in one pass over the target factor, loading each row once and scoring it
// for every query. Results are identical to running TopKQuery per query.
func TopKQueryBatch(model *KruskalTensor, qs []CompletionQuery) ([][]Match, error) {
	return model.TopKBatch(qs)
}

// FoldInObservation is one observed tensor entry for a fold-in solve: full
// coordinates in every mode except the fold mode, plus the observed value.
type FoldInObservation = kruskal.FoldInObservation

// FoldInOptions configures a fold-in solve: the fold mode, the proximal
// operator enforcing the model's constraint on the new row, and the ADMM
// stopping rule.
type FoldInOptions = kruskal.FoldInOptions

// FoldInResult carries the solved factor row and ADMM convergence info.
type FoldInResult = kruskal.FoldInResult

// FoldIn estimates a new factor row for an unseen entity from its observed
// entries, holding every fitted factor frozen — the AO-ADMM row subproblem
// solved once against the trained model. The returned row plugs into
// CompletionQuery.Weights (after scaling by the model's lambda, see
// (*KruskalTensor).RecommendWeights) to rank completions for the new entity.
func FoldIn(model *KruskalTensor, obs []FoldInObservation, opt FoldInOptions) (*FoldInResult, error) {
	return model.FoldIn(obs, opt)
}

// HoldoutMetrics summarizes a model's accuracy on held-out entries.
type HoldoutMetrics = eval.Metrics

// SplitTensor partitions the tensor's non-zeros into train and test sets
// (each entry lands in test with probability testFrac; deterministic per
// seed), the standard protocol for recommender-style evaluation.
func SplitTensor(x *Tensor, testFrac float64, seed int64) (train, test *Tensor, err error) {
	return eval.Split(x, testFrac, seed)
}

// EvaluateHoldout scores a fitted model on held-out entries (RMSE / MAE).
func EvaluateHoldout(model *KruskalTensor, test *Tensor) (HoldoutMetrics, error) {
	return eval.Holdout(model, test)
}

// Dataset generates one of the built-in proxies of the paper's datasets:
// "reddit", "nell", "amazon", or "patents".
func Dataset(name string, scale Scale) (*Tensor, error) {
	return datasets.Generate(name, scale)
}

// DatasetNames lists the built-in dataset proxies.
func DatasetNames() []string { return datasets.Names() }

// NonNegative returns the non-negativity constraint (project to the
// non-negative orthant).
func NonNegative() Constraint { return prox.NonNegative{} }

// L1 returns the sparsity-inducing regularizer λ‖·‖₁ (soft threshold).
func L1(lambda float64) Constraint { return prox.L1{Lambda: lambda} }

// NonNegativeL1 combines non-negativity with ℓ₁ regularization (one-sided
// soft threshold), the natural route to sparse non-negative factors.
func NonNegativeL1(lambda float64) Constraint { return prox.NonNegL1{Lambda: lambda} }

// L2 returns ridge regularization (λ/2)‖·‖₂².
func L2(lambda float64) Constraint { return prox.L2{Lambda: lambda} }

// Simplex returns the row-simplex constraint {h ≥ 0, Σh = radius}; radius
// <= 0 means 1.
func Simplex(radius float64) Constraint { return prox.Simplex{Radius: radius} }

// Box returns the box constraint clamping entries to [lo, hi].
func Box(lo, hi float64) Constraint { return prox.Box{Lo: lo, Hi: hi} }

// Unconstrained returns the identity operator (no constraint).
func Unconstrained() Constraint { return prox.Unconstrained{} }

// ParseConstraint builds a constraint from a CLI-style spec such as
// "nonneg", "l1:0.1", "nonneg+l1:0.1", "simplex", or "box:0,1".
func ParseConstraint(spec string) (Constraint, error) { return prox.Parse(spec) }

// AutoStructureSelector returns an Options.StructureSelector backed by the
// analytical cost model of the paper's §VI future work: it picks DENSE,
// CSR, or CSR-H per MTTKRP call from the factor's current sparsity profile
// and the mode's length. Assign it together with ExploitSparsity:
//
//	opts.ExploitSparsity = true
//	opts.StructureSelector = aoadmm.AutoStructureSelector()
func AutoStructureSelector() func(leafRows, rank int, accesses int64, density, denseColumnShare float64) Structure {
	m := autoselect.DefaultModel()
	return func(leafRows, rank int, accesses int64, density, denseColumnShare float64) Structure {
		return m.Choose(autoselect.Profile{
			Rank:             rank,
			ModeLength:       leafRows,
			Accesses:         accesses,
			Density:          density,
			DenseColumnShare: denseColumnShare,
		})
	}
}
