package stats

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Kernel labels the fine-grained phases of the metrics layer. Unlike the
// four-bucket Breakdown (the paper's Fig. 3 granularity), kernels are keyed
// per mode, so the per-mode cost asymmetry of power-law tensors is visible.
type Kernel string

// Kernels of the factorization.
const (
	// KernelCSFSetup is one-time CSF tree construction.
	KernelCSFSetup Kernel = "csf_setup"
	// KernelMTTKRP is the sparse MTTKRP, including sparse-factor image
	// construction (charged here because the image exists only to serve this
	// kernel, matching Table II's accounting).
	KernelMTTKRP Kernel = "mttkrp"
	// KernelGramProduct is the Hadamard product of the other modes' Grams,
	// G = ∗_{n≠m} AₙᵀAₙ, formed before each mode update.
	KernelGramProduct Kernel = "gram_product"
	// KernelGram is the refresh of a mode's Gram AₘᵀAₘ after its update.
	KernelGram Kernel = "gram"
	// KernelCholesky is (G + rho*I) factorization. Under admm_inner it is the
	// shared per-solve factorization plus any adaptive-rho refactorizations;
	// without a parent it is ALS's whole normal-equations mode update.
	KernelCholesky Kernel = "cholesky"
	// KernelADMMInner is the inner ADMM solve (solve + prox + dual update
	// over all inner iterations).
	KernelADMMInner Kernel = "admm_inner"
	// KernelProx is the proximal-operator application inside the inner loop,
	// summed across worker threads and estimated from sampled row strips.
	KernelProx Kernel = "prox"
	// KernelHALSUpdate is the HALS column-update sweep (the HALS driver's
	// analogue of the inner solve).
	KernelHALSUpdate Kernel = "hals_update"
	// KernelFit is the relative-error evaluation.
	KernelFit Kernel = "fit"
)

// Phase is the Fig. 3 bucket a top-level (parent-less) kernel row is
// charged to: mode updates (the inner solve, HALS's sweep, ALS's Cholesky
// solve) are ADMM, tree construction is SETUP, and Grams and the fit are
// OTHER.
func (k Kernel) Phase() Phase {
	switch k {
	case KernelCSFSetup:
		return PhaseSetup
	case KernelMTTKRP:
		return PhaseMTTKRP
	case KernelADMMInner, KernelHALSUpdate, KernelCholesky:
		return PhaseADMM
	default:
		return PhaseOther
	}
}

// Units of a kernel row's seconds.
const (
	// UnitWall marks wall-clock seconds: the driver's top-level kernels.
	UnitWall = "wall_s"
	// UnitCPU marks CPU seconds summed across worker threads: the rows
	// nested under a parent kernel, which on p threads can reach p times
	// the parent's wall time.
	UnitCPU = "cpu_s"
)

// ModeNone keys kernel timings not attributable to a single mode.
const ModeNone = -1

// MetricsSchema identifies the JSON layout written by Metrics.WriteJSON.
const MetricsSchema = "aoadmm-metrics/v1"

type kernelKey struct {
	kernel Kernel
	mode   int
	parent Kernel
}

type kernelAgg struct {
	dur   time.Duration
	calls int64
}

// Metrics is the run-level observability object, collected on every solve:
// per-kernel-per-mode times, per-block ADMM convergence counters, scheduler
// load telemetry, and the factor-sparsity timeline. Every method is a no-op
// on a nil *Metrics, and Report returns an empty skeleton.
//
// Methods are safe for concurrent use, but the intended pattern is coarser:
// hot parallel regions shard their counters per thread (see par.Telemetry
// and admm.Timing) and merge into Metrics once, at the fork-join barrier.
type Metrics struct {
	mu             sync.Mutex
	kernels        map[kernelKey]*kernelAgg
	hist           map[int]int64
	solves         int64
	blocks         int64
	rhoAdaptations int64
	threads        map[int]ThreadSample
	sparsity       []DensitySample
	ooc            *OOCReport
	backends       []string
}

// NewMetrics returns an empty, enabled metrics collector.
func NewMetrics() *Metrics {
	return &Metrics{
		kernels: make(map[kernelKey]*kernelAgg),
		hist:    make(map[int]int64),
		threads: make(map[int]ThreadSample),
	}
}

// AddKernel accumulates the wall time d into top-level kernel k for the
// given mode (ModeNone for modeless phases) and counts one call.
func (m *Metrics) AddKernel(k Kernel, mode int, d time.Duration) {
	m.addKernel(kernelKey{k, mode, ""}, d, 1)
}

// AddSubKernel accumulates the thread-summed CPU time d into kernel k nested
// under kernel parent of the same mode, and counts one call.
func (m *Metrics) AddSubKernel(parent, k Kernel, mode int, d time.Duration) {
	m.addKernel(kernelKey{k, mode, parent}, d, 1)
}

func (m *Metrics) addKernel(key kernelKey, d time.Duration, calls int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	agg := m.kernels[key]
	if agg == nil {
		agg = &kernelAgg{}
		m.kernels[key] = agg
	}
	agg.dur += d
	agg.calls += calls
	m.mu.Unlock()
}

// Merge adds other's accumulations into m: kernel rows and ADMM counters
// sum, scheduler threads merge by tid, the sparsity timeline appends, and
// other's OOC report and backends win when set. other is snapshotted first,
// so concurrent a.Merge(b) / b.Merge(a) cannot deadlock.
func (m *Metrics) Merge(other *Metrics) {
	if m == nil || other == nil {
		return
	}
	rep := other.Report()
	for _, kt := range rep.Kernels {
		m.addKernel(kernelKey{Kernel(kt.Kernel), kt.Mode, Kernel(kt.Parent)}, kt.Duration, kt.Calls)
	}
	for _, t := range rep.Scheduler.Threads {
		m.RecordSchedulerThread(t.TID, t.Chunks, time.Duration(t.BusySeconds*float64(time.Second)))
	}
	m.SetOOC(rep.OOC)
	m.SetBackends(rep.Backends)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solves += rep.ADMM.Solves
	m.blocks += rep.ADMM.Blocks
	m.rhoAdaptations += rep.ADMM.RhoAdaptations
	for its, n := range rep.ADMM.InnerIterHistogram {
		it, _ := strconv.Atoi(its)
		m.hist[it] += n
	}
	m.sparsity = append(m.sparsity, rep.Sparsity...)
}

// Breakdown derives the Fig. 3 phase split from the top-level kernel rows:
// each parent-less row's wall time is charged to its kernel's Phase. Nested
// rows are thread-summed parts of their parent and are not counted again.
func (m *Metrics) Breakdown() *Breakdown {
	bd := NewBreakdown()
	for _, kt := range m.Report().Kernels {
		if kt.Parent == "" {
			bd.Add(Kernel(kt.Kernel).Phase(), kt.Duration)
		}
	}
	return bd
}

// RecordADMMSolve folds one inner solve's per-block iteration counts into
// the cross-run histogram and accumulates the rho-adaptation count.
func (m *Metrics) RecordADMMSolve(blockIters []int, rhoAdaptations int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.solves++
	m.blocks += int64(len(blockIters))
	m.rhoAdaptations += rhoAdaptations
	for _, it := range blockIters {
		m.hist[it]++
	}
	m.mu.Unlock()
}

// RecordSchedulerThread accumulates one worker's scheduler counters (chunks
// claimed and busy time), merging by tid across calls.
func (m *Metrics) RecordSchedulerThread(tid int, chunks int64, busy time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	s := m.threads[tid]
	s.TID = tid
	s.Chunks += chunks
	s.BusySeconds += busy.Seconds()
	m.threads[tid] = s
	m.mu.Unlock()
}

// RecordDensity appends one factor-sparsity timeline sample: mode's factor
// density and the MTTKRP structure its image currently uses, after outer
// iteration `outer`.
func (m *Metrics) RecordDensity(outer, mode int, density float64, structure string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.sparsity = append(m.sparsity, DensitySample{
		Outer: outer, Mode: mode, Density: density, Structure: structure,
	})
	m.mu.Unlock()
}

// SetOOC attaches an out-of-core execution report to the run's metrics; it
// appears as the "ooc" section of the aoadmm-metrics/v1 report. The last
// call wins (the engine snapshots cumulative counters at run end).
func (m *Metrics) SetOOC(r *OOCReport) {
	if m == nil || r == nil {
		return
	}
	m.mu.Lock()
	m.ooc = r
	m.mu.Unlock()
}

// SetBackends records the per-mode MTTKRP backend names the engine chose
// ("csf", "alto", "ooc-csf", ...); they appear as the "backends" section of
// the aoadmm-metrics/v1 report. The last call wins.
func (m *Metrics) SetBackends(names []string) {
	if m == nil || len(names) == 0 {
		return
	}
	m.mu.Lock()
	m.backends = append([]string(nil), names...)
	m.mu.Unlock()
}

// OOCReport summarizes out-of-core (shard-streaming) execution: shard I/O
// volume, prefetch pipeline health, and the memory-admission accounting that
// chose this path. Present only for runs that streamed shards.
type OOCReport struct {
	// Shards is the shard count of the on-disk tensor.
	Shards int `json:"shards"`
	// ShardLoads counts shard files read and decoded across the run (one
	// full pass over all shards per MTTKRP).
	ShardLoads int64 `json:"shard_loads"`
	// ShardBytesRead is the total shard payload bytes read from disk.
	ShardBytesRead int64 `json:"shard_bytes_read"`
	// PrefetchStalls counts MTTKRP waits on a shard not yet prefetched —
	// the signal that disk I/O, not compute, bounds the pipeline.
	PrefetchStalls int64 `json:"prefetch_stalls"`
	// PrefetchStallSeconds is the total time spent in those waits.
	PrefetchStallSeconds float64 `json:"prefetch_stall_seconds"`
	// PeakTrackedBytes is the high-water mark of tracked resident tensor
	// bytes (loaded shard COOs + the live per-shard CSF tree).
	PeakTrackedBytes int64 `json:"peak_tracked_bytes"`
	// EstimateBytes is the admission estimator's in-memory footprint bound
	// for this tensor; BudgetBytes the configured budget (0 = unlimited).
	EstimateBytes int64 `json:"estimate_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
	// ShardKernels counts resident-shard kernel compilations by format
	// ("csf", "alto") — under format "auto" the per-shard cost model may
	// mix formats within one run.
	ShardKernels map[string]int64 `json:"shard_kernels,omitempty"`
}

// Report is the JSON-serializable snapshot of a Metrics collector
// (schema "aoadmm-metrics/v1"; see docs/TUNING.md for field semantics).
type Report struct {
	// Schema is MetricsSchema.
	Schema string `json:"schema"`
	// Kernels holds per-kernel-per-mode accumulated times, sorted by
	// (kernel, mode, parent). Mode -1 marks phases not attributable to one
	// mode.
	Kernels []KernelTiming `json:"kernels"`
	// ADMM summarizes inner-solver convergence behaviour.
	ADMM ADMMMetrics `json:"admm"`
	// Scheduler reports per-thread dispatch counters and load imbalance.
	Scheduler SchedulerMetrics `json:"scheduler"`
	// Sparsity is the per-outer-iteration factor-density timeline.
	Sparsity []DensitySample `json:"sparsity"`
	// OOC is the out-of-core execution report; omitted for in-memory runs.
	OOC *OOCReport `json:"ooc,omitempty"`
	// Backends names the MTTKRP backend that served each mode (index =
	// mode); omitted for runs recorded before backend selection existed.
	Backends []string `json:"backends,omitempty"`
}

// KernelTiming is one (kernel, mode, parent) accumulator.
type KernelTiming struct {
	Kernel string `json:"kernel"`
	Mode   int    `json:"mode"`
	// Parent names the kernel of the same mode this row is part of; empty
	// for the driver's top-level kernels. Summing only parent-less rows
	// gives the solve's wall time without double counting.
	Parent string `json:"parent"`
	// Unit is UnitWall for top-level rows and UnitCPU for nested ones.
	Unit    string  `json:"unit"`
	Seconds float64 `json:"seconds"`
	Calls   int64   `json:"calls"`
	// Duration is Seconds at full precision, for in-process consumers.
	Duration time.Duration `json:"-"`
}

// ADMMMetrics summarizes inner-solver convergence across a run.
type ADMMMetrics struct {
	// Solves counts inner ADMM solves (one per mode per outer iteration).
	Solves int64 `json:"solves"`
	// Blocks counts row blocks processed across all solves.
	Blocks int64 `json:"blocks"`
	// RhoAdaptations counts per-block penalty rescalings.
	RhoAdaptations int64 `json:"rho_adaptations"`
	// InnerIterHistogram maps inner-iteration count (as a decimal string,
	// for JSON) to the number of blocks that converged in exactly that many
	// iterations.
	InnerIterHistogram map[string]int64 `json:"inner_iter_histogram"`
}

// SchedulerMetrics reports dynamic/static dispatch telemetry.
type SchedulerMetrics struct {
	// Threads holds per-worker counters, sorted by tid.
	Threads []ThreadSample `json:"threads"`
	// ImbalanceRatio is max(busy)/mean(busy) over threads that did work:
	// 1 = perfectly balanced; 0 = no telemetry recorded.
	ImbalanceRatio float64 `json:"imbalance_ratio"`
}

// ThreadSample is one worker's scheduler counters.
type ThreadSample struct {
	TID         int     `json:"tid"`
	Chunks      int64   `json:"chunks"`
	BusySeconds float64 `json:"busy_seconds"`
}

// DensitySample is one point of the factor-sparsity timeline.
type DensitySample struct {
	// Outer is the outer iteration after which the sample was taken (1-based).
	Outer int `json:"outer"`
	// Mode is the factor's mode index.
	Mode int `json:"mode"`
	// Density is the factor's non-zero fraction.
	Density float64 `json:"density"`
	// Structure is the MTTKRP leaf representation of the factor's current
	// image: "DENSE", "CSR", or "CSR-H".
	Structure string `json:"structure"`
}

// Report snapshots the collector into its serializable form. Safe to call
// mid-run; returns an empty skeleton on a nil receiver.
func (m *Metrics) Report() *Report {
	r := &Report{
		Schema: MetricsSchema,
		ADMM:   ADMMMetrics{InnerIterHistogram: map[string]int64{}},
	}
	if m == nil {
		return r
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for key, agg := range m.kernels {
		unit := UnitWall
		if key.parent != "" {
			unit = UnitCPU
		}
		r.Kernels = append(r.Kernels, KernelTiming{
			Kernel:   string(key.kernel),
			Mode:     key.mode,
			Parent:   string(key.parent),
			Unit:     unit,
			Seconds:  agg.dur.Seconds(),
			Calls:    agg.calls,
			Duration: agg.dur,
		})
	}
	sort.Slice(r.Kernels, func(i, j int) bool {
		a, b := r.Kernels[i], r.Kernels[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		return a.Parent < b.Parent
	})
	r.ADMM.Solves = m.solves
	r.ADMM.Blocks = m.blocks
	r.ADMM.RhoAdaptations = m.rhoAdaptations
	for it, n := range m.hist {
		r.ADMM.InnerIterHistogram[strconv.Itoa(it)] = n
	}
	for _, s := range m.threads {
		r.Scheduler.Threads = append(r.Scheduler.Threads, s)
	}
	sort.Slice(r.Scheduler.Threads, func(i, j int) bool {
		return r.Scheduler.Threads[i].TID < r.Scheduler.Threads[j].TID
	})
	r.Scheduler.ImbalanceRatio = imbalance(r.Scheduler.Threads)
	r.Sparsity = append([]DensitySample(nil), m.sparsity...)
	if m.ooc != nil {
		cp := *m.ooc
		r.OOC = &cp
	}
	r.Backends = append([]string(nil), m.backends...)
	return r
}

func imbalance(threads []ThreadSample) float64 {
	var total, maxBusy float64
	active := 0
	for _, s := range threads {
		if s.Chunks == 0 {
			continue
		}
		active++
		total += s.BusySeconds
		if s.BusySeconds > maxBusy {
			maxBusy = s.BusySeconds
		}
	}
	if active == 0 || total == 0 {
		return 0
	}
	return maxBusy / (total / float64(active))
}

// WriteJSON serializes the current snapshot as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Report())
}
