package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"aoadmm/internal/admm"
	"aoadmm/internal/dense"
	"aoadmm/internal/faults"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/obs"
	"aoadmm/internal/par"
	"aoadmm/internal/stats"
)

// Problem is what the driver needs to know about the data tensor without
// holding it: its shape, its squared norm, and how to build the Engine that
// stands in for it. Build may fail — an ALTO compile of a tensor too large
// to linearize, an unknown format name, or a worker lost while placing
// shards.
type Problem struct {
	Dims   []int
	NormSq float64
	Build  func() (Engine, error)
}

// Step is the per-mode update of Algorithm 2 (lines 6/10/14): given mode
// m's MTTKRP K and Gram product G, overwrite the mode's factor. The driver
// times it in the ADMM phase of the breakdown.
type Step struct {
	// Kernel names the update in the kernel table, the trace and the pprof
	// "kernel" label.
	Kernel stats.Kernel
	// Duals makes the driver carry one dual matrix per mode: restored from
	// Options.InitDuals (else zero), handed to Update, checkpointed, and
	// returned in Result.Duals.
	Duals bool
	// Update overwrites u.Factor (and u.Dual when Duals is set). Its
	// admm.Stats feed Result.InnerIters and Result.RowIters.
	Update func(u ModeUpdate) (admm.Stats, error)
}

// ModeUpdate is one call of Step.Update.
type ModeUpdate struct {
	Mode         int
	Factor, Dual *dense.Matrix
	K, G         *dense.Matrix
	// Telem and Metrics are the run's scheduler telemetry and metrics
	// sinks.
	Telem   *par.Telemetry
	Metrics *stats.Metrics
}

// Drive is the one AO outer loop (Algorithm 2). Per outer iteration and
// mode it forms G = ∗_{n≠m} AₙᵀAₙ, takes K from the engine, lets the step
// update the factor, and refreshes the factor's Gram; after the sweep it
// computes the relative error from the last mode's K (§V-A, no extra
// tensor pass), checkpoints, and stops once |Δerr| < Tol. Tol <= 0 never
// stops early, so callers fill their own defaults first (the core entry
// points: 200 iterations and 1e-6).
//
// Drive reads the loop fields of Options: Rank, MaxOuterIters, Tol,
// Threads, Seed, the warm-restart fields (InitFactors, InitDuals,
// DualScale, StartIter, PrevRelErr), MaxTime, Ctx, OnIteration, the
// checkpoint fields, Faults, Tracer, and the §IV-C leaf-factor fields
// (ExploitSparsity, Structure, SparseThreshold, StructureSelector). Every
// run collects Result.Metrics; Result.Breakdown is derived from its
// top-level kernel rows. An engine or step error ends the run with that
// error and a result holding the metrics gathered so far, unless Ctx is
// done by then: a cancellation that aborts a sweep is a stop, and the
// result holds the partly swept factors with OuterIters and RelErr of the
// last completed iteration.
func Drive(p Problem, step Step, opts Options) (*Result, error) {
	order := len(p.Dims)
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("core: Rank must be positive, got %d", opts.Rank)
	}
	if opts.DualScale < 0 || opts.DualScale > 1 {
		return nil, fmt.Errorf("core: DualScale must be in (0, 1], got %g", opts.DualScale)
	}

	tr := opts.Tracer
	met := stats.NewMetrics()
	// Telemetry is also the tracer's carrier into the fork-join regions.
	tel := par.NewTelemetry(par.Threads(opts.Threads))
	tel.SetTracer(tr)
	start := time.Now()

	var eng Engine
	var buildErr error
	timedKernel(tr, met, stats.KernelCSFSetup, stats.ModeNone, func() {
		eng, buildErr = p.Build()
	})
	if buildErr != nil {
		return nil, buildErr
	}

	var model *kruskal.Tensor
	if opts.InitFactors != nil {
		if err := checkInitShape(opts.InitFactors, p.Dims, opts.Rank); err != nil {
			return nil, err
		}
		model = opts.InitFactors.Clone()
	} else {
		model = RandomModel(p.Dims, opts.Rank, opts.Seed, p.NormSq, opts.Threads)
	}
	var duals []*dense.Matrix
	if step.Duals {
		if opts.InitDuals != nil {
			if err := checkInitDuals(opts.InitDuals, p.Dims, opts.Rank); err != nil {
				return nil, err
			}
		}
		duals = make([]*dense.Matrix, order)
		for m := range duals {
			if opts.InitDuals == nil {
				duals[m] = dense.New(p.Dims[m], opts.Rank)
				continue
			}
			duals[m] = opts.InitDuals[m].Clone()
			if opts.DualScale > 0 && opts.DualScale != 1 {
				dense.Scale(duals[m], opts.DualScale)
			}
		}
	}
	grams := make([]*dense.Matrix, order)
	for m := range grams {
		grams[m] = dense.Gram(model.Factors[m], opts.Threads)
	}
	versions := make([]int, order)
	images := make([]sparseImage, order)
	kmat := dense.New(maxDim(p.Dims), opts.Rank)

	if opts.StartIter < 0 {
		opts.StartIter = 0
	}
	res := &Result{
		Factors:    model,
		Duals:      duals,
		Metrics:    met,
		Trace:      &stats.Trace{},
		RelErr:     1,
		OuterIters: opts.StartIter,
	}
	prevErr := math.Inf(1)
	if opts.PrevRelErr > 0 {
		res.RelErr = opts.PrevRelErr
		prevErr = opts.PrevRelErr
	}

	// sweep runs one outer iteration's mode updates and returns the last
	// mode's K, from which the fit follows.
	sweep := func(outer int) (lastK *dense.Matrix, lastMode, inner int, err error) {
		for m := 0; m < order; m++ {
			var g *dense.Matrix
			timedKernel(tr, met, stats.KernelGramProduct, m, func() {
				g = gramProduct(grams, m)
			})

			// The leaf factor may be in a compressed structure. Image
			// construction is charged to the MTTKRP phase: it exists only to
			// serve this kernel, and the paper's Table II times include the
			// conversion overhead.
			k := kmat.RowBlock(0, p.Dims[m])
			timedKernel(tr, met, stats.KernelMTTKRP, m, func() {
				withKernelLabels("mttkrp", m, func() {
					leaf := leafFor(opts, eng.LeafTree(m), model, versions, images, res)
					err = eng.MTTKRP(m, model.Factors, k, leaf,
						mttkrp.Options{Threads: opts.Threads, Telem: tel})
				})
			})
			if err != nil {
				return nil, 0, 0, fmt.Errorf("core: mode %d outer %d: %w", m, outer, err)
			}

			u := ModeUpdate{Mode: m, Factor: model.Factors[m], K: k, G: g, Telem: tel, Metrics: met}
			if duals != nil {
				u.Dual = duals[m]
			}
			var st admm.Stats
			timedKernel(tr, met, step.Kernel, m, func() {
				withKernelLabels(string(step.Kernel), m, func() { st, err = step.Update(u) })
			})
			if err != nil {
				return nil, 0, 0, fmt.Errorf("core: mode %d outer %d: %w", m, outer, err)
			}
			versions[m]++
			inner += st.Iterations
			res.RowIters += st.RowIterations

			timedKernel(tr, met, stats.KernelGram, m, func() {
				grams[m] = dense.Gram(model.Factors[m], opts.Threads)
			})
			lastK, lastMode = k, m
		}
		return lastK, lastMode, inner, nil
	}

	for outer := opts.StartIter + 1; outer <= opts.MaxOuterIters; outer++ {
		if stopRequested(opts.Ctx) {
			res.Stopped = true
			break
		}
		iterStart := time.Now()
		lastK, lastMode, iterInner, err := sweep(outer)
		if err != nil {
			if stopRequested(opts.Ctx) {
				res.Stopped = true
				break
			}
			res.Breakdown = met.Breakdown()
			return res, err
		}
		res.OuterIters = outer
		res.InnerIters += iterInner

		var relErr float64
		timedKernel(tr, met, stats.KernelFit, stats.ModeNone, func() {
			inner := kruskal.InnerWithMTTKRP(lastK, model.Factors[lastMode])
			relErr = kruskal.RelErr(p.NormSq, inner, kruskal.NormSqFromGrams(grams))
		})
		res.RelErr = relErr

		// Factor-sparsity timeline: density per mode after this outer
		// iteration, plus the structure of the mode's current MTTKRP image
		// (DENSE when no compressed image is live).
		for m := 0; m < order; m++ {
			met.RecordDensity(outer, m, dense.Density(model.Factors[m], 0),
				structureLabel(images[m].leaf))
		}

		point := stats.TracePoint{
			Iteration:  outer,
			Elapsed:    time.Since(start),
			RelErr:     relErr,
			InnerIters: iterInner,
		}
		res.Trace.Append(point)
		tr.Emit("outer", "outer_iter", stats.ModeNone, obs.TIDDriver, int64(outer), iterStart, time.Since(iterStart))
		if opts.CheckpointDir != "" {
			every := opts.CheckpointEvery
			if every <= 0 {
				every = 10
			}
			if outer%every == 0 {
				res.CheckpointErr = saveCheckpoint(opts, model, duals, outer, relErr)
			}
		}
		if opts.OnIteration != nil && !opts.OnIteration(point) {
			break
		}
		if opts.Tol > 0 && math.Abs(prevErr-relErr) < opts.Tol {
			res.Converged = true
			break
		}
		prevErr = relErr
		if opts.MaxTime > 0 && time.Since(start) > opts.MaxTime {
			break
		}
	}

	res.FactorDensities = make([]float64, order)
	for m := 0; m < order; m++ {
		res.FactorDensities[m] = dense.Density(model.Factors[m], 0)
	}
	for t := 0; t < tel.NumThreads(); t++ {
		s := tel.Stat(t)
		met.RecordSchedulerThread(t, s.Chunks, s.Busy)
	}
	res.Breakdown = met.Breakdown()
	res.KernelBackends = backendNames(eng, order)
	met.SetBackends(res.KernelBackends)
	if r := eng.OOCReport(); r != nil {
		res.OOC = r
		met.SetOOC(r)
	}
	return res, nil
}

// saveCheckpoint writes the current iterate (factors, duals, iteration and
// fit meta) atomically under Options.CheckpointDir.
func saveCheckpoint(opts Options, model *kruskal.Tensor, duals []*dense.Matrix, outer int, relErr float64) error {
	if err := opts.Faults.Fire(faults.CheckpointSave); err != nil {
		return fmt.Errorf("checkpoint %s at iteration %d: %w", opts.CheckpointDir, outer, err)
	}
	return kruskal.SaveCheckpointAtomic(opts.CheckpointDir, kruskal.Checkpoint{
		Factors: model,
		Duals:   duals,
		Meta: &kruskal.CheckpointMeta{
			Iteration: outer, RelErr: relErr,
			JobID: opts.CheckpointJobID, Attempt: opts.CheckpointAttempt,
			SavedUnixNano: time.Now().UnixNano(),
		},
	})
}

// stopRequested reports whether the optional cancellation context is done.
// A nil context never stops the run, so the library path stays allocation-
// and syscall-free when no service is driving it.
func stopRequested(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
