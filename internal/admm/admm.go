// Package admm implements the inner solver of AO-ADMM (Algorithm 1 of the
// paper) in two forms:
//
//   - Run: the baseline kernel-parallel formulation (§IV-A). Every inner
//     iteration performs one row-parallel pass (solve, prox, dual update)
//     followed by a global reduction of the primal/dual residuals — one
//     fork-join barrier per iteration, and a single convergence decision
//     shared by all rows.
//   - RunBlocked: the blockwise reformulation (§IV-B). Rows are split into
//     blocks that each run Algorithm 1 independently until their own
//     residuals converge, dispatched to threads with dynamic load balancing.
//     High-signal blocks may take many more iterations than average without
//     holding the rest of the matrix hostage, and a block's working set
//     stays cache resident across its iterations.
//
// Both operate on the mode-m subproblem
//
//	min ½‖X(m) − H̃ᵀ(⊙ₙAₙ)ᵀ‖² + r(H)  s.t.  H = H̃ᵀ
//
// given K = MTTKRP(X, m) and the Gram matrix G = ∗_{n≠m} AₙᵀAₙ.
package admm

import (
	"fmt"
	"time"

	"aoadmm/internal/dense"
	"aoadmm/internal/par"
	"aoadmm/internal/prox"
)

// DefaultEps is the inner-iteration convergence tolerance on the relative
// primal and dual residuals.
const DefaultEps = 1e-2

// DefaultMaxIters caps the inner iterations of one ADMM solve.
const DefaultMaxIters = 50

// DefaultBlockSize is the paper's empirically chosen block of 50 rows —
// "a good trade-off between convergence and execution" (§IV-B).
const DefaultBlockSize = 50

// Config parameterizes one ADMM solve.
type Config struct {
	// Prox is the constraint/regularization operator (nil = unconstrained).
	Prox prox.Operator
	// Eps is the residual tolerance (<= 0 means DefaultEps).
	Eps float64
	// MaxIters caps inner iterations (<= 0 means DefaultMaxIters).
	MaxIters int
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// BlockSize is the rows per block for RunBlocked (<= 0 means
	// DefaultBlockSize).
	BlockSize int
	// AdaptiveRho enables per-block residual balancing (Boyd et al.,
	// §3.4.1) in RunBlocked: when a block's primal residual dominates its
	// dual residual by RhoRatio the block's penalty doubles (and vice
	// versa), with the dual variable rescaled and the block's own
	// (G + ρI) Cholesky refactored. The blockwise formulation makes this
	// affordable — each refactorization is one F x F Cholesky amortized
	// over a whole block — where the monolithic solver would have to
	// refactor for all rows at once. Ignored by Run.
	AdaptiveRho bool
	// RhoRatio is the imbalance ratio that triggers adaptation (<= 0 means
	// 10, Boyd's suggestion).
	RhoRatio float64
	// Telem, when non-nil, receives per-thread scheduler counters (chunks
	// claimed, busy time) from the solve's dispatch: per-block dynamic
	// dispatch in RunBlocked, per-iteration static spans in Run.
	Telem *par.Telemetry
}

func (c Config) eps() float64 {
	if c.Eps <= 0 {
		return DefaultEps
	}
	return c.Eps
}

func (c Config) maxIters() int {
	if c.MaxIters <= 0 {
		return DefaultMaxIters
	}
	return c.MaxIters
}

func (c Config) blockSize() int {
	if c.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return c.BlockSize
}

func (c Config) prox() prox.Operator {
	if c.Prox == nil {
		return prox.Unconstrained{}
	}
	return c.Prox
}

// Stats reports what one ADMM solve did.
type Stats struct {
	// Iterations is the global iteration count (baseline) or the maximum
	// block iteration count (blocked).
	Iterations int
	// MinIterations is the minimum block iteration count (blocked; equals
	// Iterations for the baseline).
	MinIterations int
	// RowIterations is Σ over rows of the iterations applied to that row —
	// the true convergence work measure that lets baseline and blocked runs
	// be compared fairly.
	RowIterations int64
	// Blocks is the number of row blocks processed (1 for the baseline).
	Blocks int
	// RhoAdaptations counts per-block penalty rescalings (AdaptiveRho only).
	RhoAdaptations int64
	// Converged is false when MaxIters was hit (by any block).
	Converged bool
	// BlockIters holds the per-block inner-iteration counts in block order
	// (a single entry for the baseline solver, which converges globally).
	// This is the raw data behind the per-block convergence histogram.
	BlockIters []int
	// Timing is the fine-grained time split of the solve.
	Timing Timing
}

// Timing is the fine-grained time split of one solve. Cholesky is the wall
// time of the shared (G + rho*I) factorization plus thread-summed adaptive
// refactorizations. Prox is CPU time summed across worker threads, so on p
// threads it can reach p times the solve's elapsed time. It is an estimate:
// each row pass times the prox of one four-row strip in every proxSampleEvery
// (always its first) and scales by the rows the pass covered. A clock pair
// costs more than a typical row's prox, so timing every row would distort
// what it measures; with sampling a 50-row block pass reads the clock once.
type Timing struct {
	Cholesky time.Duration
	Prox     time.Duration
}

// proxSampleEvery is the strip stride of the sampled prox timing: one
// four-row strip in every proxSampleEvery is timed.
const proxSampleEvery = 16

// Workspace holds the per-solve scratch matrices so repeated ADMM calls (one
// per mode per outer iteration) do not reallocate: rows x F for Run, and
// BlockSize x F per thread for RunBlocked. Zero value is ready; it grows on
// demand.
type Workspace struct {
	ht, h0 *dense.Matrix
}

func (w *Workspace) ensure(rows, cols int) (ht, h0 *dense.Matrix) {
	if w.ht == nil || w.ht.Rows < rows || w.ht.Cols != cols {
		w.ht = dense.New(rows, cols)
		w.h0 = dense.New(rows, cols)
	}
	return w.ht.RowBlock(0, rows), w.h0.RowBlock(0, rows)
}

// prepare computes the shared per-solve quantities: ρ = trace(G)/F and the
// Cholesky factor of (G + ρI) (Algorithm 1, lines 3-4).
func prepare(g *dense.Matrix) (float64, *dense.Cholesky, error) {
	f := g.Rows
	if f == 0 {
		return 0, nil, fmt.Errorf("admm: empty Gram matrix")
	}
	rho := dense.Trace(g) / float64(f)
	if rho <= 0 {
		rho = 1e-12
	}
	ch, _, err := dense.NewCholeskyJitter(dense.AddScaledIdentity(g, rho), 0, 30)
	if err != nil {
		return 0, nil, fmt.Errorf("admm: factorizing G + rho*I: %w", err)
	}
	return rho, ch, nil
}

// iterate performs Algorithm 1's lines 6-11 once over rows [0, n) of the
// given views, returning the squared residual pieces:
// primal num ‖H−H̃ᵀ‖², ‖H‖², dual num ‖H−H₀‖², ‖U‖².
// Rows go in strips of four: line 6 solves a strip's right-hand sides
// together with ch.Solve4 (bit-identical to per-row SolveVec), line 8's prox
// runs over the strip's rows, then lines 9-11 run row by row in order. Every
// row's arithmetic is independent of its neighbours' and the residual sums
// accumulate in row order, so the iterates match a per-row loop bit for bit.
// proxNs accumulates the pass's estimated prox nanoseconds (see Timing).
func iterate(h, u, k, ht, h0 *dense.Matrix, op prox.Operator, rho float64, ch *dense.Cholesky, proxNs *int64) (pNum, pDen, dNum, dDen float64) {
	n := h.Rows
	f := h.Cols
	var sampledNs, sampledRows int64
	for s := 0; s < n; s += 4 {
		end := min(s+4, n)
		// Line 6: H̃ᵀ(i,:) = (G+ρI)⁻¹ (K + ρ(H+U))(i,:).
		for i := s; i < end; i++ {
			htRow, hRow, uRow, kRow := ht.Row(i), h.Row(i), u.Row(i), k.Row(i)
			for j := 0; j < f; j++ {
				htRow[j] = kRow[j] + rho*(hRow[j]+uRow[j])
			}
		}
		if end-s == 4 {
			ch.Solve4(ht.Row(s), ht.Row(s+1), ht.Row(s+2), ht.Row(s+3))
		} else {
			for i := s; i < end; i++ {
				ch.SolveVec(ht.Row(i))
			}
		}
		for i := s; i < end; i++ {
			hRow, uRow, htRow := h.Row(i), u.Row(i), ht.Row(i)
			// Line 7: H₀ = H.
			copy(h0.Row(i), hRow)
			for j := 0; j < f; j++ {
				hRow[j] = htRow[j] - uRow[j]
			}
		}
		// Line 8: H = prox(H̃ᵀ − U).
		if s%(4*proxSampleEvery) == 0 {
			proxStart := time.Now()
			for i := s; i < end; i++ {
				op.ApplyRow(h.Row(i), rho)
			}
			sampledNs += int64(time.Since(proxStart))
			sampledRows += int64(end - s)
		} else {
			for i := s; i < end; i++ {
				op.ApplyRow(h.Row(i), rho)
			}
		}
		for i := s; i < end; i++ {
			hRow, uRow, htRow, h0Row := h.Row(i), u.Row(i), ht.Row(i), h0.Row(i)
			// Line 9: U = U + H − H̃ᵀ.
			for j := 0; j < f; j++ {
				uRow[j] += hRow[j] - htRow[j]
				// Lines 10-11 numerators/denominators.
				dp := hRow[j] - htRow[j]
				pNum += dp * dp
				pDen += hRow[j] * hRow[j]
				dd := hRow[j] - h0Row[j]
				dNum += dd * dd
				dDen += uRow[j] * uRow[j]
			}
		}
	}
	if sampledRows > 0 {
		*proxNs += sampledNs * int64(n) / sampledRows
	}
	return pNum, pDen, dNum, dDen
}

// shard is one worker thread's private counters, merged after the join
// barrier. It fills a cache line so neighbouring threads do not share one.
type shard struct {
	proxNs, cholNs, adaptations int64
	unconverged                 bool
	_                           [64 - 4*8]byte
}

// merge adds the thread-summed times of shards into tm.
func (tm *Timing) merge(shards []shard) {
	for _, sh := range shards {
		tm.Cholesky += time.Duration(sh.cholNs)
		tm.Prox += time.Duration(sh.proxNs)
	}
}

// AbsTol is the per-element absolute residual floor combined with the
// paper's relative criterion. Blocks whose optimal primal (or dual) state is
// zero have vanishing denominators in r = ‖H−H̃ᵀ‖²/‖H‖² and
// s = ‖H−H₀‖²/‖U‖²; the absolute floor (Boyd et al., §3.3.1) lets such
// blocks terminate once their residuals are negligible in absolute terms.
const AbsTol = 1e-9

// converged applies the stopping rule r < ε and s < ε, where each squared
// residual is accepted when it falls below eps·denominator plus the absolute
// floor AbsTol²·count (count = rows·rank of the block).
func converged(pNum, pDen, dNum, dDen, eps float64, count int) bool {
	floor := AbsTol * AbsTol * float64(count)
	return pNum <= eps*pDen+floor && dNum <= eps*dDen+floor
}

// Run executes the baseline kernel-parallel ADMM (Algorithm 1, §IV-A):
// rows are statically partitioned across threads inside every iteration and
// the residuals are reduced globally, so all rows share one iteration count.
// h and u are updated in place; k and g are read-only.
func Run(h, u, k, g *dense.Matrix, ws *Workspace, cfg Config) (Stats, error) {
	if err := checkShapes(h, u, k, g); err != nil {
		return Stats{}, err
	}
	cholStart := time.Now()
	rho, ch, err := prepare(g)
	if err != nil {
		return Stats{}, err
	}
	cholesky := time.Since(cholStart)
	op := cfg.prox()
	eps := cfg.eps()
	maxIters := cfg.maxIters()
	threads := par.Threads(cfg.Threads)
	if ws == nil {
		ws = &Workspace{}
	}
	ht, h0 := ws.ensure(h.Rows, h.Cols)

	type quad struct{ pn, pd, dn, dd float64 }
	partial := make([]quad, threads)
	shards := make([]shard, threads)
	// One fused row pass per iteration; the join plus the residual
	// aggregation below is the per-iteration synchronization the blocked
	// variant eliminates.
	pass := func(tid, begin, end int) {
		hb, ub := h.RowBlock(begin, end), u.RowBlock(begin, end)
		kb := k.RowBlock(begin, end)
		htb, h0b := ht.RowBlock(begin, end), h0.RowBlock(begin, end)
		pn, pd, dn, dd := iterate(hb, ub, kb, htb, h0b, op, rho, ch, &shards[tid].proxNs)
		partial[tid] = quad{pn, pd, dn, dd}
	}

	st := Stats{Blocks: 1, Timing: Timing{Cholesky: cholesky}}
	for it := 1; it <= maxIters; it++ {
		par.StaticT(cfg.Telem, h.Rows, threads, pass)
		var pn, pd, dn, dd float64
		for _, q := range partial {
			pn += q.pn
			pd += q.pd
			dn += q.dn
			dd += q.dd
		}
		st.Iterations = it
		st.MinIterations = it
		st.RowIterations += int64(h.Rows)
		if converged(pn, pd, dn, dd, eps, h.Rows*h.Cols) {
			st.Converged = true
			break
		}
	}
	st.BlockIters = []int{st.Iterations}
	st.Timing.merge(shards)
	return st, nil
}

// RunBlocked executes the blockwise reformulation (§IV-B): rows are split
// into blocks of cfg.BlockSize, each block iterates Algorithm 1 on its own
// rows until its own residuals converge, and blocks are dispatched to
// threads dynamically (block-granular load balancing). h and u are updated
// in place; k and g are read-only.
func RunBlocked(h, u, k, g *dense.Matrix, ws *Workspace, cfg Config) (Stats, error) {
	if err := checkShapes(h, u, k, g); err != nil {
		return Stats{}, err
	}
	cholStart := time.Now()
	rho, ch, err := prepare(g)
	if err != nil {
		return Stats{}, err
	}
	cholesky := time.Since(cholStart)
	op := cfg.prox()
	eps := cfg.eps()
	maxIters := cfg.maxIters()
	bs := cfg.blockSize()

	nBlocks := (h.Rows + bs - 1) / bs
	if nBlocks == 0 {
		return Stats{Blocks: 0, Converged: true, Timing: Timing{Cholesky: cholesky}}, nil
	}
	threads := min(par.Threads(cfg.Threads), nBlocks)
	if ws == nil {
		ws = &Workspace{}
	}
	// Per-thread scratch reused across all blocks a worker claims: thread t
	// owns rows [t·BlockSize, (t+1)·BlockSize). Its size (2·BlockSize·F) is
	// the cache-resident working set §IV-B relies on.
	scratchHt, scratchH0 := ws.ensure(threads*bs, h.Cols)
	iters := make([]int, nBlocks)
	shards := make([]shard, threads)

	ratio := cfg.RhoRatio
	if ratio <= 0 {
		ratio = 10
	}
	ratioSq := ratio * ratio // residual pieces are squared norms

	tracer := cfg.Telem.Tracer()
	par.DynamicItemsT(cfg.Telem, nBlocks, threads, func(tid, b int) {
		sp := tracer.Begin("admm", "admm_block", -1, tid, int64(b))
		begin := b * bs
		end := min(begin+bs, h.Rows)
		hb := h.RowBlock(begin, end)
		ub := u.RowBlock(begin, end)
		kb := k.RowBlock(begin, end)
		rows := end - begin
		ht := scratchHt.RowBlock(tid*bs, tid*bs+rows)
		h0 := scratchH0.RowBlock(tid*bs, tid*bs+rows)
		sh := &shards[tid]
		// Per-block penalty state; the shared factorization is used until a
		// block adapts, after which it owns a private one.
		bRho, bCh := rho, ch
		conv := false
		for it := 1; it <= maxIters; it++ {
			pn, pd, dn, dd := iterate(hb, ub, kb, ht, h0, op, bRho, bCh, &sh.proxNs)
			iters[b] = it
			if converged(pn, pd, dn, dd, eps, rows*h.Cols) {
				conv = true
				break
			}
			if cfg.AdaptiveRho && it < maxIters {
				// Residual balancing (Boyd §3.4.1): grow ρ when the primal
				// residual dominates, shrink when the dual does. The scaled
				// dual U = Y/ρ is rescaled inversely.
				var scale float64
				switch {
				case pn > ratioSq*dn && dn >= 0:
					scale = 2
				case dn > ratioSq*pn && pn >= 0:
					scale = 0.5
				default:
					continue
				}
				newRho := bRho * scale
				refactorStart := time.Now()
				newCh, _, err := dense.NewCholeskyJitter(dense.AddScaledIdentity(g, newRho), 0, 30)
				sh.cholNs += int64(time.Since(refactorStart))
				if err != nil {
					continue // keep the old penalty; adaptation is best-effort
				}
				bRho, bCh = newRho, newCh
				dense.Scale(ub, 1/scale)
				sh.adaptations++
			}
		}
		if !conv {
			sh.unconverged = true
		}
		sp.End()
	})

	st := Stats{Blocks: nBlocks, Converged: true, MinIterations: iters[0], BlockIters: iters,
		Timing: Timing{Cholesky: cholesky}}
	st.Timing.merge(shards)
	for _, sh := range shards {
		st.RhoAdaptations += sh.adaptations
		if sh.unconverged {
			st.Converged = false
		}
	}
	for b, n := range iters {
		st.Iterations = max(st.Iterations, n)
		st.MinIterations = min(st.MinIterations, n)
		st.RowIterations += int64(n * (min((b+1)*bs, h.Rows) - b*bs))
	}
	return st, nil
}

func checkShapes(h, u, k, g *dense.Matrix) error {
	f := h.Cols
	if u.Rows != h.Rows || u.Cols != f {
		return fmt.Errorf("admm: dual shape %dx%d != primal %dx%d", u.Rows, u.Cols, h.Rows, f)
	}
	if k.Rows != h.Rows || k.Cols != f {
		return fmt.Errorf("admm: MTTKRP shape %dx%d != primal %dx%d", k.Rows, k.Cols, h.Rows, f)
	}
	if g.Rows != f || g.Cols != f {
		return fmt.Errorf("admm: Gram shape %dx%d != rank %d", g.Rows, g.Cols, f)
	}
	return nil
}
