package main

import (
	"fmt"
	"math"
	"time"

	"aoadmm/internal/core"
	"aoadmm/internal/dense"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

// fixedBudgetTol turns the improvement-based stopping rule off without
// leaving the default: a solve stops only when the relative error repeats
// exactly, which the checks then report as a short solve.
const fixedBudgetTol = math.SmallestNonzeroFloat64

// solveRound is one timed fixed-budget solve.
type solveRound struct {
	wall, cpu time.Duration
	// iterWall and iterCPU are each outer iteration's end on both clocks,
	// counted from the solve's start; relErr is its relative error.
	iterWall, iterCPU []time.Duration
	relErr            []float64
	res               *core.Result
	// direct is the final relative error recomputed from the factors by
	// settle.
	direct float64
}

// observe returns an OnIteration callback that records into the round.
func (r *solveRound) observe(start stamp) func(stats.TracePoint) bool {
	return func(tp stats.TracePoint) bool {
		wall, cpu := start.since()
		r.iterWall = append(r.iterWall, wall)
		r.iterCPU = append(r.iterCPU, cpu)
		r.relErr = append(r.relErr, tp.RelErr)
		return true
	}
}

// settle recomputes the round's relative error from its factors for the
// checks, then drops the factors, so the run's later rounds do not carry
// them on the heap and its peak memory does not depend on how many rounds
// fit in its time.
func (r solveRound) settle(x *tensor.COO) solveRound {
	if r.res != nil && r.res.Factors != nil {
		r.direct = directRelErr(x, r.res.Factors)
		r.res = &core.Result{RelErr: r.res.RelErr, OuterIters: r.res.OuterIters, Converged: r.res.Converged}
	}
	return r
}

// fitSlack states the accuracy time_to_fit_s waits for: the first outer
// iteration whose relative error is within 1% of the recorded reference
// for the seed (of the run's own fixed-budget result for seeds without one).
const fitSlack = 1.01

// timeToFit is the wall and CPU time to the first iteration at or below
// target, in seconds; NaN if none.
func (r solveRound) timeToFit(target float64) (wall, cpu float64) {
	for i, e := range r.relErr {
		if e <= target {
			return r.iterWall[i].Seconds(), r.iterCPU[i].Seconds()
		}
	}
	return math.NaN(), math.NaN()
}

// iterMS appends each iteration's duration on the given clock, in ms.
func iterMS(dst []float64, ends []time.Duration) []float64 {
	var prev time.Duration
	for _, e := range ends {
		dst = append(dst, float64(e-prev)/1e6)
		prev = e
	}
	return dst
}

// coreOptions are the options every benchmark solve shares.
func coreOptions(p solveParams) core.Options {
	return core.Options{
		Rank:          p.rank,
		Constraints:   []prox.Operator{prox.NonNegative{}},
		MaxOuterIters: p.outer,
		Tol:           fixedBudgetTol,
		Threads:       p.threads,
		Seed:          p.seed,
	}
}

// timedSolve runs solve with iteration timestamps.
func timedSolve(p solveParams, solve func(core.Options) (*core.Result, error)) (solveRound, error) {
	var round solveRound
	opts := coreOptions(p)
	start := now()
	opts.OnIteration = round.observe(start)
	res, err := solve(opts)
	round.wall, round.cpu = start.since()
	round.res = res
	return round, err
}

// inMemorySolver solves x with a pre-compiled engine, so the timed solve
// excludes the CSF build.
func inMemorySolver(x *tensor.COO, eng core.Engine) func(core.Options) (*core.Result, error) {
	return func(opts core.Options) (*core.Result, error) {
		opts.EngineBuilder = func(*tensor.COO, core.Options) (core.Engine, error) { return eng, nil }
		return core.Factorize(x, opts)
	}
}

// measureRounds repeats solve until the run's measuring time is used up
// (at least once).
func measureRounds(rc *runCtx, what string, x *tensor.COO, p solveParams, solve func(core.Options) (*core.Result, error)) []solveRound {
	var rounds []solveRound
	until := rc.measureUntil()
	for len(rounds) == 0 || time.Now().Before(until) {
		collect()
		round, err := timedSolve(p, solve)
		if !rc.rep.op(err, what) {
			break
		}
		rounds = append(rounds, round.settle(x))
	}
	return rounds
}

// checkRounds verifies a workload's solves: the fixed budget ran in full,
// every round computed the same answer, and the reported relative error
// equals one recomputed from the returned factors.
func checkRounds(r *report, what string, x *tensor.COO, p solveParams, rounds []solveRound) {
	for i, round := range rounds {
		res := round.res
		r.check(res.OuterIters == p.outer && !res.Converged,
			"%s round %d ran %d of %d outer iterations (converged=%v)", what, i, res.OuterIters, p.outer, res.Converged)
		r.check(res.RelErr == rounds[0].res.RelErr,
			"%s round %d relerr %.15g differs from round 0's %.15g", what, i, res.RelErr, rounds[0].res.RelErr)
		r.checkClose(fmt.Sprintf("%s round %d relerr recomputed from the factors", what, i), round.settle(x).direct, res.RelErr, 1e-7)
	}
}

// directRelErr evaluates ‖X−M‖/‖X‖ entry by entry, independently of the
// solver's MTTKRP-based bookkeeping.
func directRelErr(x *tensor.COO, k *kruskal.Tensor) float64 {
	coord := make([]int, x.Order())
	var inner float64
	for p, v := range x.Vals {
		for m := range coord {
			coord[m] = int(x.Inds[m][p])
		}
		inner += v * k.At(coord)
	}
	return kruskal.RelErr(x.NormSq(), inner, k.NormSq(1))
}

// recordRounds reports a workload's solves under the given metric prefix
// ("" for the workload's main solve), on both clocks.
func recordRounds(r *report, seed int64, prefix string, rounds []solveRound) {
	if len(rounds) == 0 {
		return
	}
	final := rounds[0].res.RelErr
	target := fitSlack * final
	if ref, ok := recordedRef(r.workload, seed, prefix+"final_relerr"); ok {
		target = fitSlack * ref
	}
	var walls, cpus, iterWall, iterCPU, fitWall, fitCPU []float64
	for i, round := range rounds {
		walls = append(walls, round.wall.Seconds())
		cpus = append(cpus, round.cpu.Seconds())
		iterWall = iterMS(iterWall, round.iterWall)
		iterCPU = iterMS(iterCPU, round.iterCPU)
		w, c := round.timeToFit(target)
		r.check(!math.IsNaN(w), "%ssolve round %d never reached relerr %g (final %g)", prefix, i, target, round.res.RelErr)
		fitWall = append(fitWall, w)
		fitCPU = append(fitCPU, c)
	}
	r.set(prefix+"solve_s", "s", median(walls))
	r.set(prefix+"solve_cpu_s", "s", median(cpus))
	r.set(prefix+"iter_ms_p50", "ms", median(iterWall))
	r.set(prefix+"iter_cpu_ms_p50", "ms", median(iterCPU))
	r.set(prefix+"time_to_fit_s", "s", median(fitWall))
	r.set(prefix+"time_to_fit_cpu_s", "s", median(fitCPU))
	r.set(prefix+"target_relerr", "1", target)
	r.set(prefix+"final_relerr", "1", final)
	r.set(prefix+"solve_rounds", "count", float64(len(rounds)))
}

// solveBudget is the fixed outer-iteration budget of every benchmark solve.
const solveBudget = 20

func runNELL(rc *runCtx)    { runInMemory(rc, "nell") }
func runPatents(rc *runCtx) { runInMemory(rc, "patents") }

// runInMemory is a fixed-budget rank-32 non-negative CSF solve in memory.
func runInMemory(rc *runCtx, dataset string) {
	r := rc.rep
	x := rc.input(dataset)
	p := solveParams{rank: 32, outer: solveBudget, threads: threads, seed: rc.seed}
	if !rc.traced {
		var eng core.Engine
		setups, _ := timeSetup(false, func() { eng = nil }, func(int) error {
			eng = core.NewCSFEngine(x, false)
			return nil
		})
		r.set("setup_s", "s", median(setups))
		r.set("setup_runs", "count", float64(len(setups)))
		rounds := measureRounds(rc, "solve", x, p, inMemorySolver(x, eng))
		recordRounds(r, rc.seed, "", rounds)
		r.set("work_cpu_s", "s", r.values["solve_cpu_s"])
		r.set("op_p50_ms", "ms", r.values["iter_cpu_ms_p50"])
		checkRounds(r, "solve", x, p, rounds)
		checkRefs(r, rc.seed)
		return
	}
	tracedInMemory(rc, x, p)
	layerShares(r)
	checkRefs(r, rc.seed)
}

// tracedInMemory is the traced run of an in-memory solve: the CSF build and
// the replayed sweep, each under layer spans.
func tracedInMemory(rc *runCtx, x *tensor.COO, p solveParams) {
	var eng core.Engine
	span(rc.tr, "csf", "build", -1, func() { eng = core.NewCSFEngine(x, false) })
	rc.rep.set("csf.build_s", "s", selfTimes(rc.tr.Events()).s("csf.build"))
	flops := func(m int) int64 { return mttkrp.FlopCount(eng.LeafTree(m), p.rank) }
	kernel := func(m int, factors []*dense.Matrix, k *dense.Matrix) error {
		return eng.MTTKRP(m, factors, k, nil, mttkrp.Options{Threads: p.threads})
	}
	tracedSolve(rc, x, p, inMemorySolver(x, eng), x.NormSq(), kernel, flops)
}

// tracedSolve runs one untraced solve as the baseline, then the traced
// replay of the same solve, and checks that both computed the same thing.
// It returns the baseline, or nil if the solve failed.
func tracedSolve(rc *runCtx, x *tensor.COO, p solveParams,
	solve func(core.Options) (*core.Result, error), xNormSq float64, kernel kernelFunc, flops func(int) int64) *solveRound {
	r := rc.rep
	base, err := timedSolve(p, solve)
	if !r.op(err, "untraced solve") {
		return nil
	}
	checkRounds(r, "untraced solve", x, p, []solveRound{base})
	r.set("final_relerr", "1", base.res.RelErr)
	r.set("solve_s", "s", base.wall.Seconds())
	r.set("solve_cpu_s", "s", base.cpu.Seconds())

	mark := len(rc.tr.Events())
	t0 := now()
	sw, err := replaySweep(base.res.Factors.Dims(), xNormSq, p, kernel, flops, rc.tr)
	tracedWall, tracedCPU := t0.since()
	if !r.op(err, "traced replay") {
		return &base
	}
	r.check(sw.iters == base.res.OuterIters, "replay ran %d outer iterations, the solve %d", sw.iters, base.res.OuterIters)
	r.checkClose("replay relerr vs the untraced solve", sw.relErr, base.res.RelErr, 1e-12)
	r.check(sw.rowIters == base.res.RowIters, "replay row iterations %d, the solve %d", sw.rowIters, base.res.RowIters)
	r.set("traced_solve_s", "s", tracedWall.Seconds())
	r.set("traced_solve_cpu_s", "s", tracedCPU.Seconds())
	r.set("trace.overhead_frac", "1", tracedCPU.Seconds()/base.cpu.Seconds()-1)
	selfFrac := sweepMetrics(r, selfTimes(rc.tr.Events()[mark:]), sw)
	r.set("core.self_frac", "1", selfFrac)
	r.check(selfFrac <= maxCoreSelfFrac,
		"core self time is %.1f%% of the outer-iteration wall (limit %.0f%%): a layer dropped out of the replay",
		100*selfFrac, 100*maxCoreSelfFrac)
	return &base
}

// maxCoreSelfFrac bounds the outer-iteration wall that no layer span
// covers. The loop body between spans is a few slice operations; more than
// this means a layer's work escaped the spans.
const maxCoreSelfFrac = 0.02

// layerShares prints each AO layer's share of the traced wall (set-up plus
// sweep), the figures BENCHMARK.json's workload reasons quote.
func layerShares(r *report) {
	layers := []string{"csf.build_s", "mttkrp.s", "admm.s", "dense.gram_s", "kruskal.fit_s", "core.self_s"}
	total := 0.0
	for _, l := range layers {
		total += r.values[l]
	}
	largest := ""
	for _, l := range layers {
		r.set("share."+l, "1", r.values[l]/total)
		if largest == "" || r.values[l] > r.values[largest] {
			largest = l
		}
	}
	fmt.Printf("%-15s largest layer self time: %s (%.1f%% of set-up + sweep)\n", r.workload, largest, 100*r.values[largest]/total)
}
