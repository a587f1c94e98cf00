package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"aoadmm/internal/admm"
	"aoadmm/internal/dense"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/obs"
	"aoadmm/internal/prox"
)

// The traced run does not trace inside the program. It replays the AO
// sweep of Algorithm 2 itself, calling each layer's public function in the
// order core's outer loop does, and records a span around every call. The
// replay must reproduce the untraced solve's iteration count and relative
// error, so the spans time the same computation.

// solveParams fixes one factorization: rank-r non-negative AO-ADMM with a
// fixed outer budget on a fixed number of threads.
type solveParams struct {
	rank    int
	outer   int
	threads int
	seed    int64
}

// kernelFunc computes mode m's MTTKRP into k.
type kernelFunc func(m int, factors []*dense.Matrix, k *dense.Matrix) error

// sweepResult is what the replay computed, for the parity check and for
// the counters no span can give.
type sweepResult struct {
	relErr   float64
	iters    int
	rowIters int64
	blocks   int
	oneIter  int
	maxIter  int
	flops    int64
}

// span runs f inside a span on the main track of the benchmark thread.
func span(tr *obs.Tracer, layer, name string, mode int, f func()) {
	sp := tr.Begin(layer, name, mode, obs.TIDDriver, 0)
	f()
	sp.End()
}

// replaySweep is core's outer loop for the blocked-ADMM, dense-leaf,
// fixed-budget configuration the benchmark solves with. flops returns
// mttkrp.FlopCount for one call of mode m.
func replaySweep(dims []int, xNormSq float64, p solveParams, kernel kernelFunc, flops func(m int) int64, tr *obs.Tracer) (sweepResult, error) {
	order := len(dims)
	var res sweepResult

	// 1. Random factors scaled so that ‖M₀‖ ≈ ‖X‖, then the first Grams.
	var model *kruskal.Tensor
	grams := make([]*dense.Matrix, order)
	duals := make([]*dense.Matrix, order)
	span(tr, "kruskal", "init", -1, func() {
		model = kruskal.Random(dims, p.rank, rand.New(rand.NewSource(p.seed)))
		if m0 := model.NormSq(p.threads); m0 > 0 && xNormSq > 0 {
			s := math.Pow(xNormSq/m0, 0.5/float64(order))
			for _, f := range model.Factors {
				dense.Scale(f, s)
			}
		}
		for m := range dims {
			duals[m] = dense.New(dims[m], p.rank)
			grams[m] = dense.Gram(model.Factors[m], p.threads)
		}
	})
	kmat := dense.New(slices.Max(dims), p.rank)
	ws := &admm.Workspace{}
	cfg := admm.Config{Threads: p.threads, Prox: prox.NonNegative{}}

	for outer := 1; outer <= p.outer; outer++ {
		it := tr.Begin("core", "outer_iter", -1, obs.TIDDriver, int64(outer))
		var lastK *dense.Matrix
		for m := 0; m < order; m++ {
			// 2. G = ∗_{n≠m} Gₙ.
			var g *dense.Matrix
			span(tr, "dense", "gram_product", m, func() {
				for n, gn := range grams {
					switch {
					case n == m:
					case g == nil:
						g = gn.Clone()
					default:
						dense.Hadamard(g, g, gn)
					}
				}
			})
			// 3. K = MTTKRP.
			k := kmat.RowBlock(0, dims[m])
			var err error
			span(tr, "mttkrp", "mttkrp", m, func() { err = kernel(m, model.Factors, k) })
			if err != nil {
				it.End()
				return res, err
			}
			res.flops += flops(m)
			// 4. Blocked inner ADMM.
			var st admm.Stats
			span(tr, "admm", "run_blocked", m, func() {
				st, err = admm.RunBlocked(model.Factors[m], duals[m], k, g, ws, cfg)
			})
			if err != nil {
				it.End()
				return res, err
			}
			res.rowIters += st.RowIterations
			res.blocks += len(st.BlockIters)
			for _, n := range st.BlockIters {
				if n == 1 {
					res.oneIter++
				}
				if n >= admm.DefaultMaxIters {
					res.maxIter++
				}
			}
			span(tr, "dense", "gram", m, func() { grams[m] = dense.Gram(model.Factors[m], p.threads) })
			lastK = k
		}
		// 5. Fit from the last mode's MTTKRP.
		span(tr, "kruskal", "fit", -1, func() {
			inner := kruskal.InnerWithMTTKRP(lastK, model.Factors[order-1])
			res.relErr = kruskal.RelErr(xNormSq, inner, kruskal.NormSqFromGrams(grams))
		})
		res.iters = outer
		it.End()
	}
	return res, nil
}

// layerTimes are per-span-name totals: self time (duration minus the time
// covered by direct child spans), and call count.
type layerTimes struct {
	self  map[string]time.Duration
	calls map[string]int
}

func (lt layerTimes) s(key string) float64 { return lt.self[key].Seconds() }

// selfTimes folds a trace into per-"layer.name" self times. Spans nest by
// containment on each track.
func selfTimes(evs []obs.Event) layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, calls: map[string]int{}}
	byTID := map[int32][]obs.Event{}
	for _, e := range evs {
		if e.Dur > 0 {
			byTID[e.TID] = append(byTID[e.TID], e)
		}
	}
	type open struct {
		e     obs.Event
		child int64
	}
	for _, track := range byTID {
		sort.SliceStable(track, func(i, j int) bool {
			if track[i].Start != track[j].Start {
				return track[i].Start < track[j].Start
			}
			return track[i].Dur > track[j].Dur
		})
		var stack []open
		closeTop := func() {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			key := top.e.Cat + "." + top.e.Name
			lt.self[key] += time.Duration(top.e.Dur - top.child)
			lt.calls[key]++
		}
		for _, e := range track {
			for len(stack) > 0 && stack[len(stack)-1].e.Start+stack[len(stack)-1].e.Dur <= e.Start {
				closeTop()
			}
			if len(stack) > 0 {
				stack[len(stack)-1].child += e.Dur
			}
			stack = append(stack, open{e: e})
		}
		for len(stack) > 0 {
			closeTop()
		}
	}
	return lt
}

// sweepMetrics records the AO layers' per-layer metrics from a replay.
// Returns the share of outer-iteration wall left as core self time.
func sweepMetrics(r *report, lt layerTimes, sw sweepResult) float64 {
	mttkrpS := lt.s("mttkrp.mttkrp")
	r.set("mttkrp.calls", "count", float64(lt.calls["mttkrp.mttkrp"]))
	r.set("mttkrp.s", "s", mttkrpS)
	r.set("mttkrp.flops", "flop", float64(sw.flops))
	r.set("mttkrp.gflops", "GFLOP/s", float64(sw.flops)/mttkrpS/1e9)
	r.set("dense.gram_calls", "count", float64(lt.calls["dense.gram"]+lt.calls["dense.gram_product"]))
	r.set("dense.gram_s", "s", lt.s("dense.gram")+lt.s("dense.gram_product"))
	admmS := lt.s("admm.run_blocked")
	r.set("admm.calls", "count", float64(lt.calls["admm.run_blocked"]))
	r.set("admm.s", "s", admmS)
	r.set("admm.row_iters", "count", float64(sw.rowIters))
	r.set("admm.blocks", "count", float64(sw.blocks))
	r.set("admm.one_iter_frac", "1", float64(sw.oneIter)/float64(sw.blocks))
	r.set("admm.max_iter_frac", "1", float64(sw.maxIter)/float64(sw.blocks))
	r.set("admm.rows_per_s", "rows/s", float64(sw.rowIters)/admmS)
	r.set("kruskal.fit_s", "s", lt.s("kruskal.fit"))
	r.set("core.outer_iters", "count", float64(sw.iters))
	r.set("core.self_s", "s", lt.s("core.outer_iter"))
	var wall time.Duration
	for _, key := range []string{"core.outer_iter", "dense.gram_product", "mttkrp.mttkrp", "admm.run_blocked", "dense.gram", "kruskal.fit"} {
		wall += lt.self[key]
	}
	return lt.s("core.outer_iter") / wall.Seconds()
}
