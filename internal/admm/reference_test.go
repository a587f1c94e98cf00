package admm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aoadmm/internal/dense"
	"aoadmm/internal/par"
	"aoadmm/internal/prox"
)

// refIterate is Algorithm 1's lines 6-11 one row at a time with a per-row
// SolveVec: the formulation iterate's four-row strips must reproduce bit for
// bit.
func refIterate(h, u, k, ht, h0 *dense.Matrix, op prox.Operator, rho float64, ch *dense.Cholesky) (pNum, pDen, dNum, dDen float64) {
	f := h.Cols
	for i := 0; i < h.Rows; i++ {
		hRow, uRow, kRow := h.Row(i), u.Row(i), k.Row(i)
		htRow, h0Row := ht.Row(i), h0.Row(i)
		for j := 0; j < f; j++ {
			htRow[j] = kRow[j] + rho*(hRow[j]+uRow[j])
		}
		ch.SolveVec(htRow)
		copy(h0Row, hRow)
		for j := 0; j < f; j++ {
			hRow[j] = htRow[j] - uRow[j]
		}
		op.ApplyRow(hRow, rho)
		for j := 0; j < f; j++ {
			uRow[j] += hRow[j] - htRow[j]
			dp := hRow[j] - htRow[j]
			pNum += dp * dp
			pDen += hRow[j] * hRow[j]
			dd := hRow[j] - h0Row[j]
			dNum += dd * dd
			dDen += uRow[j] * uRow[j]
		}
	}
	return pNum, pDen, dNum, dDen
}

// refRun is Run serialized over the same static partition, reducing the
// per-partition residuals in partition order. It returns the iteration count.
func refRun(t *testing.T, h, u, k, g *dense.Matrix, cfg Config) int {
	rho, ch, err := prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ht, h0 := dense.New(h.Rows, h.Cols), dense.New(h.Rows, h.Cols)
	threads := min(par.Threads(cfg.Threads), h.Rows)
	iters := 0
	for it := 1; it <= cfg.maxIters(); it++ {
		var pn, pd, dn, dd float64
		for tid := 0; tid < threads; tid++ {
			b, e := par.Span(h.Rows, threads, tid)
			p1, p2, p3, p4 := refIterate(h.RowBlock(b, e), u.RowBlock(b, e), k.RowBlock(b, e),
				ht.RowBlock(b, e), h0.RowBlock(b, e), cfg.prox(), rho, ch)
			pn, pd, dn, dd = pn+p1, pd+p2, dn+p3, dd+p4
		}
		iters = it
		if converged(pn, pd, dn, dd, cfg.eps(), h.Rows*h.Cols) {
			break
		}
	}
	return iters
}

// refRunBlocked is RunBlocked serialized block by block, with the same
// residual-balancing rule. It returns the per-block iteration counts and the
// number of penalty adaptations.
func refRunBlocked(t *testing.T, h, u, k, g *dense.Matrix, cfg Config) ([]int, int64) {
	rho, ch, err := prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	bs := cfg.blockSize()
	var iters []int
	var adaptations int64
	for begin := 0; begin < h.Rows; begin += bs {
		end := min(begin+bs, h.Rows)
		hb, ub, kb := h.RowBlock(begin, end), u.RowBlock(begin, end), k.RowBlock(begin, end)
		ht, h0 := dense.New(end-begin, h.Cols), dense.New(end-begin, h.Cols)
		bRho, bCh := rho, ch
		n := 0
		for it := 1; it <= cfg.maxIters(); it++ {
			n = it
			pn, pd, dn, dd := refIterate(hb, ub, kb, ht, h0, cfg.prox(), bRho, bCh)
			if converged(pn, pd, dn, dd, cfg.eps(), (end-begin)*h.Cols) {
				break
			}
			if !cfg.AdaptiveRho || it == cfg.maxIters() {
				continue
			}
			scale := 0.0
			switch {
			case pn > 100*dn:
				scale = 2
			case dn > 100*pn:
				scale = 0.5
			default:
				continue
			}
			newCh, _, err := dense.NewCholeskyJitter(dense.AddScaledIdentity(g, bRho*scale), 0, 30)
			if err != nil {
				continue
			}
			bRho, bCh = bRho*scale, newCh
			dense.Scale(ub, 1/scale)
			adaptations++
		}
		iters = append(iters, n)
	}
	return iters, adaptations
}

// illConditioned builds a subproblem whose Gram spans five decades, so fixed
// rho is a poor fit and residual balancing adapts.
func illConditioned(rows, rank int, seed int64) (h, u, k, g *dense.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	g = dense.Gram(dense.Random(rank*3, rank, rng), 1)
	for i := 0; i < rank; i++ {
		g.Set(i, i, g.At(i, i)+math.Pow(10, float64(i%6)-3))
	}
	k = dense.Random(rows, rank, rng)
	dense.Scale(k, 5)
	return dense.Random(rows, rank, rng), dense.New(rows, rank), k, g
}

func requireBitEqual(t *testing.T, what string, got, want *dense.Matrix) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j, w := range want.Row(i) {
			if g := got.At(i, j); g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s(%d,%d) = %v, per-row reference = %v", what, i, j, g, w)
			}
		}
	}
}

// TestSolversMatchPerRowReference pins the four-row strip loop to the
// per-row formulation: Run and RunBlocked must leave H and U bit-identical
// to refIterate-driven references and report the same iteration counts, for
// row counts not divisible by four.
func TestSolversMatchPerRowReference(t *testing.T) {
	var adaptations int64
	for _, rank := range []int{5, 32} {
		for _, rows := range []int{1, 7, 103} {
			name := fmt.Sprintf("F=%d/rows=%d", rank, rows)
			h0, u0, k, g := illConditioned(rows, rank, int64(rank*1000+rows))
			for _, threads := range []int{1, 3} {
				cfg := Config{Prox: prox.NonNegative{}, Eps: 1e-6, MaxIters: 40, Threads: threads}
				h, u := h0.Clone(), u0.Clone()
				st, err := Run(h, u, k, g, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				hRef, uRef := h0.Clone(), u0.Clone()
				if want := refRun(t, hRef, uRef, k, g, cfg); st.Iterations != want {
					t.Fatalf("%s Run threads=%d: %d iterations, reference %d", name, threads, st.Iterations, want)
				}
				requireBitEqual(t, name+" Run H", h, hRef)
				requireBitEqual(t, name+" Run U", u, uRef)
			}
			for _, bs := range []int{1, 3, 50} {
				for _, adaptive := range []bool{false, true} {
					cfg := Config{Prox: prox.NonNegative{}, Eps: 1e-6, MaxIters: 40, Threads: 2,
						BlockSize: bs, AdaptiveRho: adaptive}
					label := fmt.Sprintf("%s RunBlocked bs=%d adaptive=%v", name, bs, adaptive)
					h, u := h0.Clone(), u0.Clone()
					st, err := RunBlocked(h, u, k, g, &Workspace{}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					hRef, uRef := h0.Clone(), u0.Clone()
					wantIters, wantAdapt := refRunBlocked(t, hRef, uRef, k, g, cfg)
					if !slices.Equal(st.BlockIters, wantIters) || st.RhoAdaptations != wantAdapt {
						t.Fatalf("%s: block iters %v adaptations %d, reference %v %d",
							label, st.BlockIters, st.RhoAdaptations, wantIters, wantAdapt)
					}
					var rowIters int64
					for b, n := range wantIters {
						rowIters += int64(n * (min((b+1)*bs, rows) - b*bs))
					}
					if st.RowIterations != rowIters || st.Iterations != slices.Max(wantIters) || st.MinIterations != slices.Min(wantIters) {
						t.Fatalf("%s: stats %+v disagree with reference block iters %v", label, st, wantIters)
					}
					requireBitEqual(t, label+" H", h, hRef)
					requireBitEqual(t, label+" U", u, uRef)
					adaptations += st.RhoAdaptations
				}
			}
		}
	}
	if adaptations == 0 {
		t.Fatal("no case exercised an adaptive-rho refactorization")
	}
}

// TestRunBlockedReusesWorkspace checks that RunBlocked draws its per-thread
// scratch from the caller's Workspace instead of allocating it per call.
func TestRunBlockedReusesWorkspace(t *testing.T) {
	h, u, k, g := problem(200, 8, 17)
	ws := &Workspace{}
	cfg := Config{MaxIters: 5, Threads: 2, BlockSize: 30}
	if _, err := RunBlocked(h, u, k, g, ws, cfg); err != nil {
		t.Fatal(err)
	}
	if ws.ht == nil || ws.ht.Rows != 2*30 || ws.ht.Cols != 8 {
		t.Fatalf("workspace not sized to threads x BlockSize x F: %+v", ws.ht)
	}
	ht := ws.ht
	if _, err := RunBlocked(h, u, k, g, ws, cfg); err != nil {
		t.Fatal(err)
	}
	if ws.ht != ht {
		t.Fatal("second call reallocated the workspace scratch")
	}
}
