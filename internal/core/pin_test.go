package core_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"aoadmm/internal/core"
	"aoadmm/internal/dist"
	"aoadmm/internal/distnet"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/ooc"
	"aoadmm/internal/prox"
	"aoadmm/internal/tensor"
)

// pinned is one solver configuration's exact outcome on the pin tensor.
type pinned struct {
	name      string
	outer     int
	converged bool
	relErr    float64
	run       func(t *testing.T, x *tensor.COO) (outer int, converged bool, relErr float64)
}

func pinTensor(t *testing.T) *tensor.COO {
	t.Helper()
	x, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: []int{15, 20, 25}, NNZ: 5000, Rank: 3, Seed: 5, NoiseStd: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func pinShards(t *testing.T, x *tensor.COO) *ooc.ShardedTensor {
	t.Helper()
	st, err := ooc.ConvertCOO(x, filepath.Join(t.TempDir(), "x.aoshard"), ooc.ConvertOptions{TargetShardBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() < 2 {
		t.Fatalf("want >= 2 shards, got %d", st.NumShards())
	}
	return st
}

func pinADMM(variant core.Variant, maxIters int, tol float64) func(*testing.T, *tensor.COO) (int, bool, float64) {
	return func(t *testing.T, x *tensor.COO) (int, bool, float64) {
		res, err := core.Factorize(x, core.Options{
			Rank: 4, Seed: 3, MaxOuterIters: maxIters, Tol: tol, Threads: 1, BlockSize: 10,
			Variant: variant, Constraints: []prox.Operator{prox.NonNegative{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.OuterIters, res.Converged, res.RelErr
	}
}

func pinALS(format string, sharded bool) func(*testing.T, *tensor.COO) (int, bool, float64) {
	return func(t *testing.T, x *tensor.COO) (int, bool, float64) {
		opts := core.ALSOptions{Rank: 4, Seed: 3, MaxOuterIters: 150, Threads: 1, Ridge: 1e-10, KernelFormat: format}
		var res *core.Result
		var err error
		if sharded {
			res, err = core.FactorizeALSOOC(pinShards(t, x), opts)
		} else {
			res, err = core.FactorizeALS(x, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.OuterIters, res.Converged, res.RelErr
	}
}

// TestSolverIteratesPinned pins every solver and data plane that runs
// Algorithm 2's outer loop — blocked and base AO-ADMM, ALS on CSF, ALTO and
// shards, HALS, a checkpoint warm restart and a 2-worker distnet job — to
// the exact iteration count, stop reason and relative error it reaches on
// one planted tensor at Threads 1. A refactor of the loop must leave every
// row unchanged.
func TestSolverIteratesPinned(t *testing.T) {
	cases := []pinned{
		{name: "admm-blocked", outer: 66, converged: true, relErr: 0.72664296044176857, run: pinADMM(core.Blocked, 150, 0)},
		{name: "admm-blocked-tol1e-3", outer: 7, converged: true, relErr: 0.73547267444316888, run: pinADMM(core.Blocked, 150, 1e-3)},
		{name: "admm-blocked-cap12", outer: 12, converged: false, relErr: 0.73373966550923242, run: pinADMM(core.Blocked, 12, 0)},
		{name: "admm-base", outer: 70, converged: true, relErr: 0.72664385039521462, run: pinADMM(core.Baseline, 150, 0)},
		{name: "als-csf", outer: 51, converged: true, relErr: 0.70904821608487067, run: pinALS("csf", false)},
		{name: "als-alto", outer: 51, converged: true, relErr: 0.70904821608487056, run: pinALS("alto", false)},
		{name: "als-ooc", outer: 51, converged: true, relErr: 0.70904821608487056, run: pinALS("csf", true)},
		{name: "hals", outer: 35, converged: true, relErr: 0.7228381923906958, run: func(t *testing.T, x *tensor.COO) (int, bool, float64) {
			res, err := core.FactorizeHALS(x, core.HALSOptions{Rank: 4, Seed: 3, MaxOuterIters: 150, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			return res.OuterIters, res.Converged, res.RelErr
		}},
		{name: "admm-resume", outer: 66, converged: true, relErr: 0.72664296044176857, run: func(t *testing.T, x *tensor.COO) (int, bool, float64) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			opts := core.Options{
				Rank: 4, Seed: 3, MaxOuterIters: 8, Tol: 1e-300, Threads: 1, BlockSize: 10,
				Constraints:   []prox.Operator{prox.NonNegative{}},
				CheckpointDir: dir, CheckpointEvery: 4,
			}
			if _, err := core.Factorize(x, opts); err != nil {
				t.Fatal(err)
			}
			cp, err := kruskal.LoadCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			opts.CheckpointDir = ""
			opts.MaxOuterIters, opts.Tol = 150, 0
			opts.InitFactors, opts.InitDuals = cp.Factors, cp.Duals
			opts.StartIter, opts.PrevRelErr = cp.Meta.Iteration, cp.Meta.RelErr
			res, err := core.Factorize(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res.OuterIters, res.Converged, res.RelErr
		}},
	}
	x := pinTensor(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outer, converged, relErr := tc.run(t, x.Clone())
			if outer != tc.outer || converged != tc.converged || math.Abs(relErr-tc.relErr) > 1e-12 {
				t.Fatalf("outer=%d converged=%v relerr=%.17g, pinned outer=%d converged=%v relerr=%.17g",
					outer, converged, relErr, tc.outer, tc.converged, tc.relErr)
			}
		})
	}
}

// TestDistnetIteratesPinned pins a 2-worker loopback distnet job: iteration
// count, stop reason, relative error, and the priced collective volume.
func TestDistnetIteratesPinned(t *testing.T) {
	x := pinTensor(t)
	st := pinShards(t, x)
	coord, err := distnet.Listen(distnet.Config{Listen: "127.0.0.1:0", HeartbeatInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var workers []*distnet.Worker
	for i := 0; i < 2; i++ {
		w := distnet.NewWorker(distnet.WorkerConfig{
			CoordinatorAddr: coord.Addr(), Name: fmt.Sprintf("w%d", i), RetryInterval: 50 * time.Millisecond,
		})
		workers = append(workers, w)
		go w.Run(ctx)
	}
	t.Cleanup(func() {
		cancel()
		for _, w := range workers {
			w.Close()
		}
		coord.Close()
	})
	res, err := coord.RunJob(distnet.JobOptions{
		JobID: "pin", ShardDir: st.Dir(), Rank: 4, Constraint: "nonneg",
		MaxOuterIters: 8, BlockSize: 10, Threads: 1, Seed: 3,
		Workers: 2, WaitForWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const relErr = 0.73497757804831421
	if res.OuterIters != 8 || res.Converged || math.Abs(res.RelErr-relErr) > 1e-12 {
		t.Fatalf("outer=%d converged=%v relerr=%.17g, pinned outer=8 converged=false relerr=%.17g",
			res.OuterIters, res.Converged, res.RelErr, relErr)
	}
	comm := dist.CommStats{MTTKRPBytes: 11520, FactorBytes: 15360, GramBytes: 6144, ADMMBytes: 0, Messages: 432}
	if res.Comm != comm {
		t.Fatalf("comm %+v, pinned %+v", res.Comm, comm)
	}
}

// TestDistRunPinned pins the in-process distributed simulator (dist.Run)
// at Threads 1: iteration count, stop reason, the exact relative error and
// the exact priced collective volume, for 1 and 3 nodes over explicit
// mode-0 ranges, capped and Tol-stopped runs, the default 50-iteration
// budget and a 4-mode tensor on 4 nodes.
func TestDistRunPinned(t *testing.T) {
	x := pinTensor(t)
	x4, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: []int{6, 8, 10, 12}, NNZ: 2000, Rank: 3, Seed: 9, NoiseStd: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	nn := []prox.Operator{prox.NonNegative{}}
	one := [][2]int{{0, 15}}
	three := [][2]int{{0, 4}, {4, 11}, {11, 15}}
	cases := []struct {
		name      string
		x         *tensor.COO
		opts      dist.Options
		outer     int
		converged bool
		relErr    float64
		comm      dist.CommStats
	}{
		{"nodes1-cap8", x,
			dist.Options{Nodes: 1, Mode0Ranges: one, Rank: 4, Seed: 3, MaxOuterIters: 8, BlockSize: 10, Constraints: nn},
			8, false, 0.73499810381965691, dist.CommStats{Messages: 48}},
		{"nodes3-cap8", x,
			dist.Options{Nodes: 3, Mode0Ranges: three, Rank: 4, Seed: 3, MaxOuterIters: 8, BlockSize: 10, Constraints: nn},
			8, false, 0.73500043472615217, dist.CommStats{MTTKRPBytes: 23040, FactorBytes: 30720, GramBytes: 12288, Messages: 816}},
		{"nodes1-tol1e-3", x,
			dist.Options{Nodes: 1, Mode0Ranges: one, Rank: 4, Seed: 3, MaxOuterIters: 150, Tol: 1e-3, BlockSize: 10, Constraints: nn},
			7, true, 0.73547267444316888, dist.CommStats{Messages: 42}},
		{"nodes3-tol1e-3", x,
			dist.Options{Nodes: 3, Mode0Ranges: three, Rank: 4, Seed: 3, MaxOuterIters: 150, Tol: 1e-3, BlockSize: 10, Constraints: nn},
			7, true, 0.73546879566558987, dist.CommStats{MTTKRPBytes: 20160, FactorBytes: 26880, GramBytes: 10752, Messages: 714}},
		{"nodes3-default-cap", x,
			dist.Options{Nodes: 3, Rank: 4, Seed: 3, BlockSize: 10},
			50, false, 0.70904929394884075, dist.CommStats{MTTKRPBytes: 144000, FactorBytes: 192000, GramBytes: 76800, Messages: 5100}},
		{"order4-nodes4-cap6", x4,
			dist.Options{Nodes: 4, Rank: 3, Seed: 2, MaxOuterIters: 6, BlockSize: 4, Constraints: nn},
			6, false, 0.8390413087352927, dist.CommStats{MTTKRPBytes: 12960, FactorBytes: 15552, GramBytes: 10368, Messages: 660}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := dist.Run(tc.x.Clone(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.OuterIters != tc.outer || res.Converged != tc.converged || res.RelErr != tc.relErr {
				t.Fatalf("outer=%d converged=%v relerr=%.17g, pinned outer=%d converged=%v relerr=%.17g",
					res.OuterIters, res.Converged, res.RelErr, tc.outer, tc.converged, tc.relErr)
			}
			if res.Comm != tc.comm {
				t.Fatalf("comm %+v, pinned %+v", res.Comm, tc.comm)
			}
		})
	}
}
