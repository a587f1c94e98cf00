package distnet

import (
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"aoadmm/internal/core"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/stats"
)

// TestResumeWithRisingErrorKeepsIterating resumes a job from a checkpoint
// whose recorded error is below what the first resumed iteration reaches.
// The error rises by far more than Tol, so under the shared |Δerr| < Tol
// rule the job must keep iterating instead of reporting convergence.
func TestResumeWithRisingErrorKeepsIterating(t *testing.T) {
	x := planted(t, []int{40, 40, 40}, 2000, 3)
	st := shardStore(t, x, 0)
	c := startCluster(t, 2)

	const rank, iters = 3, 6
	res, err := c.coord.RunJob(JobOptions{
		JobID: "rising", ShardDir: st.Dir(), Rank: rank, MaxOuterIters: iters, Tol: 1e-6,
		BlockSize: 10, Seed: 1, Workers: 2, WaitForWorkers: 2,
		Resume: &kruskal.Checkpoint{
			Factors: core.RandomModel(st.Dims(), rank, 1, st.NormSq(), 1),
			Meta:    &kruskal.CheckpointMeta{RelErr: 1e-3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.OuterIters != iters {
		t.Fatalf("rising error ended the job: converged=%v after %d of %d iterations (relerr %v)",
			res.Converged, res.OuterIters, iters, res.RelErr)
	}
}

// TestCheckpointFailureSurfaces points CheckpointDir under a regular file:
// every save fails, the job still completes, and the failure reaches
// JobResult.CheckpointErr.
func TestCheckpointFailureSurfaces(t *testing.T) {
	x := planted(t, []int{40, 40, 40}, 2000, 3)
	st := shardStore(t, x, 0)
	c := startCluster(t, 2)

	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := c.coord.RunJob(JobOptions{
		JobID: "ckpt-fail", ShardDir: st.Dir(), Rank: 3, MaxOuterIters: 3,
		BlockSize: 10, Seed: 1, Workers: 2, WaitForWorkers: 2,
		CheckpointDir: filepath.Join(file, "ckpt"), CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIters != 3 {
		t.Fatalf("job ran %d iterations, want 3", res.OuterIters)
	}
	if res.CheckpointErr == nil {
		t.Fatal("unwritable checkpoint dir reported no error")
	}
}

// TestJobReportMergesEpochs kills a worker mid-job and checks the job's
// aoadmm-metrics/v1 report covers every epoch: one csf_setup call per
// epoch, mttkrp and admm_inner rows for every mode, and the aborted epoch's
// partial sweep counted on top of the completed iterations.
func TestJobReportMergesEpochs(t *testing.T) {
	x := planted(t, []int{60, 90, 120}, 4000, 23)
	st := shardStore(t, x, 0)
	c := startCluster(t, 3)

	const iters = 6
	var once sync.Once
	res, err := c.coord.RunJob(JobOptions{
		JobID: "report", Rank: 3, ShardDir: st.Dir(), Constraint: "nonneg",
		MaxOuterIters: iters, BlockSize: 5, Seed: 9, Workers: 3, WaitForWorkers: 3,
		CheckpointDir: filepath.Join(t.TempDir(), "ckpt"), CheckpointEvery: 1,
		OnIteration: func(p stats.TracePoint) bool {
			if p.Iteration == 2 {
				once.Do(func() { c.workers[2].Close() })
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs < 2 || res.OuterIters != iters {
		t.Fatalf("no recovery: epochs=%d outer=%d", res.Epochs, res.OuterIters)
	}
	rep := res.Metrics.Report()
	if rep.Schema != stats.MetricsSchema {
		t.Fatalf("schema %q", rep.Schema)
	}
	calls := map[string]int64{}
	for _, kt := range rep.Kernels {
		calls[kt.Kernel+"/"+strconv.Itoa(kt.Mode)] += kt.Calls
	}
	if got := calls["csf_setup/-1"]; got != int64(res.Epochs) {
		t.Fatalf("csf_setup calls %d, want one per epoch (%d)", got, res.Epochs)
	}
	var mttkrp int64
	for m := 0; m < 3; m++ {
		if calls["admm_inner/"+strconv.Itoa(m)] == 0 || calls["mttkrp/"+strconv.Itoa(m)] == 0 {
			t.Fatalf("mode %d lacks admm_inner or mttkrp rows: %v", m, calls)
		}
		mttkrp += calls["mttkrp/"+strconv.Itoa(m)]
	}
	if mttkrp <= 3*iters {
		t.Fatalf("%d mttkrp calls: the aborted epoch's partial sweep is missing (completed sweeps alone make %d)", mttkrp, 3*iters)
	}
}
