package distnet

import (
	"os"
	"path/filepath"
	"testing"

	"aoadmm/internal/dist"
	"aoadmm/internal/kruskal"
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
			Factors: dist.InitModel(st.Dims(), rank, 1, st.NormSq()),
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
