package core

import (
	"context"
	"runtime/pprof"
	"strconv"
	"time"

	"aoadmm/internal/mttkrp"
	"aoadmm/internal/obs"
	"aoadmm/internal/sparse"
	"aoadmm/internal/stats"
)

// timedKernel runs fn, charging its wall time to top-level kernel k of the
// given mode in the run's metrics and to a "kernel" span on the driver's
// trace ring when tracing is on (tr is nil-safe). One clock pair serves
// both.
func timedKernel(tr *obs.Tracer, met *stats.Metrics, k stats.Kernel, mode int, fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start)
	met.AddKernel(k, mode, d)
	tr.Emit("kernel", string(k), mode, obs.TIDDriver, -1, start, d)
}

// withKernelLabels runs fn under pprof labels ("kernel", "mode") so CPU
// profiles of the solvers can be sliced per kernel per mode. Labels are
// inherited by the goroutines the parallel runtime forks inside fn. The
// per-call cost is a small allocation at phase granularity, so labels are
// applied unconditionally.
func withKernelLabels(kernel string, mode int, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("kernel", kernel, "mode", strconv.Itoa(mode)),
		func(context.Context) { fn() })
}

// structureLabel names the MTTKRP leaf representation of a cached factor
// image for the sparsity timeline.
func structureLabel(leaf mttkrp.LeafFactor) string {
	switch leaf.(type) {
	case *sparse.CSR:
		return "CSR"
	case *sparse.Hybrid:
		return "CSR-H"
	default:
		return "DENSE"
	}
}
