package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Regression test for the Breakdown data race: many goroutines hammering
// Add/Get/Total/Fractions concurrently must neither trip -race nor lose
// increments.
func TestBreakdownConcurrentAdd(t *testing.T) {
	bd := NewBreakdown()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				bd.Add(PhaseMTTKRP, time.Microsecond)
				bd.Add(PhaseADMM, 2*time.Microsecond)
				_ = bd.Get(PhaseMTTKRP)
				_ = bd.Total()
				_ = bd.Fractions()
			}
		}()
	}
	wg.Wait()
	if got, want := bd.Get(PhaseMTTKRP), time.Duration(workers*perWorker)*time.Microsecond; got != want {
		t.Fatalf("PhaseMTTKRP = %v, want %v", got, want)
	}
	if got, want := bd.Get(PhaseADMM), time.Duration(2*workers*perWorker)*time.Microsecond; got != want {
		t.Fatalf("PhaseADMM = %v, want %v", got, want)
	}
}

func TestMetricsMergeBothDirectionsConcurrently(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.AddKernel(KernelMTTKRP, 0, time.Second)
	b.AddKernel(KernelADMMInner, 0, time.Second)
	// Opposite-direction merges must not deadlock (Merge snapshots the
	// source instead of holding both locks).
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a.Merge(b) }()
	go func() { defer wg.Done(); b.Merge(a) }()
	wg.Wait()
	if got := a.Breakdown().Get(PhaseADMM); got != time.Second {
		t.Fatalf("a missed merged ADMM time: %v", got)
	}
	if got := b.Breakdown().Get(PhaseMTTKRP); got != time.Second {
		t.Fatalf("b missed merged MTTKRP time: %v", got)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.AddKernel(KernelMTTKRP, 0, time.Second)
	m.RecordADMMSolve([]int{1, 2}, 3)
	m.RecordSchedulerThread(0, 1, time.Second)
	m.RecordDensity(1, 0, 0.5, "DENSE")
	rep := m.Report()
	if rep.Schema != MetricsSchema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if len(rep.Kernels) != 0 || rep.ADMM.Solves != 0 {
		t.Fatal("nil Metrics accumulated data")
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsReport(t *testing.T) {
	m := NewMetrics()
	m.AddKernel(KernelMTTKRP, 1, 2*time.Second)
	m.AddKernel(KernelMTTKRP, 0, time.Second)
	m.AddKernel(KernelMTTKRP, 0, time.Second)
	m.AddKernel(KernelGram, ModeNone, time.Second)
	m.RecordADMMSolve([]int{3, 3, 7}, 2)
	m.RecordADMMSolve([]int{3}, 0)
	m.RecordSchedulerThread(1, 5, 100*time.Millisecond)
	m.RecordSchedulerThread(0, 5, 300*time.Millisecond)
	m.RecordSchedulerThread(1, 5, 100*time.Millisecond)
	m.RecordDensity(1, 0, 0.8, "DENSE")
	m.RecordDensity(2, 0, 0.3, "CSR")

	rep := m.Report()
	if rep.Schema != MetricsSchema {
		t.Fatalf("schema %q", rep.Schema)
	}
	// Kernels sorted by (kernel, mode); gram < mttkrp.
	if len(rep.Kernels) != 3 {
		t.Fatalf("got %d kernel rows, want 3", len(rep.Kernels))
	}
	if rep.Kernels[0].Kernel != "gram" || rep.Kernels[0].Mode != ModeNone {
		t.Fatalf("kernel[0] = %+v", rep.Kernels[0])
	}
	if rep.Kernels[1].Kernel != "mttkrp" || rep.Kernels[1].Mode != 0 ||
		rep.Kernels[1].Calls != 2 || rep.Kernels[1].Seconds != 2 {
		t.Fatalf("kernel[1] = %+v", rep.Kernels[1])
	}
	if rep.Kernels[2].Mode != 1 {
		t.Fatalf("kernel[2] = %+v", rep.Kernels[2])
	}

	if rep.ADMM.Solves != 2 || rep.ADMM.Blocks != 4 || rep.ADMM.RhoAdaptations != 2 {
		t.Fatalf("ADMM = %+v", rep.ADMM)
	}
	if rep.ADMM.InnerIterHistogram["3"] != 3 || rep.ADMM.InnerIterHistogram["7"] != 1 {
		t.Fatalf("histogram = %v", rep.ADMM.InnerIterHistogram)
	}

	// Threads sorted by tid; tid 1 merged across two records.
	if len(rep.Scheduler.Threads) != 2 {
		t.Fatalf("threads = %+v", rep.Scheduler.Threads)
	}
	if rep.Scheduler.Threads[0].TID != 0 || rep.Scheduler.Threads[1].TID != 1 {
		t.Fatalf("thread order = %+v", rep.Scheduler.Threads)
	}
	if rep.Scheduler.Threads[1].Chunks != 10 {
		t.Fatalf("tid 1 chunks = %d, want 10", rep.Scheduler.Threads[1].Chunks)
	}
	// busy: tid0=0.3s, tid1=0.2s → mean 0.25, max 0.3 → ratio 1.2.
	if got := rep.Scheduler.ImbalanceRatio; math.Abs(got-1.2) > 1e-12 {
		t.Fatalf("imbalance = %v, want 1.2", got)
	}

	if len(rep.Sparsity) != 2 || rep.Sparsity[1].Structure != "CSR" {
		t.Fatalf("sparsity = %+v", rep.Sparsity)
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.AddKernel(KernelCholesky, 2, time.Second)
	m.RecordADMMSolve([]int{5}, 1)
	m.RecordSchedulerThread(0, 3, time.Second)
	m.RecordDensity(1, 2, 0.5, "CSR-H")
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Schema != MetricsSchema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if len(rep.Kernels) != 1 || rep.Kernels[0].Kernel != "cholesky" || rep.Kernels[0].Mode != 2 {
		t.Fatalf("kernels = %+v", rep.Kernels)
	}
	if rep.ADMM.InnerIterHistogram["5"] != 1 {
		t.Fatalf("histogram = %v", rep.ADMM.InnerIterHistogram)
	}
	if len(rep.Sparsity) != 1 || rep.Sparsity[0].Structure != "CSR-H" {
		t.Fatalf("sparsity = %+v", rep.Sparsity)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.AddKernel(KernelMTTKRP, w%3, time.Microsecond)
				m.RecordADMMSolve([]int{i % 5}, 1)
				m.RecordSchedulerThread(w, 1, time.Microsecond)
				_ = m.Report()
			}
		}(w)
	}
	wg.Wait()
	rep := m.Report()
	if rep.ADMM.Solves != 8*500 {
		t.Fatalf("solves = %d, want %d", rep.ADMM.Solves, 8*500)
	}
	var calls int64
	for _, k := range rep.Kernels {
		calls += k.Calls
	}
	if calls != 8*500 {
		t.Fatalf("kernel calls = %d, want %d", calls, 8*500)
	}
}

func TestMetricsNestedRowsAndMerge(t *testing.T) {
	a := NewMetrics()
	a.AddKernel(KernelADMMInner, 0, 3*time.Second)
	a.AddSubKernel(KernelADMMInner, KernelCholesky, 0, time.Second)
	a.AddKernel(KernelCholesky, 1, 2*time.Second) // ALS's top-level mode update
	a.RecordADMMSolve([]int{2, 5}, 1)
	a.RecordSchedulerThread(0, 4, time.Second)
	a.RecordDensity(1, 0, 0.5, "DENSE")

	b := NewMetrics()
	b.AddKernel(KernelADMMInner, 0, time.Second)
	b.AddKernel(KernelMTTKRP, 0, time.Second)
	b.RecordADMMSolve([]int{5}, 0)
	b.RecordSchedulerThread(0, 1, time.Second)
	b.RecordDensity(2, 0, 0.25, "CSR")
	b.SetBackends([]string{"distnet"})
	a.Merge(b)

	rep := a.Report()
	type row struct{ kernel, parent, unit string }
	var got []row
	for _, kt := range rep.Kernels {
		got = append(got, row{kt.Kernel + "/" + strconv.Itoa(kt.Mode), kt.Parent, kt.Unit})
	}
	want := []row{
		{"admm_inner/0", "", UnitWall},
		{"cholesky/0", "admm_inner", UnitCPU},
		{"cholesky/1", "", UnitWall},
		{"mttkrp/0", "", UnitWall},
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if rep.Kernels[0].Calls != 2 || rep.Kernels[0].Duration != 4*time.Second {
		t.Fatalf("merged admm_inner row = %+v", rep.Kernels[0])
	}
	if rep.ADMM.Solves != 2 || rep.ADMM.Blocks != 3 || rep.ADMM.InnerIterHistogram["5"] != 2 {
		t.Fatalf("merged ADMM = %+v", rep.ADMM)
	}
	if len(rep.Scheduler.Threads) != 1 || rep.Scheduler.Threads[0].Chunks != 5 {
		t.Fatalf("merged threads = %+v", rep.Scheduler.Threads)
	}
	if len(rep.Sparsity) != 2 || rep.Sparsity[1].Structure != "CSR" || len(rep.Backends) != 1 {
		t.Fatalf("merged sparsity %+v backends %v", rep.Sparsity, rep.Backends)
	}

	// The phase split counts top-level rows only: the nested cholesky is
	// part of admm_inner, ALS's top-level cholesky is a mode update.
	bd := a.Breakdown()
	if bd.Get(PhaseADMM) != 6*time.Second || bd.Get(PhaseMTTKRP) != time.Second || bd.Total() != 7*time.Second {
		t.Fatalf("breakdown %v", bd)
	}

	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"parent": "admm_inner"`, `"unit": "cpu_s"`, `"parent": ""`, `"unit": "wall_s"`} {
		if !strings.Contains(buf.String(), field) {
			t.Errorf("JSON lacks %s", field)
		}
	}
}
