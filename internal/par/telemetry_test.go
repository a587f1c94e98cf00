package par

import (
	"sync/atomic"
	"testing"
	"time"

	"aoadmm/internal/stats"
)

// Dynamic must not fork more workers than there are chunks: with n=10 and
// chunk=5 there are only two chunks, so even with 16 threads requested the
// observed tids must stay inside [0, 2) (the tid-compaction invariant that
// lets callers index tid-sized scratch arrays).
func TestDynamicClampsWorkersToChunks(t *testing.T) {
	var maxTID atomic.Int64
	maxTID.Store(-1)
	Dynamic(10, 5, 16, func(tid, b, e int) {
		for {
			cur := maxTID.Load()
			if int64(tid) <= cur || maxTID.CompareAndSwap(cur, int64(tid)) {
				break
			}
		}
	})
	if got := maxTID.Load(); got >= 2 {
		t.Fatalf("observed tid %d, want < 2 (ceil(10/5) workers)", got)
	}
}

func TestDynamicItemsClampsWorkers(t *testing.T) {
	var maxTID atomic.Int64
	DynamicItems(3, 16, func(tid, item int) {
		for {
			cur := maxTID.Load()
			if int64(tid) <= cur || maxTID.CompareAndSwap(cur, int64(tid)) {
				break
			}
		}
	})
	if got := maxTID.Load(); got >= 3 {
		t.Fatalf("observed tid %d, want < 3 (one worker per item max)", got)
	}
}

// Do must re-raise a worker panic on the caller's goroutine after all
// workers have joined — not deadlock, not crash the process.
func TestDoRepanicsWorkerPanic(t *testing.T) {
	for _, p := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("p=%d: panic not propagated", p)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("p=%d: recovered %v, want \"boom\"", p, r)
				}
			}()
			Do(p, func(tid int) {
				if tid == p-1 {
					panic("boom")
				}
			})
			t.Fatalf("p=%d: Do returned normally", p)
		}()
	}
}

// After a panic is recovered the runtime must remain usable.
func TestDoUsableAfterPanic(t *testing.T) {
	func() {
		defer func() { recover() }()
		Do(4, func(tid int) { panic("first") })
	}()
	var count atomic.Int64
	Do(4, func(tid int) { count.Add(1) })
	if count.Load() != 4 {
		t.Fatalf("post-panic Do ran %d workers, want 4", count.Load())
	}
}

func TestTelemetryCountsChunks(t *testing.T) {
	tel := NewTelemetry(4)
	n, chunk := 100, 7
	DynamicT(tel, n, chunk, 4, func(tid, b, e int) {
		time.Sleep(100 * time.Microsecond)
	})
	wantChunks := int64((n + chunk - 1) / chunk)
	var chunks int64
	var busy time.Duration
	for tid := 0; tid < tel.NumThreads(); tid++ {
		st := tel.Stat(tid)
		chunks += st.Chunks
		busy += st.Busy
	}
	if chunks != wantChunks {
		t.Fatalf("telemetry counted %d chunks, want %d", chunks, wantChunks)
	}
	if busy <= 0 {
		t.Fatalf("telemetry busy time %v, want > 0", busy)
	}
}

func TestTelemetryStaticAndItems(t *testing.T) {
	tel := NewTelemetry(2)
	StaticT(tel, 10, 2, func(tid, b, e int) {})
	DynamicItemsT(tel, 6, 2, func(tid, item int) {})
	var chunks int64
	for tid := 0; tid < tel.NumThreads(); tid++ {
		chunks += tel.Stat(tid).Chunks
	}
	// Static contributes one span per worker (2), DynamicItems one per item (6).
	if chunks != 8 {
		t.Fatalf("telemetry counted %d spans, want 8", chunks)
	}
}

func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	if tel.NumThreads() != 0 {
		t.Fatal("nil NumThreads != 0")
	}
	var count atomic.Int64
	DynamicT(nil, 10, 3, 2, func(tid, b, e int) { count.Add(int64(e - b)) })
	StaticT(nil, 10, 2, func(tid, b, e int) { count.Add(int64(e - b)) })
	DynamicItemsT(nil, 5, 2, func(tid, item int) { count.Add(1) })
	if count.Load() != 25 {
		t.Fatalf("nil-telemetry variants covered %d, want 25", count.Load())
	}
}

func TestTelemetryImbalanceIgnoresIdleThreads(t *testing.T) {
	// One chunk, many threads: only one slot claims work, so the ratio the
	// metrics report computes over working threads must be exactly 1 (idle
	// slots excluded from the mean).
	tel := NewTelemetry(8)
	DynamicT(tel, 4, 10, 8, func(tid, b, e int) {
		time.Sleep(time.Millisecond)
	})
	met := stats.NewMetrics()
	for tid := 0; tid < tel.NumThreads(); tid++ {
		s := tel.Stat(tid)
		met.RecordSchedulerThread(tid, s.Chunks, s.Busy)
	}
	if r := met.Report().Scheduler.ImbalanceRatio; r != 1 {
		t.Fatalf("single-worker imbalance = %v, want exactly 1", r)
	}
}

func TestSpanEdgeCases(t *testing.T) {
	// n == 0: every thread gets an empty span.
	for tid := 0; tid < 4; tid++ {
		if b, e := Span(0, 4, tid); b != e {
			t.Fatalf("Span(0,4,%d) = [%d,%d), want empty", tid, b, e)
		}
	}
	// n < p: first n threads get one item each, the rest nothing.
	total := 0
	for tid := 0; tid < 8; tid++ {
		b, e := Span(3, 8, tid)
		total += e - b
		if e-b > 1 {
			t.Fatalf("Span(3,8,%d) = [%d,%d), want <= 1 item", tid, b, e)
		}
	}
	if total != 3 {
		t.Fatalf("Span(3,8,·) covered %d items, want 3", total)
	}
}

func TestDynamicChunkLargerThanN(t *testing.T) {
	var calls, covered atomic.Int64
	Dynamic(5, 100, 4, func(tid, b, e int) {
		calls.Add(1)
		covered.Add(int64(e - b))
	})
	if calls.Load() != 1 || covered.Load() != 5 {
		t.Fatalf("chunk > n: %d calls covering %d, want 1 call covering 5", calls.Load(), covered.Load())
	}
}

func TestReduceDeterministicAcrossThreadCounts(t *testing.T) {
	// For each fixed p the blockwise sum must be bit-identical across runs
	// (the reduction is ordered by tid, not completion).
	f := func(tid, b, e int) float64 {
		var s float64
		for i := b; i < e; i++ {
			s += 1.0 / float64(i+1)
		}
		return s
	}
	for p := 1; p <= 8; p++ {
		first := ReduceFloat64(2048, p, f)
		for run := 0; run < 5; run++ {
			if got := ReduceFloat64(2048, p, f); got != first {
				t.Fatalf("p=%d run %d: %v != %v", p, run, got, first)
			}
		}
	}
}
