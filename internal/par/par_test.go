package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestThreads(t *testing.T) {
	if got := Threads(4); got != 4 {
		t.Fatalf("Threads(4) = %d", got)
	}
	if got := Threads(0); got < 1 {
		t.Fatalf("Threads(0) = %d, want >= 1", got)
	}
	if got := Threads(-3); got < 1 {
		t.Fatalf("Threads(-3) = %d, want >= 1", got)
	}
}

func TestDoRunsAllTIDs(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		seen := make([]atomic.Bool, n)
		Do(n, func(tid int) { seen[tid].Store(true) })
		for i := range seen {
			if !seen[i].Load() {
				t.Fatalf("n=%d: tid %d never ran", n, i)
			}
		}
	}
}

func TestSpanCoversExactly(t *testing.T) {
	check := func(n, p int) bool {
		if n < 0 {
			n = -n
		}
		if p <= 0 {
			p = 1
		}
		n %= 1000
		p = p%32 + 1
		covered := 0
		prevEnd := 0
		for tid := 0; tid < p; tid++ {
			b, e := Span(n, p, tid)
			if b != prevEnd {
				return false
			}
			if e < b {
				return false
			}
			if e-b > n/p+1 {
				return false
			}
			covered += e - b
			prevEnd = e
		}
		return covered == n && prevEnd == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaticCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 101} {
		for _, p := range []int{1, 2, 3, 8} {
			hit := make([]atomic.Int32, max(n, 1))
			Static(n, p, func(tid, b, e int) {
				for i := b; i < e; i++ {
					hit[i].Add(1)
				}
			})
			for i := 0; i < n; i++ {
				if hit[i].Load() != 1 {
					t.Fatalf("n=%d p=%d: index %d hit %d times", n, p, i, hit[i].Load())
				}
			}
		}
	}
}

func TestDynamicCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 17, 256} {
		for _, chunk := range []int{1, 3, 64, 500} {
			for _, p := range []int{1, 4} {
				hit := make([]atomic.Int32, max(n, 1))
				Dynamic(n, chunk, p, func(tid, b, e int) {
					if e > n || b < 0 || b >= e {
						t.Errorf("bad chunk [%d,%d) for n=%d", b, e, n)
					}
					for i := b; i < e; i++ {
						hit[i].Add(1)
					}
				})
				for i := 0; i < n; i++ {
					if hit[i].Load() != 1 {
						t.Fatalf("n=%d chunk=%d p=%d: index %d hit %d times", n, chunk, p, i, hit[i].Load())
					}
				}
			}
		}
	}
}

// TestCyclicDealsChunksRoundRobin checks CyclicT covers every index once
// and hands chunk c to worker c mod workers, whatever the timing.
func TestCyclicDealsChunksRoundRobin(t *testing.T) {
	for _, n := range []int{0, 1, 17, 256} {
		for _, chunk := range []int{1, 3, 64, 500} {
			for _, p := range []int{1, 4} {
				workers := min(p, max((n+chunk-1)/chunk, 1))
				hit := make([]atomic.Int32, max(n, 1))
				CyclicT(nil, n, chunk, p, func(tid, b, e int) {
					if e > n || b < 0 || b >= e || b%chunk != 0 {
						t.Errorf("bad chunk [%d,%d) for n=%d", b, e, n)
					}
					if c := b / chunk; c%workers != tid {
						t.Errorf("n=%d chunk=%d p=%d: chunk %d ran on worker %d", n, chunk, p, c, tid)
					}
					for i := b; i < e; i++ {
						hit[i].Add(1)
					}
				})
				for i := 0; i < n; i++ {
					if hit[i].Load() != 1 {
						t.Fatalf("n=%d chunk=%d p=%d: index %d hit %d times", n, chunk, p, i, hit[i].Load())
					}
				}
			}
		}
	}
}

func TestDynamicChunkSizes(t *testing.T) {
	var count atomic.Int64
	Dynamic(100, 7, 3, func(tid, b, e int) {
		if e-b > 7 {
			t.Errorf("chunk size %d > 7", e-b)
		}
		count.Add(int64(e - b))
	})
	if count.Load() != 100 {
		t.Fatalf("covered %d items, want 100", count.Load())
	}
}

func TestDynamicItems(t *testing.T) {
	n := 50
	hit := make([]atomic.Int32, n)
	DynamicItems(n, 4, func(tid, item int) { hit[item].Add(1) })
	for i := range hit {
		if hit[i].Load() != 1 {
			t.Fatalf("item %d hit %d times", i, hit[i].Load())
		}
	}
}

func TestReduceFloat64(t *testing.T) {
	n := 1000
	// Sum of i over [0, n) computed blockwise must equal n(n-1)/2.
	got := ReduceFloat64(n, 4, func(tid, b, e int) float64 {
		var s float64
		for i := b; i < e; i++ {
			s += float64(i)
		}
		return s
	})
	want := float64(n*(n-1)) / 2
	if got != want {
		t.Fatalf("ReduceFloat64 = %v, want %v", got, want)
	}
	if got := ReduceFloat64(0, 4, func(tid, b, e int) float64 { return 1 }); got != 0 {
		t.Fatalf("empty reduce = %v, want 0", got)
	}
}

func TestReduceDeterministicForFixedThreads(t *testing.T) {
	n := 4096
	f := func(tid, b, e int) float64 {
		var s float64
		for i := b; i < e; i++ {
			s += 1.0 / float64(i+1)
		}
		return s
	}
	first := ReduceFloat64(n, 5, f)
	for run := 0; run < 10; run++ {
		if got := ReduceFloat64(n, 5, f); got != first {
			t.Fatalf("run %d: %v != %v", run, got, first)
		}
	}
}

func TestReduce2Float64(t *testing.T) {
	a, b := Reduce2Float64(100, 3, func(tid, lo, hi int) (float64, float64) {
		var x, y float64
		for i := lo; i < hi; i++ {
			x += 1
			y += 2
		}
		return x, y
	})
	if a != 100 || b != 200 {
		t.Fatalf("Reduce2Float64 = (%v, %v), want (100, 200)", a, b)
	}
}

func TestStaticMoreThreadsThanWork(t *testing.T) {
	var count atomic.Int64
	Static(3, 16, func(tid, b, e int) { count.Add(int64(e - b)) })
	if count.Load() != 3 {
		t.Fatalf("covered %d, want 3", count.Load())
	}
}
