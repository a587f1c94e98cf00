package par

import (
	"time"

	"aoadmm/internal/obs"
)

// Telemetry accumulates per-thread scheduler counters — chunks claimed and
// busy (in-callback) time — across one or more StaticT/DynamicT fork-join
// regions. During a region each worker writes only its own tid's slot, and
// slots are cache-line padded, so collection involves no locks or atomics;
// the caller reads the counters after the join barrier. A single Telemetry
// must therefore not be shared by regions that run concurrently with each
// other, which matches how the solvers use it (kernels are serialized by the
// outer AO loop).
type Telemetry struct {
	slots  []telemetrySlot
	tracer *obs.Tracer
}

// SetTracer attaches a span tracer: every chunk the scheduler times is also
// recorded as a "sched"/"chunk" span on the claiming worker's ring. A nil
// tracer (the default) costs one nil check per chunk. Telemetry is the
// carrier that moves the tracer from the solver driver through the kernel
// option structs (mttkrp.Options.Telem, admm.Config.Telem) into the
// fork-join regions.
func (t *Telemetry) SetTracer(tr *obs.Tracer) {
	if t != nil {
		t.tracer = tr
	}
}

// Tracer returns the attached tracer; nil on a nil Telemetry or when none
// was set. Kernels use it to emit spans of their own (ADMM block spans) on
// the same rings.
func (t *Telemetry) Tracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// telemetrySlot is padded so adjacent tids never share a cache line: chunk
// claims can be frequent (one per block in the blocked ADMM dispatch) and
// false sharing here would perturb the very imbalance being measured.
type telemetrySlot struct {
	chunks int64
	busyNs int64
	_      [48]byte
}

// ThreadStat is one worker's accumulated scheduler counters.
type ThreadStat struct {
	// Chunks is the number of chunks (or static spans) the worker executed.
	Chunks int64
	// Busy is the total time spent inside scheduled callbacks.
	Busy time.Duration
}

// NewTelemetry returns a Telemetry sized for nThreads workers (<= 0 means
// GOMAXPROCS). Regions with more workers grow it on entry.
func NewTelemetry(nThreads int) *Telemetry {
	return &Telemetry{slots: make([]telemetrySlot, Threads(nThreads))}
}

// NumThreads returns the number of tid slots recorded so far.
func (t *Telemetry) NumThreads() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Stat returns the counters for one tid.
func (t *Telemetry) Stat(tid int) ThreadStat {
	s := &t.slots[tid]
	return ThreadStat{Chunks: s.chunks, Busy: time.Duration(s.busyNs)}
}

// grow widens the slot array to at least n tids (called before workers fork,
// never concurrently with them).
func (t *Telemetry) grow(n int) {
	if len(t.slots) < n {
		ns := make([]telemetrySlot, n)
		copy(ns, t.slots)
		t.slots = ns
	}
}

// run executes fn(tid, begin, end) as one chunk of tid. On a non-nil
// Telemetry it counts the chunk, adds its execution time to tid's busy time
// and traces it; on nil it costs one predictable branch. Called only from
// the worker that owns tid, between fork and join.
func (t *Telemetry) run(tid, begin, end int, fn func(tid, begin, end int)) {
	if t == nil {
		fn(tid, begin, end)
		return
	}
	start := time.Now()
	fn(tid, begin, end)
	d := time.Since(start)
	t.tracer.Emit("sched", "chunk", -1, tid, int64(end-begin), start, d)
	s := &t.slots[tid]
	s.chunks++
	s.busyNs += int64(d)
}
