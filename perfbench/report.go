package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
)

// endToEnd are the metrics a user of the factorizer or the daemon sees.
// Every workload reports every one of them with tracing off. setup_s and
// work_cpu_s are CPU times (see clock.go). op_p50_ms is the median cost of
// the workload's unit operation: the median outer iteration's CPU time for
// the solve workloads, and for amazon-query the median wall latency of a
// top-K request the result cache did not answer (the cached share is
// serve.cache_hit_frac, and a cache that stops hitting shows in
// work_cpu_s). README.md says what "work" and "op" are per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_cpu_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's per-layer metrics, named <module>.<metric>.
// A layer a workload does not touch reports 0.
var perLayer = []metricDef{
	{"csf.build_s", "s"},
	{"mttkrp.calls", "count"},
	{"mttkrp.s", "s"},
	{"mttkrp.flops", "flop"},
	{"mttkrp.gflops", "GFLOP/s"},
	{"dense.gram_calls", "count"},
	{"dense.gram_s", "s"},
	{"admm.calls", "count"},
	{"admm.s", "s"},
	{"admm.row_iters", "count"},
	{"admm.blocks", "count"},
	{"admm.one_iter_frac", "1"},
	{"admm.max_iter_frac", "1"},
	{"admm.rows_per_s", "rows/s"},
	{"kruskal.fit_s", "s"},
	{"core.outer_iters", "count"},
	{"core.self_s", "s"},
	{"ooc.convert_s", "s"},
	{"ooc.bytes_written", "B"},
	{"ooc.shards", "count"},
	{"ooc.shard_loads", "count"},
	{"ooc.bytes_read", "B"},
	{"ooc.decode_s", "s"},
	{"ooc.decode_mb_s", "MB/s"},
	{"ooc.prefetch_stalls", "count"},
	{"ooc.stall_s", "s"},
	{"distnet.mttkrp_bytes", "B"},
	{"distnet.factor_bytes", "B"},
	{"distnet.gram_bytes", "B"},
	{"distnet.messages", "count"},
	{"distnet.wire_bytes", "B"},
	{"distnet.epochs", "count"},
	{"distnet.reduce_scatter_s", "s"},
	{"distnet.admm_rows_s", "s"},
	{"distnet.factor_bcast_s", "s"},
	{"distnet.shard_load_s", "s"},
	{"serve.cache_hit_frac", "1"},
	{"serve.batched_frac", "1"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.query_errors", "count"},
	{"kruskal.index_build_s", "s"},
	{"kruskal.topk_ms_p50", "ms"},
	{"kruskal.index_pruned_frac", "1"},
	{"kruskal.foldin_ms_p50", "ms"},
	{"kruskal.foldin_iters", "count"},
	{"trace.overhead_frac", "1"},
}

// exactCounters must repeat bit for bit on one seed (the -selfcheck mode
// asserts it), so later changes can cite them as counts.
var exactCounters = []string{
	"mttkrp.flops", "admm.row_iters", "core.outer_iters",
	"ooc.shard_loads", "ooc.bytes_read",
	"distnet.mttkrp_bytes", "distnet.factor_bytes", "distnet.gram_bytes", "distnet.messages",
}

type metricDef struct{ name, unit string }

// report collects one run's metrics, diagnostics and check outcomes.
// attempted counts solves, requests and output checks; failed counts the
// ones that errored or did not hold.
type report struct {
	workload  string
	values    map[string]float64
	units     map[string]string
	order     []string
	attempted int
	failed    int
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}, units: map[string]string{}}
}

// set records a metric or diagnostic; a later set of the same name wins.
func (r *report) set(name, unit string, v float64) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = v
	r.units[name] = unit
}

// op counts one attempted operation and reports whether it succeeded.
func (r *report) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Printf("FAIL %s: %s: %v\n", r.workload, what, err)
		return false
	}
	return true
}

// check counts one output check.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Printf("FAIL %s: check: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

// checkClose checks |got-want| <= tol*|want|.
func (r *report) checkClose(what string, got, want, tol float64) bool {
	return r.check(math.Abs(got-want) <= tol*math.Abs(want),
		"%s = %.12g, want %.12g (rel tol %g)", what, got, want, tol)
}

// print writes every recorded value, one "workload name = value unit" line
// each, in recording order.
func (r *report) print() {
	for _, name := range r.order {
		fmt.Printf("%-15s %-28s = %-14.6g %s\n", r.workload, name, r.values[name], r.units[name])
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-15s %-28s = %-14.6g 1   (%d failed of %d attempted)\n", r.workload, "fail_frac", frac, r.failed, r.attempted)
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the JSON result from the given metric list. A listed metric
// the run did not record is itself a failure.
func (r *report) result(defs []metricDef) result {
	out := result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !r.check(ok, "metric %s was not recorded", d.name) {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0
	return out
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// recordPeakRSS sets peak_rss_mb to the process's peak resident memory so
// far, unless it is already set. The peak never falls, so a workload that
// runs extra work of its own (a reference solve for a check) records it
// before that work, and main records it for every other workload at exit.
func recordPeakRSS(r *report) {
	if _, ok := r.values["peak_rss_mb"]; ok {
		return
	}
	if rss, err := peakRSSMiB(); r.op(err, "peak rss") {
		r.set("peak_rss_mb", "MiB", rss)
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
