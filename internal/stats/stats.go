// Package stats provides the phase timers and convergence traces behind the
// paper's measurements: per-kernel time breakdown (MTTKRP / ADMM / other,
// Fig. 3), convergence-vs-time and convergence-vs-iteration traces (Fig. 6),
// and CSV/ASCII rendering for the experiment harness.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase labels the kernels the paper's breakdown distinguishes.
type Phase string

// Phases of the factorization, per Fig. 3, plus one-time preprocessing
// (CSF construction) which the paper's breakdown excludes.
const (
	PhaseMTTKRP Phase = "MTTKRP"
	PhaseADMM   Phase = "ADMM"
	PhaseOther  Phase = "OTHER"
	PhaseSetup  Phase = "SETUP"
)

// Breakdown is wall time per phase. A solve's breakdown is derived from its
// top-level kernel rows (Metrics.Breakdown). All methods are safe for
// concurrent use.
type Breakdown struct {
	mu        sync.Mutex
	durations map[Phase]time.Duration
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{durations: make(map[Phase]time.Duration)}
}

// Add accumulates d into phase p.
func (b *Breakdown) Add(p Phase, d time.Duration) {
	b.mu.Lock()
	b.durations[p] += d
	b.mu.Unlock()
}

// Get returns the accumulated time for phase p.
func (b *Breakdown) Get(p Phase) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.durations[p]
}

// Total returns the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t time.Duration
	for _, d := range b.durations {
		t += d
	}
	return t
}

// snapshot returns a copy of the accumulated durations.
func (b *Breakdown) snapshot() map[Phase]time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[Phase]time.Duration, len(b.durations))
	for p, d := range b.durations {
		out[p] = d
	}
	return out
}

// Fractions returns each phase's share of the total, in [0, 1]. An empty
// breakdown returns an empty map.
func (b *Breakdown) Fractions() map[Phase]float64 {
	snap := b.snapshot()
	var total time.Duration
	for _, d := range snap {
		total += d
	}
	out := make(map[Phase]float64, len(snap))
	if total == 0 {
		return out
	}
	for p, d := range snap {
		out[p] = float64(d) / float64(total)
	}
	return out
}

// String renders the breakdown sorted by phase name.
func (b *Breakdown) String() string {
	fr := b.Fractions()
	phases := make([]string, 0, len(fr))
	for p := range fr {
		phases = append(phases, string(p))
	}
	sort.Strings(phases)
	parts := make([]string, 0, len(phases))
	for _, p := range phases {
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", p, 100*fr[Phase(p)]))
	}
	return strings.Join(parts, " ")
}

// TracePoint is one outer-iteration sample of a convergence trace.
type TracePoint struct {
	Iteration int
	Elapsed   time.Duration
	RelErr    float64
	// InnerIters is the total ADMM inner iterations this outer iteration
	// (summed over modes; max per block for blocked runs).
	InnerIters int
}

// Trace is a convergence trajectory (Fig. 6's raw data).
type Trace struct {
	Points []TracePoint
}

// Append records a sample.
func (t *Trace) Append(p TracePoint) { t.Points = append(t.Points, p) }

// Final returns the last recorded point (zero value when empty).
func (t *Trace) Final() TracePoint {
	if len(t.Points) == 0 {
		return TracePoint{}
	}
	return t.Points[len(t.Points)-1]
}

// BestRelErr returns the minimum relative error seen, or +1 when empty.
func (t *Trace) BestRelErr() float64 {
	best := 1.0
	for _, p := range t.Points {
		if p.RelErr < best {
			best = p.RelErr
		}
	}
	return best
}

// TimeToRelErr returns the elapsed time of the first point at or below the
// target error, and whether it was reached.
func (t *Trace) TimeToRelErr(target float64) (time.Duration, bool) {
	for _, p := range t.Points {
		if p.RelErr <= target {
			return p.Elapsed, true
		}
	}
	return 0, false
}

// ItersToRelErr returns the first outer iteration at or below the target
// error, and whether it was reached.
func (t *Trace) ItersToRelErr(target float64) (int, bool) {
	for _, p := range t.Points {
		if p.RelErr <= target {
			return p.Iteration, true
		}
	}
	return 0, false
}

// WriteCSV emits "iteration,seconds,relerr,inner_iters" rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "iteration,seconds,relerr,inner_iters"); err != nil {
		return err
	}
	for _, p := range t.Points {
		if _, err := fmt.Fprintf(w, "%d,%.6f,%.8f,%d\n",
			p.Iteration, p.Elapsed.Seconds(), p.RelErr, p.InnerIters); err != nil {
			return err
		}
	}
	return nil
}

// Table renders rows of labelled values as a fixed-width ASCII table, the
// harness's human-readable output format.
type Table struct {
	Headers []string
	Rows    [][]string
}

// AddRow appends formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[min(i, len(widths)-1)], c)
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Headers, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
