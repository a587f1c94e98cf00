package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestBreakdownAccumulates(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseMTTKRP, 2*time.Second)
	b.Add(PhaseADMM, time.Second)
	b.Add(PhaseMTTKRP, time.Second)
	b.Add(PhaseOther, time.Second)
	if b.Get(PhaseMTTKRP) != 3*time.Second {
		t.Fatalf("MTTKRP = %v", b.Get(PhaseMTTKRP))
	}
	if b.Total() != 5*time.Second {
		t.Fatalf("Total = %v", b.Total())
	}
	fr := b.Fractions()
	if math.Abs(fr[PhaseMTTKRP]-0.6) > 1e-12 || math.Abs(fr[PhaseADMM]-0.2) > 1e-12 {
		t.Fatalf("Fractions = %v", fr)
	}
}

func TestBreakdownEmptyFractions(t *testing.T) {
	b := NewBreakdown()
	if len(b.Fractions()) != 0 {
		t.Fatal("empty breakdown must have no fractions")
	}
	if b.String() != "" {
		t.Fatalf("empty String = %q", b.String())
	}
}

func TestBreakdownString(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseMTTKRP, time.Second)
	b.Add(PhaseADMM, time.Second)
	s := b.String()
	if !strings.Contains(s, "MTTKRP=50.0%") || !strings.Contains(s, "ADMM=50.0%") {
		t.Fatalf("String = %q", s)
	}
}

func traceFixture() *Trace {
	tr := &Trace{}
	tr.Append(TracePoint{Iteration: 1, Elapsed: time.Second, RelErr: 0.9, InnerIters: 10})
	tr.Append(TracePoint{Iteration: 2, Elapsed: 2 * time.Second, RelErr: 0.6, InnerIters: 8})
	tr.Append(TracePoint{Iteration: 3, Elapsed: 3 * time.Second, RelErr: 0.65, InnerIters: 5})
	return tr
}

func TestTraceQueries(t *testing.T) {
	tr := traceFixture()
	if f := tr.Final(); f.Iteration != 3 || f.RelErr != 0.65 {
		t.Fatalf("Final = %+v", f)
	}
	if b := tr.BestRelErr(); b != 0.6 {
		t.Fatalf("BestRelErr = %v", b)
	}
	if d, ok := tr.TimeToRelErr(0.7); !ok || d != 2*time.Second {
		t.Fatalf("TimeToRelErr = %v %v", d, ok)
	}
	if _, ok := tr.TimeToRelErr(0.1); ok {
		t.Fatal("unreachable target must report false")
	}
	if it, ok := tr.ItersToRelErr(0.9); !ok || it != 1 {
		t.Fatalf("ItersToRelErr = %v %v", it, ok)
	}
	empty := &Trace{}
	if empty.Final().Iteration != 0 || empty.BestRelErr() != 1 {
		t.Fatal("empty trace defaults wrong")
	}
}

func TestTraceCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := traceFixture().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[0] != "iteration,seconds,relerr,inner_iters" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,1.000000,0.90000000,10") {
		t.Fatalf("row 1 = %q", lines[1])
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := &Table{Headers: []string{"dataset", "seconds"}}
	tbl.AddRow("reddit", "1.5")
	tbl.AddRow("amazon-very-long-name", "20")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dataset") || !strings.Contains(out, "amazon-very-long-name") {
		t.Fatalf("render = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "dataset,seconds\nreddit,1.5\n") {
		t.Fatalf("csv = %q", buf.String())
	}
}
