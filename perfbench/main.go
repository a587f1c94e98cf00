// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It generates its own inputs from a seed, drives the factorizer and the
// serving daemon only through their public entry points, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. See README.md for the workloads and the metric definitions.
//
//	go run . -workload nell-admm -seed 1 -seconds 15 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"aoadmm/internal/datasets"
	"aoadmm/internal/obs"
	"aoadmm/internal/tensor"
)

// defaultSeed drives inputs unless -seed says otherwise; heldOutSeed is the
// seed kept aside so a later performance claim can be rechecked on inputs
// not used while writing it. Both have recorded references in refs.json.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// threads bounds every workload: each runs on at most 2 threads and 2
// connections, so its figures compare across hosts with 2 or more cores.
const threads = 2

// workloads are listed, with the reason each was chosen, in BENCHMARK.json.
var workloads = []struct {
	name string
	run  func(rc *runCtx)
}{
	{"nell-admm", runNELL},
	{"patents-mttkrp", runPatents},
	{"reddit-shards", runRedditShards},
	{"amazon-query", runAmazonQuery},
}

// runCtx is one workload run: its parameters, its report, and (traced runs)
// the tracer whose spans become the Chrome trace.
type runCtx struct {
	seed    int64
	seconds time.Duration
	traced  bool
	workDir string
	rep     *report
	tr      *obs.Tracer
}

// deadline is when the measured part of the run should stop starting new
// rounds.
func (rc *runCtx) measureUntil() time.Time { return time.Now().Add(rc.seconds) }

// input generates a dataset proxy at medium scale with the run's seed.
// Generation is not part of any timed phase.
func (rc *runCtx) input(name string) *tensor.COO {
	spec, err := datasets.Get(name)
	if err != nil {
		fatal(err)
	}
	spec = spec.At(datasets.Medium)
	spec.Seed = rc.seed
	x, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: spec.Dims, NNZ: spec.NNZ, Rank: spec.Rank, Skew: spec.Skew,
		FactorDensity: spec.FactorDensity, NoiseStd: spec.NoiseStd, Seed: spec.Seed,
	})
	if err != nil {
		fatal(fmt.Errorf("generating %s: %w", name, err))
	}
	rc.rep.set("input.nnz", "count", float64(x.NNZ()))
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\" for every workload untraced and traced")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (recheck claims on the held-out seed %d too)", heldOutSeed))
	seconds := flag.Int("seconds", 15, "how long the measured part of a run lasts")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the traced variant twice and assert the exact counters repeat")
	record := flag.Bool("record", false, "write this seed's references into refs.json instead of checking them")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traces and scratch files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	runtime.GOMAXPROCS(threads)

	if *name == "all" {
		runAll(*seed, *seconds, *out)
		return
	}
	idx := -1
	for i := range workloads {
		if workloads[i].name == *name {
			idx = i
		}
	}
	if idx < 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	w := workloads[idx]
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	run := func() *runCtx {
		workDir, err := os.MkdirTemp(*out, w.name+"-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(workDir)
		rc := &runCtx{
			seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			traced:  *trace == 1 || *selfcheck,
			workDir: workDir, rep: newReport(w.name),
		}
		if rc.traced {
			rc.tr = obs.NewWithCapacity(threads, 1<<16)
		}
		w.run(rc)
		return rc
	}
	rc := run()
	if *selfcheck {
		again := run()
		for _, c := range exactCounters {
			rc.rep.check(rc.rep.values[c] == again.rep.values[c],
				"counter %s repeats exactly: %v then %v", c, rc.rep.values[c], again.rep.values[c])
		}
		rc.rep.check(manifestMatches(), "BENCHMARK.json lists the metrics this program reports")
	}
	recordPeakRSS(rc.rep)
	defs := endToEnd
	if rc.traced {
		defs = perLayer
		for _, d := range perLayer {
			if _, ok := rc.rep.values[d.name]; !ok {
				rc.rep.set(d.name, d.unit, 0) // a layer this workload does not touch
			}
		}
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if rc.rep.op(rc.tr.WriteChromeFile(path), "writing Chrome trace") {
			fmt.Printf("%-15s chrome trace: %s (%d spans, %d dropped)\n", w.name, path, len(rc.tr.Events()), rc.tr.Dropped())
		}
		rc.rep.check(rc.tr.Dropped() == 0, "tracer dropped %d spans", rc.tr.Dropped())
	}
	res := rc.rep.result(defs)
	rc.rep.print()
	printJSON(res)
	if *record {
		if err := recordRefs(w.name, *seed, rc.rep); err != nil {
			fatal(err)
		}
	}
}

// runAll runs every workload in its own process, untraced and then traced,
// so each workload's peak memory is its own. The last line merges the runs'
// results, with metric names prefixed by workload (and "traced." for the
// per-layer ones).
func runAll(seed int64, seconds int, out string) {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
			cmd.Stderr = os.Stderr
			b, runErr := cmd.Output()
			os.Stdout.Write(b)
			var res result
			if err := json.Unmarshal(lastLine(b), &res); err != nil || runErr != nil {
				fmt.Printf("FAIL %s trace=%d: %v %v\n", w.name, trace, runErr, err)
				all.Correct = false
				all.Attempted++
				all.Failed++
				continue
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			prefix := w.name + "."
			if trace == 1 {
				prefix += "traced."
			}
			for k, v := range res.Metrics {
				all.Metrics[prefix+k] = v
			}
		}
	}
	printJSON(all)
	if !all.Correct {
		os.Exit(1)
	}
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\r\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// manifestMatches reports whether BENCHMARK.json (read from the working
// directory, the repository root) declares exactly the metrics and
// workloads this program reports, with the same units.
func manifestMatches() bool {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Println("manifest:", err)
		return false
	}
	var m struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		fmt.Println("manifest:", err)
		return false
	}
	same := func(got []struct{ Name, Unit string }, want []metricDef) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return false
			}
		}
		return true
	}
	ok := same(m.EndToEnd, endToEnd) && same(m.PerLayer, perLayer) && len(m.Workloads) == len(workloads)
	for i := 0; ok && i < len(workloads); i++ {
		ok = m.Workloads[i].Name == workloads[i].name
	}
	return ok
}
