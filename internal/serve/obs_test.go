package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"aoadmm/internal/obs"
	"aoadmm/internal/stats"
)

// slowBody is a request body that stalls for delay before reporting EOF, so
// the handler blocks in its JSON decode well past the request timeout while
// the connection still completes cleanly afterwards.
type slowBody struct {
	delay time.Duration
	once  bool
}

func (b *slowBody) Read(p []byte) (int, error) {
	if !b.once {
		b.once = true
		time.Sleep(b.delay)
	}
	return 0, io.EOF
}

// TestTimeoutBodyIsJSON is the regression test for the TimeoutHandler
// Content-Type bug: the timeout body is JSON but net/http writes it without a
// Content-Type header, so clients sniffed it as text/plain. The handler stack
// must default it to application/json.
func TestTimeoutBodyIsJSON(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Workers: 1, QueueCap: 2, RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(5 * time.Second)

	// POST /jobs blocks decoding the stalled body until the request timeout
	// fires; the late-arriving EOF lets the exchange finish.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", &slowBody{delay: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeout Content-Type = %q, want application/json", ct)
	}
	var msg map[string]string
	if err := json.Unmarshal(body, &msg); err != nil {
		t.Fatalf("timeout body %q is not JSON: %v", body, err)
	}
	if msg["error"] == "" {
		t.Fatalf("timeout body %q missing error field", body)
	}
}

// TestHealthzExtended asserts the build/runtime/durability fields added to
// GET /healthz.
func TestHealthzExtended(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	var h struct {
		Status        string         `json:"status"`
		Models        int            `json:"models"`
		Jobs          map[string]int `json:"jobs"`
		UptimeSeconds float64        `json:"uptime_seconds"`
		GoVersion     string         `json:"go_version"`
		VCSRevision   string         `json:"vcs_revision"`
		Goroutines    int            `json:"goroutines"`
		Journal       struct {
			Path           string `json:"path"`
			Appends        int64  `json:"appends"`
			AppendFailures int64  `json:"append_failures"`
		} `json:"journal"`
	}
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h)
	if code != http.StatusOK {
		t.Fatalf("GET /healthz: %d %s", code, raw)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q, want ok", h.Status)
	}
	if h.GoVersion == "" {
		t.Fatal("go_version missing")
	}
	if h.VCSRevision == "" {
		t.Fatal("vcs_revision missing (want a hash or \"unknown\")")
	}
	if h.Goroutines <= 0 {
		t.Fatalf("goroutines = %d, want > 0", h.Goroutines)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("uptime_seconds = %v, want >= 0", h.UptimeSeconds)
	}
	if h.Journal.Path == "" {
		t.Fatal("journal.path missing")
	}
	if h.Jobs == nil {
		t.Fatal("jobs status counts missing")
	}
}

// TestPrometheusExposition runs a job to completion so kernel metrics exist,
// then scrapes GET /metrics?format=prometheus and validates the body against
// the text exposition format 0.0.4.
func TestPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	path := testTNS(t, []int{20, 15, 10}, 800, 7)

	var submitted JobView
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", JobSpec{
		TensorPath: path, Rank: 4, Constraint: "nonneg",
		MaxOuterIters: 10, Seed: 3, Name: "prom",
	}, &submitted)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	done := pollJob(t, ts.URL, submitted.ID, JobDone, 30*time.Second)

	// Exercise the query-latency histogram too.
	var entry map[string]any
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/models/"+done.ModelID+"/entry?at=0,0,0", nil, &entry); code != http.StatusOK {
		t.Fatalf("entry query: %d %s", code, raw)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, promContentType)
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, family := range []string{
		"aoadmm_jobs{status=\"done\"} 1",
		"aoadmm_queries_total",
		"aoadmm_query_latency_seconds_count",
		"aoadmm_kernel_seconds_total{kernel=\"mttkrp\",mode=\"0\"}",
		"aoadmm_kernel_seconds_total{kernel=\"prox\",mode=\"0\",parent=\"admm_inner\"}",
		"aoadmm_admm_solves_total",
		"aoadmm_admm_inner_iterations_bucket{le=\"+Inf\"}",
		"aoadmm_journal_appends_total",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("scrape missing %q", family)
		}
	}
	// JSON stays the default format.
	var js map[string]any
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &js); code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", code, raw)
	} else if js["daemon"] == nil {
		t.Fatalf("JSON metrics missing daemon section: %s", raw)
	}
}

// TestProgressStream submits a job that cannot finish on its own, streams
// GET /jobs/{id}/progress until at least two live trace points arrive, then
// cancels the job and asserts the stream ends with a terminal status line.
func TestProgressStream(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())

	var submitted JobView
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", slowJobSpec(t, 21), &submitted)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	pollJob(t, ts.URL, submitted.ID, JobRunning, 30*time.Second)

	resp, err := http.Get(ts.URL + "/jobs/" + submitted.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	points := 0
	lastIter := -1
	for points < 2 {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d points: %v", points, sc.Err())
		}
		var p progressPoint
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad progress line %q: %v", sc.Text(), err)
		}
		if p.Iteration <= lastIter {
			t.Fatalf("iterations not increasing: %d after %d", p.Iteration, lastIter)
		}
		lastIter = p.Iteration
		points++
	}

	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs/"+submitted.ID+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, raw)
	}
	// Drain remaining points until the terminal status line.
	var final progressFinal
	for {
		if !sc.Scan() {
			t.Fatalf("stream ended before terminal line: %v", sc.Err())
		}
		var probe map[string]any
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad progress line %q: %v", sc.Text(), err)
		}
		if _, ok := probe["status"]; ok {
			if err := json.Unmarshal(sc.Bytes(), &final); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if final.Status != string(JobCanceled) {
		t.Fatalf("final status = %q, want %q", final.Status, JobCanceled)
	}
	if sc.Scan() {
		t.Fatalf("unexpected line after terminal status: %q", sc.Text())
	}
}

// TestProgressUnknownJob asserts the progress endpoint 404s (with a JSON
// body) for jobs that do not exist.
func TestProgressUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp, err := http.Get(ts.URL + "/jobs/nope/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
}

// TestProgressReplayAfterDone asserts a finished job's progress stream
// replays the full history and terminates immediately.
func TestProgressReplayAfterDone(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	path := testTNS(t, []int{20, 15, 10}, 800, 9)

	var submitted JobView
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", JobSpec{
		TensorPath: path, Rank: 4, Constraint: "nonneg",
		MaxOuterIters: 5, Seed: 5, Name: "replay",
	}, &submitted)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	pollJob(t, ts.URL, submitted.ID, JobDone, 30*time.Second)

	resp, err := http.Get(ts.URL + "/jobs/" + submitted.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	points := 0
	sawFinal := false
	for sc.Scan() {
		var probe map[string]any
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if _, ok := probe["status"]; ok {
			sawFinal = true
			break
		}
		points++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if points == 0 {
		t.Fatal("replay produced no trace points")
	}
	if !sawFinal {
		t.Fatal("replay missing terminal status line")
	}
}

// TestCollectMetricsFalseStillReports submits a job carrying the deprecated
// "collect_metrics": false: the strict decoder still accepts it, and the
// job still leaves its aoadmm-metrics/v1 report in /metrics.
func TestCollectMetricsFalseStillReports(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	path := testTNS(t, []int{20, 15, 10}, 800, 8)
	var submitted JobView
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", map[string]any{
		"tensor_path": path, "rank": 3, "constraint": "nonneg",
		"max_outer": 4, "seed": 1, "collect_metrics": false,
	}, &submitted)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	pollJob(t, ts.URL, submitted.ID, JobDone, 30*time.Second)

	var metrics struct {
		Jobs map[string]stats.Report `json:"jobs"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	rep, ok := metrics.Jobs[submitted.ID]
	if !ok || rep.Schema != stats.MetricsSchema || len(rep.Kernels) == 0 {
		t.Fatalf("job %s has no report: %+v", submitted.ID, metrics.Jobs)
	}
}
