package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aoadmm/internal/core"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/obs"
	"aoadmm/internal/prox"
	"aoadmm/internal/serve"
	"aoadmm/internal/tensor"
)

// Query workload shape. Each round sends roundRequests requests through
// queryClients closed-loop clients: about 90% top-K over mode 1 (9,000 rows,
// above the daemon's index threshold) and about 10% fold-ins of a mode-0
// entity from foldInObs of its observations. Both ask for the top queryK
// matches. The questions come from the data: a top-K request anchors the
// mode-0 row of a uniformly drawn non-zero, so rows are asked about as
// often as they hold entries, with the proxy's mode-0 skew, and popular
// rows repeat and hit the daemon's result cache.
const (
	queryClients  = 2
	roundRequests = 400
	foldInShare   = 0.1
	foldInObs     = 20
	topKTarget    = 1
	queryK        = 10
	// fitBudget bounds the set-up fit of the served model.
	fitBudget = 10
	// checkEvery samples the served answers compared against a plain scan.
	checkEvery = 10
)

// request is one pre-generated HTTP request of the stream.
type request struct {
	foldIn  bool
	k       int
	anchors map[int]int
	obs     []kruskal.FoldInObservation
	body    []byte
}

// response is what a client saw for one request.
type response struct {
	ms      float64
	status  int
	cached  bool
	matches []kruskal.Match
	iters   int
}

// daemon is a serve.Server holding one registered model, listening on
// loopback.
type daemon struct {
	srv   *serve.Server
	http  *http.Server
	base  string // http://host:port
	url   string // base + /models/{id}
	model *serve.Model
	done  chan error
}

func startDaemon(dir string, fit *core.Result) (*daemon, error) {
	srv, err := serve.New(serve.Config{DataDir: dir, Workers: 1})
	if err != nil {
		return nil, err
	}
	m, err := srv.Registry().Register(serve.ModelMeta{
		Name: "amazon", Algo: "aoadmm", Constraint: "nonneg",
		RelErr: fit.RelErr, OuterIters: fit.OuterIters, Converged: fit.Converged,
	}, fit.Factors, nil)
	if err != nil {
		srv.Shutdown(time.Second)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(time.Second)
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, model: m, done: make(chan error, 1)}
	d.base = "http://" + ln.Addr().String()
	d.url = d.base + "/models/" + m.Meta.ID
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP listener and the daemon down and waits for Serve to
// return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.http.Shutdown(ctx)
	<-d.done
	d.srv.Shutdown(5 * time.Second)
}

// metrics reads the daemon's query counters from GET /metrics.
func (d *daemon) metrics(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m struct {
		Daemon struct {
			Queries     float64 `json:"queries"`
			QueryErrors float64 `json:"query_errors"`
			Cache       struct {
				Hits, Misses float64
			} `json:"topk_cache"`
			Batch struct {
				Batched float64 `json:"batched_queries"`
			} `json:"topk_batch"`
			Index struct {
				Scanned float64 `json:"clusters_scanned"`
				Pruned  float64 `json:"clusters_pruned"`
			} `json:"topk_index"`
		} `json:"daemon"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	dm := m.Daemon
	return map[string]float64{
		"queries": dm.Queries, "query_errors": dm.QueryErrors,
		"hits": dm.Cache.Hits, "misses": dm.Cache.Misses, "batched": dm.Batch.Batched,
		"scanned": dm.Index.Scanned, "pruned": dm.Index.Pruned,
	}, nil
}

// runAmazonQuery serves a fitted Amazon-proxy model over loopback HTTP to
// two closed-loop clients.
func runAmazonQuery(rc *runCtx) {
	r := rc.rep
	x := rc.input("amazon")
	p := solveParams{rank: 32, outer: fitBudget, threads: threads, seed: rc.seed}

	// The served model is fitted once, untimed like input generation: its
	// cost is ADMM and MTTKRP work the solve workloads measure, and it
	// depends on the seed far more than the serving set-up costs (README.md).
	fit, err := timedSolve(p, func(opts core.Options) (*core.Result, error) { return core.Factorize(x, opts) })
	if !r.op(err, "fitting the served model") {
		return
	}
	r.set("final_relerr", "1", fit.res.RelErr)
	r.set("fit_s", "s", fit.wall.Seconds())
	r.set("fit_cpu_s", "s", fit.cpu.Seconds())
	checkRounds(r, "served model fit", x, p, []solveRound{fit})

	// Set-up: daemon start, registration (which builds the mode-1 cluster
	// index) and listener.
	var d *daemon
	release := func() {
		if d != nil {
			d.stop()
		}
		d = nil
	}
	setups, err := timeSetup(rc.traced, release, func(i int) error {
		var err error
		d, err = startDaemon(filepath.Join(rc.workDir, fmt.Sprintf("daemon-%d", i)), fit.res)
		return err
	})
	if d != nil {
		defer d.stop()
	}
	if !r.op(err, "set-up") {
		return
	}
	r.set("setup_s", "s", median(setups))
	r.set("setup_runs", "count", float64(len(setups)))

	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: queryClients, MaxConnsPerHost: queryClients},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	before, err := d.metrics(client)
	if !r.op(err, "reading /metrics") {
		return
	}

	gen := newQueryGen(x, rc.seed)
	var topkMS, topkMissMS, foldMS, walls, cpus, iters []float64
	var first []request
	var firstResp []response
	until := rc.measureUntil()
	for round := 0; round == 0 || time.Now().Before(until); round++ {
		reqs := gen.round()
		collect()
		t0 := now()
		resps := d.serveRound(client, reqs, rc.tr)
		wall, cpu := t0.since()
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		for i, resp := range resps {
			if !r.op(statusErr(resp.status), "HTTP request") {
				continue
			}
			if reqs[i].foldIn {
				foldMS = append(foldMS, resp.ms)
				iters = append(iters, float64(resp.iters))
				continue
			}
			topkMS = append(topkMS, resp.ms)
			if !resp.cached {
				topkMissMS = append(topkMissMS, resp.ms)
			}
		}
		if round == 0 {
			first, firstResp = reqs, resps
		}
	}
	after, err := d.metrics(client)
	if !r.op(err, "reading /metrics") {
		return
	}

	r.set("work_cpu_s", "s", median(cpus))
	r.set("op_p50_ms", "ms", median(topkMissMS))
	r.set("round_s", "s", median(walls))
	r.set("topk_p50_ms", "ms", median(topkMS))
	r.set("topk_uncached_p50_ms", "ms", median(topkMissMS))
	r.set("topk_uncached_samples", "count", float64(len(topkMissMS)))
	r.set("topk_p90_ms", "ms", quantile(topkMS, 0.9))
	r.set("topk_samples", "count", float64(len(topkMS)))
	r.set("foldin_p50_ms", "ms", median(foldMS))
	r.set("foldin_p90_ms", "ms", quantile(foldMS, 0.9))
	r.set("foldin_samples", "count", float64(len(foldMS)))
	r.set("query_rounds", "count", float64(len(walls)))
	r.set("qps", "1/s", float64(roundRequests)/median(walls))
	checkAnswers(r, d.model.K, first, firstResp)
	checkRefs(r, rc.seed)

	delta := func(k string) float64 { return after[k] - before[k] }
	r.check(delta("query_errors") == 0, "the daemon counted %v query errors", delta("query_errors"))
	if !rc.traced {
		return
	}
	r.set("serve.cache_hit_frac", "1", delta("hits")/(delta("hits")+delta("misses")))
	r.set("serve.batched_frac", "1", delta("batched")/delta("misses"))
	r.set("serve.query_errors", "count", delta("query_errors"))
	r.set("kruskal.index_pruned_frac", "1", delta("pruned")/(delta("pruned")+delta("scanned")))
	r.set("kruskal.foldin_iters", "count", median(iters))
	directQueries(rc, d.model, first)
	r.set("serve.http_overhead_ms", "ms", median(topkMissMS)-r.values["kruskal.topk_ms_p50"])

	// The served model's fit, replayed with layer spans like the solve
	// workloads.
	tracedInMemory(rc, x, p)
}

func statusErr(status int) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	return nil
}

// serveRound sends reqs through queryClients closed-loop clients and
// returns each request's response in request order.
func (d *daemon) serveRound(client *http.Client, reqs []request, tr *obs.Tracer) []response {
	out := make([]response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < queryClients; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				path, name := "/topk", "topk"
				if reqs[i].foldIn {
					path, name = "/foldin", "foldin"
				}
				sp := tr.Begin("serve", name, -1, tid, int64(i))
				out[i] = d.post(client, path, reqs[i].body)
				sp.End()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// post sends one request and decodes the answer.
func (d *daemon) post(client *http.Client, path string, body []byte) response {
	t0 := time.Now()
	resp, err := client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return response{ms: float64(time.Since(t0)) / 1e6}
	}
	defer resp.Body.Close()
	var v struct {
		Cached  bool            `json:"cached"`
		Matches []kruskal.Match `json:"matches"`
		Iters   int             `json:"iters"`
	}
	b, err := io.ReadAll(resp.Body)
	ms := float64(time.Since(t0)) / 1e6
	if err != nil || json.Unmarshal(b, &v) != nil {
		return response{ms: ms}
	}
	return response{ms: ms, status: resp.StatusCode, cached: v.Cached, matches: v.Matches, iters: v.Iters}
}

// queryGen draws the seeded request stream.
type queryGen struct {
	rng   *rand.Rand
	x     *tensor.COO
	byRow map[int32][]int // mode-0 row -> its non-zeros
}

func newQueryGen(x *tensor.COO, seed int64) *queryGen {
	g := &queryGen{rng: rand.New(rand.NewSource(seed)), x: x, byRow: map[int32][]int{}}
	for p, i := range x.Inds[0] {
		g.byRow[i] = append(g.byRow[i], p)
	}
	for _, nz := range g.byRow {
		if len(nz) >= foldInObs {
			return g
		}
	}
	fatal(fmt.Errorf("no mode-0 row has the %d non-zeros a fold-in sends", foldInObs))
	return nil
}

// row returns the mode-0 row of a uniformly drawn non-zero and the row's
// non-zeros.
func (g *queryGen) row() (int32, []int) {
	i := g.x.Inds[0][g.rng.Intn(g.x.NNZ())]
	return i, g.byRow[i]
}

// round draws one round's requests.
func (g *queryGen) round() []request {
	reqs := make([]request, roundRequests)
	for i := range reqs {
		if g.rng.Float64() < foldInShare {
			reqs[i] = g.foldIn()
			continue
		}
		anchor, _ := g.row()
		body := map[string]any{"anchors": map[string]int{"0": int(anchor)}, "target_mode": topKTarget, "k": queryK}
		reqs[i] = request{k: queryK, anchors: map[int]int{0: int(anchor)}, body: mustJSON(body)}
	}
	return reqs
}

// foldIn draws a fold-in request: foldInObs observations of a row drawn as
// in row, redrawn until the row has that many.
func (g *queryGen) foldIn() request {
	_, nz := g.row()
	for len(nz) < foldInObs {
		_, nz = g.row()
	}
	type obsJSON struct {
		Coords map[string]int `json:"coords"`
		Value  float64        `json:"value"`
	}
	body := struct {
		Mode         int       `json:"mode"`
		Observations []obsJSON `json:"observations"`
		TargetMode   int       `json:"target_mode"`
		K            int       `json:"k"`
	}{Mode: 0, TargetMode: topKTarget, K: queryK}
	var obs []kruskal.FoldInObservation
	for _, j := range g.rng.Perm(len(nz))[:foldInObs] {
		p := nz[j]
		c1, c2 := int(g.x.Inds[1][p]), int(g.x.Inds[2][p])
		obs = append(obs, kruskal.FoldInObservation{Coords: map[int]int{1: c1, 2: c2}, Value: g.x.Vals[p]})
		body.Observations = append(body.Observations, obsJSON{
			Coords: map[string]int{"1": c1, "2": c2}, Value: g.x.Vals[p]})
	}
	return request{foldIn: true, k: queryK, obs: obs, body: mustJSON(body)}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	return b
}

// checkAnswers compares every checkEvery-th answer of a round with the
// same question put to the model directly: top-K against a plain scan
// with no index, fold-in against kruskal's FoldIn and a plain scan.
func checkAnswers(r *report, k *kruskal.Tensor, reqs []request, resps []response) {
	for i := 0; i < len(reqs); i += checkEvery {
		if resps[i].status != http.StatusOK {
			continue
		}
		q := kruskal.Query{Anchors: reqs[i].anchors, TargetMode: topKTarget, K: reqs[i].k, Threads: 1}
		if reqs[i].foldIn {
			fo, err := k.FoldIn(reqs[i].obs, kruskal.FoldInOptions{Mode: 0, Operator: prox.NonNegative{}})
			if !r.op(err, "direct fold-in") {
				continue
			}
			w, err := k.RecommendWeights(fo.Row)
			if !r.op(err, "fold-in weights") {
				continue
			}
			q = kruskal.Query{Weights: w, TargetMode: topKTarget, K: reqs[i].k, Threads: 1}
		}
		want, err := k.TopK(q)
		if !r.op(err, "plain top-K scan") {
			continue
		}
		r.check(slices.Equal(resps[i].matches, want), "request %d (foldin=%v) served %v, a plain scan gives %v",
			i, reqs[i].foldIn, resps[i].matches, want)
	}
}

// directQueries times the round's questions put to the model in process,
// the way the daemon answers them (same index, CSR image and thread
// count), and the index build.
func directQueries(rc *runCtx, m *serve.Model, reqs []request) {
	r := rc.rep
	var topkMS, foldMS []float64
	for i, req := range reqs {
		t0 := time.Now()
		var err error
		if req.foldIn {
			span(rc.tr, "kruskal", "foldin", -1, func() {
				var fo *kruskal.FoldInResult
				if fo, err = m.K.FoldIn(req.obs, kruskal.FoldInOptions{Mode: 0, Operator: prox.NonNegative{}}); err != nil {
					return
				}
				var w []float64
				if w, err = m.K.RecommendWeights(fo.Row); err != nil {
					return
				}
				_, err = m.K.TopK(kruskal.Query{Weights: w, TargetMode: topKTarget, K: req.k, Threads: threads,
					TargetLeaf: m.Leaf(topKTarget), Index: m.Index(topKTarget)})
			})
			foldMS = append(foldMS, float64(time.Since(t0))/1e6)
		} else {
			span(rc.tr, "kruskal", "topk", -1, func() {
				_, err = m.K.TopK(kruskal.Query{Anchors: req.anchors, TargetMode: topKTarget, K: req.k, Threads: threads,
					TargetLeaf: m.Leaf(topKTarget), Index: m.Index(topKTarget)})
			})
			topkMS = append(topkMS, float64(time.Since(t0))/1e6)
		}
		r.op(err, "direct query "+strconv.Itoa(i))
	}
	r.set("kruskal.topk_ms_p50", "ms", median(topkMS))
	r.set("kruskal.foldin_ms_p50", "ms", median(foldMS))
	var builds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		span(rc.tr, "kruskal", "build_index", topKTarget, func() { _, err = m.K.BuildIndex(topKTarget, 0, 0) })
		builds = append(builds, time.Since(t0).Seconds())
		r.op(err, "building the mode-1 index")
	}
	r.set("kruskal.index_build_s", "s", median(builds))
}
