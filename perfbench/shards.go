package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"aoadmm/internal/core"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/distnet"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/obs"
	"aoadmm/internal/ooc"
	"aoadmm/internal/tensor"
)

// shardBytes sizes the Reddit proxy's shards so the store has several
// (4 at medium scale): enough for the prefetcher to overlap loads with
// compute, and for the two distnet workers to own two shards each.
const shardBytes = 1 << 20

// oocParityTol bounds the OOC solve's drift from the in-memory solve of
// the same tensor: shard-partial MTTKRPs sum in a different order.
const oocParityTol = 1e-6

// runRedditShards converts the Reddit proxy into a shard store, then solves
// it out of core and as a 2-worker loopback distnet job.
func runRedditShards(rc *runCtx) {
	r := rc.rep
	x := rc.input("reddit")
	p := solveParams{rank: 32, outer: solveBudget, threads: threads, seed: rc.seed}

	var st *ooc.ShardedTensor
	release := func() {
		if st != nil {
			os.RemoveAll(st.Dir())
		}
		st = nil
	}
	setups, err := timeSetup(rc.traced, release, func(i int) error {
		var err error
		st, err = convertAndOpen(rc.tr, x, filepath.Join(rc.workDir, fmt.Sprintf("reddit-%d.aoshard", i)))
		return err
	})
	if !r.op(err, "converting the shard store") {
		return
	}
	r.set("setup_s", "s", median(setups))
	r.set("setup_runs", "count", float64(len(setups)))
	r.set("ooc.shards", "count", float64(st.NumShards()))
	written, err := dirBytes(st.Dir())
	if r.op(err, "sizing the shard store") {
		r.set("ooc.bytes_written", "B", float64(written))
	}

	cl, err := startCluster(2)
	if !r.op(err, "starting the distnet cluster") {
		return
	}
	defer cl.stop()
	job := distnet.JobOptions{
		JobID: "perfbench", ShardDir: st.Dir(), Rank: p.rank, Constraint: "nonneg",
		MaxOuterIters: p.outer, Threads: 1, Seed: p.seed, Workers: 2, WaitForWorkers: 2,
	}
	oocSolve := func(opts core.Options) (*core.Result, error) { return core.FactorizeOOC(st, opts) }

	if rc.traced {
		tracedShards(rc, x, st, p, oocSolve, cl, job)
		return
	}

	var oocRounds, distRounds []solveRound
	var comms []*distnet.JobResult
	var works []float64
	until := rc.measureUntil()
	for len(oocRounds) == 0 || time.Now().Before(until) {
		collect()
		round, err := timedSolve(p, oocSolve)
		if !r.op(err, "OOC solve") {
			break
		}
		oocRounds = append(oocRounds, round.settle(x))
		collect()
		dround, res, err := timedJob(cl.coord, job)
		if !r.op(err, "distnet job") {
			break
		}
		distRounds = append(distRounds, dround.settle(x))
		comms = append(comms, &distnet.JobResult{Comm: res.Comm, Epochs: res.Epochs,
			WireBytesSent: res.WireBytesSent, WireBytesReceived: res.WireBytesReceived})
		works = append(works, (round.cpu + dround.cpu).Seconds())
	}
	recordRounds(r, rc.seed, "", oocRounds)
	recordRounds(r, rc.seed, "dist_", distRounds)
	r.set("work_cpu_s", "s", median(works))
	r.set("op_p50_ms", "ms", r.values["iter_cpu_ms_p50"])
	checkRounds(r, "OOC solve", x, p, oocRounds)
	checkRounds(r, "distnet job", x, p, distRounds)
	for i, c := range comms {
		r.check(c.Comm == comms[0].Comm, "distnet round %d comm %+v differs from round 0's %+v", i, c.Comm, comms[0].Comm)
		r.check(c.Epochs == 1, "distnet round %d needed %d epochs", i, c.Epochs)
	}
	if len(comms) > 0 {
		recordComm(r, comms[0])
	}
	checkOOCParity(r, x, p, oocRounds)
	checkRefs(r, rc.seed)
}

// convertAndOpen shards x into dir and opens the store as a reader would,
// each step under its own span.
func convertAndOpen(tr *obs.Tracer, x *tensor.COO, dir string) (st *ooc.ShardedTensor, err error) {
	span(tr, "ooc", "convert", -1, func() {
		_, err = ooc.ConvertCOO(x, dir, ooc.ConvertOptions{TargetShardBytes: shardBytes})
	})
	if err != nil {
		return nil, err
	}
	span(tr, "ooc", "open", -1, func() { st, err = ooc.Open(dir) })
	return st, err
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// checkOOCParity solves the same tensor in memory and compares: FactorizeOOC
// documents parity with Factorize up to summation order. The workload's
// peak memory is read first, so the in-memory solve does not count in it.
func checkOOCParity(r *report, x *tensor.COO, p solveParams, oocRounds []solveRound) {
	recordPeakRSS(r)
	if len(oocRounds) == 0 {
		return
	}
	ref, err := core.Factorize(x, coreOptions(p))
	if !r.op(err, "in-memory reference solve") {
		return
	}
	r.set("inmem_final_relerr", "1", ref.RelErr)
	r.checkClose("OOC relerr vs the in-memory solve", oocRounds[0].res.RelErr, ref.RelErr, oocParityTol)
	r.set("dist_gap_relerr", "1", r.values["dist_final_relerr"]-ref.RelErr)
}

// recordComm records a distnet job's collective counts.
func recordComm(r *report, res *distnet.JobResult) {
	r.set("distnet.mttkrp_bytes", "B", float64(res.Comm.MTTKRPBytes))
	r.set("distnet.factor_bytes", "B", float64(res.Comm.FactorBytes))
	r.set("distnet.gram_bytes", "B", float64(res.Comm.GramBytes))
	r.set("distnet.messages", "count", float64(res.Comm.Messages))
	r.set("distnet.wire_bytes", "B", float64(res.WireBytesSent+res.WireBytesReceived))
	r.set("distnet.epochs", "count", float64(res.Epochs))
}

// timedJob runs one distnet job with iteration timestamps. The returned
// round carries the job's factors and relative error for the shared checks.
func timedJob(coord *distnet.Coordinator, job distnet.JobOptions) (solveRound, *distnet.JobResult, error) {
	var round solveRound
	start := now()
	job.OnIteration = round.observe(start)
	res, err := coord.RunJob(job)
	round.wall, round.cpu = start.since()
	if err != nil {
		return round, nil, err
	}
	round.res = &core.Result{Factors: res.Factors, RelErr: res.RelErr, OuterIters: res.OuterIters, Converged: res.Converged}
	return round, res, nil
}

// cluster is a coordinator with in-process workers on loopback TCP.
type cluster struct {
	coord   *distnet.Coordinator
	workers []*distnet.Worker
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func startCluster(n int) (*cluster, error) {
	coord, err := distnet.Listen(distnet.Config{Listen: "127.0.0.1:0", HeartbeatInterval: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cl := &cluster{coord: coord, cancel: cancel}
	for i := 0; i < n; i++ {
		w := distnet.NewWorker(distnet.WorkerConfig{
			CoordinatorAddr: coord.Addr(), Name: fmt.Sprintf("w%d", i), RetryInterval: 50 * time.Millisecond,
		})
		cl.workers = append(cl.workers, w)
		cl.wg.Add(1)
		go func() {
			defer cl.wg.Done()
			w.Run(ctx)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(coord.LiveWorkers()) < n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			cl.stop()
			return nil, fmt.Errorf("only %d of %d workers joined", len(coord.LiveWorkers()), n)
		}
	}
	return cl, nil
}

// stop closes the workers and the coordinator and waits for the workers'
// goroutines to return.
func (cl *cluster) stop() {
	cl.cancel()
	for _, w := range cl.workers {
		w.Close()
	}
	cl.coord.Close()
	cl.wg.Wait()
}

// tracedShards is reddit-shards' traced run: shard decode timed over every
// shard, the OOC solve replayed with spans around each streaming MTTKRP,
// the in-memory reference, and a traced distnet job.
func tracedShards(rc *runCtx, x *tensor.COO, st *ooc.ShardedTensor, p solveParams,
	oocSolve func(core.Options) (*core.Result, error), cl *cluster, job distnet.JobOptions) {
	r := rc.rep
	order := st.Order()
	r.set("ooc.convert_s", "s", selfTimes(rc.tr.Events()).s("ooc.convert"))

	// Decode every shard once, and count what one streaming MTTKRP of each
	// mode does: the shard-rooted CSF trees it compiles.
	flopsPerMode := make([]int64, order)
	var decode time.Duration
	var decoded int64
	for i := 0; i < st.NumShards(); i++ {
		var coo *tensor.COO
		var err error
		t0 := time.Now()
		span(rc.tr, "ooc", "load_shard", -1, func() { coo, err = st.LoadShard(i) })
		decode += time.Since(t0)
		if !r.op(err, fmt.Sprintf("decoding shard %d", i)) {
			return
		}
		decoded += int64(coo.NNZ()) * int64(4*order+8) // a uint32 index per mode and a float64 value per non-zero
		for m := 0; m < order; m++ {
			flopsPerMode[m] += mttkrp.FlopCount(csf.Build(coo.Clone(), csf.DefaultPerm(order, m)), p.rank)
		}
	}
	r.set("ooc.decode_s", "s", decode.Seconds())
	r.set("ooc.decode_mb_s", "MB/s", float64(decoded)/decode.Seconds()/1e6)

	var ss ooc.StreamStats
	scratch := dense.New(slices.Max(st.Dims()), p.rank)
	kernel := func(m int, factors []*dense.Matrix, k *dense.Matrix) error {
		return st.MTTKRPKernel("csf", m, factors, k, scratch.RowBlock(0, k.Rows), mttkrp.Options{Threads: p.threads}, &ss)
	}
	base := tracedSolve(rc, x, p, oocSolve, st.NormSq(), kernel, func(m int) int64 { return flopsPerMode[m] })
	if base == nil {
		return
	}
	snap := ss.Snapshot()
	r.set("ooc.shard_loads", "count", float64(snap.ShardLoads))
	r.set("ooc.bytes_read", "B", float64(snap.BytesRead))
	r.set("ooc.prefetch_stalls", "count", float64(snap.PrefetchStalls))
	r.set("ooc.stall_s", "s", float64(snap.StallNanos)/1e9)
	r.set("share.ooc.stall_s", "1", r.values["ooc.stall_s"]/r.values["traced_solve_s"])

	job.Trace = true
	dround, res, err := timedJob(cl.coord, job)
	if !r.op(err, "traced distnet job") {
		return
	}
	checkRounds(r, "traced distnet job", x, p, []solveRound{dround})
	r.set("dist_final_relerr", "1", res.RelErr)
	r.set("dist_solve_s", "s", dround.wall.Seconds())
	r.set("dist_solve_cpu_s", "s", dround.cpu.Seconds())
	recordComm(r, res)
	spanS := map[string]float64{}
	for _, proc := range res.Trace {
		for _, e := range proc.Events {
			spanS[e.Name] += float64(e.Dur) / 1e9
		}
	}
	r.set("distnet.reduce_scatter_s", "s", spanS["reduce_scatter"])
	r.set("distnet.admm_rows_s", "s", spanS["admm_rows"])
	r.set("distnet.factor_bcast_s", "s", spanS["factor_bcast"])
	r.set("distnet.shard_load_s", "s", spanS["shard_load"])
	r.set("share.distnet.reduce_scatter_s", "1", spanS["reduce_scatter"]/dround.wall.Seconds())
	path := filepath.Join(filepath.Dir(rc.workDir), fmt.Sprintf("trace-%s-distnet-seed%d.json", r.workload, rc.seed))
	if f, err := os.Create(path); r.op(err, "creating the distnet trace") {
		err = obs.WriteChromeProcesses(f, res.Trace, nil)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		r.op(err, "writing the distnet trace")
	}
	checkOOCParity(r, x, p, []solveRound{*base})
	checkRefs(r, rc.seed)
}
