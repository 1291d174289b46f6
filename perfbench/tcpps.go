package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/async"
	"repro/internal/dataset"
	"repro/internal/opt"
)

// tcp-ps is asynchrony over a real transport, the `asyncd -role server`
// path: each job builds an engine with WithTransport(TCP(loopback)), two
// ServeWorker workers in this process dial in, the dataset is distributed
// over the wire and asgd-remote or asaga-remote runs to a target on
// sparse-wide small (~1.6 MB frames per update each way) or rcv1-like small
// (small, latency-bound frames); then the engine closes, as the server role
// exits after its run. The wire layer dominates; the scheduler and store
// are bypassed.

// psKind is one job of the rotation.
type psKind struct {
	algo    string
	data    int // index into psEnv.data
	step    float64
	updates int
	snap    int
	rel     float64
}

// psRotation weighs sparse-wide jobs 2:1 so that the p50 and p90 of the
// mixed sample fall inside a cluster of similar jobs.
var psRotation = []psKind{
	{"asgd-remote", 1, 8, 200, 10, 0.02},
	{"asaga-remote", 1, 8, 200, 10, 0.02},
	{"asgd-remote", 0, 2, 80, 5, 0.4},
	{"asaga-remote", 0, 2, 80, 5, 0.4},
	{"asgd-remote", 0, 2, 80, 5, 0.4},
	{"asaga-remote", 0, 2, 80, 5, 0.4},
}

var psDatasets = []string{"sparse-wide", "rcv1-like"}

const psWorkers = 2

type psData struct {
	d       *dataset.Dataset
	f0, fst float64
}

type psEnv struct {
	data []psData
}

// psEngine is one TCP engine and its in-process workers.
type psEngine struct {
	eng     *async.Engine
	workers sync.WaitGroup
}

func (e *psEngine) close() {
	_ = e.eng.Close()
	e.workers.Wait()
}

// startTCPEngine listens on a free loopback port and dials the workers in,
// retrying until the engine's listener is up.
func startTCPEngine(seed int64) (*psEngine, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	type built struct {
		eng *async.Engine
		err error
	}
	ch := make(chan built, 1)
	go func() {
		eng, err := async.New(async.WithWorkers(psWorkers), async.WithSeed(seed),
			async.WithTransport(async.TCP(addr)), async.WithPartitions(2*psWorkers))
		ch <- built{eng, err}
	}()
	e := &psEngine{}
	dialBy := time.Now().Add(10 * time.Second)
	for w := 0; w < psWorkers; w++ {
		e.workers.Add(1)
		go func(w int) {
			defer e.workers.Done()
			for {
				// ServeWorker returns nil once the engine closes the
				// connection; a dial error means the listener is not up
				err := async.ServeWorker(addr, w, nil, seed+int64(w))
				if err == nil || time.Now().After(dialBy) {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}
	b := <-ch
	if b.err != nil {
		e.workers.Wait()
		return nil, b.err
	}
	e.eng = b.eng
	return e, nil
}

// psJob is one job as the benchmark saw it.
type psJob struct {
	kind                                   *psKind
	start, spun, distributed, done, closed time.Time
	res                                    *opt.Result
	staleMax                               int64
	reachedAt                              time.Duration
	updatesAt, updatesDone                 int64
	err                                    error
}

// runPSJob spins up an engine, distributes the job's dataset, solves, and
// closes the engine.
func runPSJob(tr *tracer, trace string, seed int64, k *psKind, pd psData) *psJob {
	j := &psJob{kind: k, start: time.Now()}
	var e *psEngine
	e, j.err = startTCPEngine(seed)
	j.spun = time.Now()
	tr.add(trace, "engine.spinup", j.start, j.spun)
	if j.err != nil {
		return j
	}
	defer func() {
		start := time.Now()
		e.close()
		j.closed = time.Now()
		tr.add(trace, "engine.close", start, j.closed)
	}()
	_, j.err = e.eng.Distribute(pd.d)
	j.distributed = time.Now()
	tr.add(trace, "engine.distribute", j.spun, j.distributed)
	if j.err != nil {
		return j
	}
	j.res, j.err = e.eng.Solve(context.Background(), k.algo, pd.d, psOptions(*k, pd.fst))
	j.done = time.Now()
	tr.add(trace, "engine.solve", j.distributed, j.done)
	if j.err != nil {
		return j
	}
	tr.add(trace, "opt.run", j.distributed, j.distributed.Add(j.res.Trace.Total))
	j.staleMax = e.eng.RunStats().Staleness.Max
	target := k.rel * (pd.f0 - pd.fst)
	j.reachedAt = -1
	for _, p := range j.res.Trace.Points {
		if p.Error <= target {
			j.reachedAt, j.updatesAt = p.Time, p.Updates
			break
		}
	}
	if pts := j.res.Trace.Points; len(pts) > 0 {
		j.updatesDone = pts[len(pts)-1].Updates
	}
	return j
}

func runTCPPS(cfg runConfig) (*outcome, error) {
	tr := cfg.tr
	dsSeed := dataSeed(cfg.seed)
	n := 0
	build := func() (*psEnv, error) {
		n++
		trace := fmt.Sprintf("setup-%d", n)
		start := time.Now()
		e := &psEnv{}
		for _, name := range psDatasets {
			d, err := generate(tr, trace, name, "small", dsSeed)
			if err != nil {
				return nil, err
			}
			pd := psData{d: d, f0: opt.Objective(d, opt.LeastSquares{}, make([]float64, d.NumCols()))}
			if _, err := tr.timed(trace, "opt.reference", func() error {
				_, pd.fst, err = opt.ReferenceOptimum(d)
				return err
			}); err != nil {
				return nil, err
			}
			e.data = append(e.data, pd)
		}
		// warm-up: one short job over the wire
		warm := psKind{algo: "asgd-remote", step: 2, updates: 10, snap: 5}
		if j := runPSJob(tr, trace, dsSeed, &warm, e.data[0]); j.err != nil {
			return nil, j.err
		}
		tr.closeRoot(trace, "setup", start, time.Now())
		return e, nil
	}
	teardown := func(*psEnv) {}
	env, setups, err := setupTimes(cfg.setups, build, teardown)
	if err != nil {
		return nil, err
	}

	prom0, proc0 := scrapeProcess(), sampleProc()
	t0 := time.Now()
	var ran []*psJob
	// whole rotations only, so every run weighs the job kinds the same
	for time.Since(t0) < cfg.window {
		for i := range psRotation {
			k := &psRotation[i]
			trace := fmt.Sprintf("job-%d", len(ran)+1)
			j := runPSJob(tr, trace, dsSeed, k, env.data[k.data])
			ran = append(ran, j)
			tr.closeRoot(trace, "job "+k.algo+"/"+psDatasets[k.data], j.start, time.Now())
		}
	}
	prom1, proc1 := scrapeProcess(), sampleProc()

	o := newOutcome()
	o.attempted = len(ran)
	// one group per rotation: figures are medians over rotations
	rots := len(ran) / len(psRotation)
	lat, ttt := make([][]float64, rots), make([][]float64, rots)
	jobsRate, updRate := make([]float64, rots), make([]float64, rots)
	for r := range rots {
		secs := ran[(r+1)*len(psRotation)-1].closed.Sub(ran[r*len(psRotation)].start).Seconds()
		for _, j := range ran[r*len(psRotation) : (r+1)*len(psRotation)] {
			if j.err == nil {
				jobsRate[r]++
				updRate[r] += float64(j.updatesDone)
			}
		}
		jobsRate[r] /= secs
		updRate[r] /= secs
	}
	var upd, spin, dist []float64
	var staleMax int64
	missed, completed := 0, 0
	for i, j := range ran {
		r := i / len(psRotation)
		if j.err != nil {
			o.failures["job error: "+firstLine(j.err)]++
			continue
		}
		completed++
		lat[r] = append(lat[r], ms(j.done.Sub(j.start)))
		spin = append(spin, ms(j.spun.Sub(j.start)))
		dist = append(dist, ms(j.distributed.Sub(j.spun)))
		if j.staleMax > staleMax {
			staleMax = j.staleMax
		}
		if j.reachedAt < 0 {
			missed++
			o.failures["missed target: "+j.kind.algo+"/"+psDatasets[j.kind.data]]++
			continue
		}
		// from the start of the job: engine spin-up and distribution, then
		// the solver's own clock to the first point at or below the target
		ttt[r] = append(ttt[r], (j.distributed.Sub(j.start) + j.reachedAt).Seconds())
		upd = append(upd, float64(j.updatesAt))
	}
	d := promDelta{prom0, prom1}
	o.check("every job reaches its target", missed == 0, "%d missed", missed)
	o.checks = append(o.checks, bypass("store layer bypassed", d, "async_wal_"))
	o.check("wire layer carried the jobs", d.prefix("async_wire_tx_bytes_total") > 0, "")
	// each job is one Solve on an engine of its own: nothing runs twice
	o.endToEnd(lat, ttt, quantile(jobsRate, 0.5), quantile(updRate, 0.5), 1)
	if o.e2e["setup_s"], err = setupAgain(setups, cfg.setups, build, teardown); err != nil {
		return nil, err
	}
	fmt.Printf("tcp-ps: %d jobs in %d rotations of %d\n", len(ran), len(ran)/len(psRotation), len(psRotation))
	if tr == nil {
		return o, nil
	}

	L := o.layer
	zeroLayer(L, "jobs.") // no scheduler on this path
	zeroLayer(L, "store.")
	L["engine.spinup_ms"] = quantile(spin, 0.5)
	L["engine.distribute_ms"] = quantile(dist, 0.5)
	L["dataset.generate_ms"] = quantile(msOf(tr.durations("dataset.generate")), 0.5)
	L["opt.reference_ms"] = quantile(msOf(tr.durations("opt.reference")), 0.5)
	windowMetrics(L, d, proc0, proc1)
	L["opt.updates_to_target.p50"] = quantile(upd, 0.5)
	L["core.staleness.max"] = float64(staleMax)
	L["loadgen.late_ms.p99"] = 0 // closed loop: nothing is due
	// the spans of a job — spin-up, distribution, then the solver's own run
	// clock — must fit inside the latency measured around it
	checked, within := 0, 0
	for _, j := range ran {
		if j.err != nil {
			continue
		}
		checked++
		if j.distributed.Sub(j.start)+j.res.Trace.Total <= j.done.Sub(j.start)+spanSlack {
			within++
		}
	}
	L["trace.additivity_share"] = ratio(float64(within), float64(checked))
	o.check("spans fit inside job latency", checked > 0 && within == checked,
		"%d of %d jobs within %v", within, checked, spanSlack)
	return o, nil
}

// psOptions is the solve configuration of one rotation entry.
func psOptions(k psKind, fstar float64) async.SolveOptions {
	return async.SolveOptions{
		Params: opt.Params{
			Step:          opt.Scaled{Base: opt.InvSqrt{A: k.step}, Factor: psWorkers},
			SampleFrac:    0.3,
			Updates:       k.updates,
			SnapshotEvery: k.snap,
		},
		FStar: fstar,
	}
}
