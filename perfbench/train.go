package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/internal/opt"
)

// paper-train is the paper's experiment through the daemon: one client,
// one job at a time (closed loop), an in-memory daemon with 1 engine × 2
// workers. SGD (BSP), ASGD (ASP), SAGA (BSP) and ASAGA (ASP) run on a
// sparse and a dense dataset, and proximal coordinate descent in cyclic
// and greedy (MaxIP) selection on an ℓ1 objective. Every job carries a
// target suboptimality against a reference optimum the benchmark computes
// once per dataset and objective. The driver, coordinator and kernels do
// the work; the store and wire layers are bypassed.

// trainKind is one job of the rotation.
type trainKind struct {
	label string
	spec  jobs.Spec
	// rel is the target as a share of the starting suboptimality
	// f(0) − f*; target is its absolute value, set per set-up
	rel, target float64
}

const l1Weight = 1e-3

// trainRotation is one pass over the job mix. Cyclic and greedy cd appear
// twice each, so that a rotation's median and p90 fall on a pair of like
// jobs rather than between two kinds whose order can flip with the data.
func trainRotation(dsSeed int64) []trainKind {
	rcv1 := jobs.DatasetSpec{Name: "rcv1-like", Scale: "small", Seed: dsSeed}
	eps := jobs.DatasetSpec{Name: "epsilon-like", Scale: "small", Seed: dsSeed}
	var out []trainKind
	for _, ds := range []jobs.DatasetSpec{rcv1, eps} {
		step, rel, snap := jobs.StepSpec{A: 8}, 0.02, 10
		if ds.Name == "epsilon-like" {
			step, rel, snap = jobs.StepSpec{A: 0.05}, 0.1, 15
		}
		for _, a := range []struct{ algo, barrier string }{{"sgd", "bsp"}, {"asgd", "asp"}, {"saga", "bsp"}, {"asaga", "asp"}} {
			out = append(out, trainKind{
				label: a.algo + "/" + ds.Name, rel: rel,
				spec: jobs.Spec{Algorithm: a.algo, Dataset: ds, Barrier: jobs.BarrierSpec{Kind: a.barrier},
					Step: step, Updates: 300, SnapshotEvery: snap},
			})
		}
		if ds.Name == "rcv1-like" {
			for _, mode := range []string{"cyclic", "cyclic", "greedy", "greedy"} {
				out = append(out, trainKind{
					label: "cd-" + mode + "/" + ds.Name, rel: 1e-3,
					spec: jobs.Spec{Algorithm: "cd", Mode: mode, Dataset: ds,
						Objective: async.Objective{L1: l1Weight}, Updates: 150, SnapshotEvery: 5},
				})
			}
		}
	}
	return out
}

type trainEnv struct {
	d        *daemon
	rotation []trainKind
}

// trainJob is what the client saw of one job.
type trainJob struct {
	kind                       *trainKind
	postStart, postEnd         time.Time
	reached, observed          time.Time
	updatesAtTarget, dispatchN int
	snap                       jobs.Job
	err                        error
}

func runPaperTrain(cfg runConfig) (*outcome, error) {
	tr := cfg.tr
	dsSeed := dataSeed(cfg.seed)
	pool := &enginePool{tr: tr, seed: dsSeed}
	n := 0
	build := func() (*trainEnv, error) {
		n++
		trace := fmt.Sprintf("setup-%d", n)
		start := time.Now()
		e := &trainEnv{rotation: trainRotation(dsSeed)}
		// reference optimum and starting objective once per dataset and
		// objective
		type ref struct{ f0, fstar float64 }
		refs := map[string]ref{}
		for i := range e.rotation {
			k := &e.rotation[i]
			key := k.spec.Dataset.Key() + "/" + fmt.Sprint(k.spec.Objective)
			r, ok := refs[key]
			if !ok {
				d, err := generate(tr, trace, k.spec.Dataset.Name, k.spec.Dataset.Scale, dsSeed)
				if err != nil {
					return nil, err
				}
				loss, err := k.spec.Objective.Resolve()
				if err != nil {
					return nil, err
				}
				if _, err := tr.timed(trace, "opt.reference", func() error {
					_, r.fstar, err = opt.ReferenceOptimumFor(d, loss)
					return err
				}); err != nil {
					return nil, err
				}
				r.f0 = opt.Objective(d, loss, make([]float64, d.NumCols()))
				refs[key] = r
			}
			k.spec.FStar = r.fstar
			k.target = k.rel * (r.f0 - r.fstar)
		}
		sched, err := jobs.New(jobs.Config{Engines: 1, NewEngine: pool.newEngine})
		if err != nil {
			return nil, err
		}
		if e.d, err = startDaemon(sched); err != nil {
			_ = sched.Close()
			return nil, err
		}
		// warm-up: one short job per dataset spins the engine up and loads
		// both datasets into the daemon's cache
		c := newClient()
		defer c.CloseIdleConnections()
		if _, err := tr.timed(trace, "jobs.warmup", func() error {
			for _, k := range []trainKind{e.rotation[len(e.rotation)-1], e.rotation[0]} {
				sp := k.spec
				sp.Updates, sp.SnapshotEvery = 20, 10
				id, err := submit(c, e.d.base, sp)
				if err != nil {
					return err
				}
				if err := waitDone(c, e.d.base, []jobs.ID{id}, time.Minute); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			e.d.close()
			return nil, err
		}
		tr.closeRoot(trace, "setup", start, time.Now())
		return e, nil
	}
	teardown := func(e *trainEnv) { e.d.close() }
	env, setups, err := setupTimes(cfg.setups, build, teardown)
	if err != nil {
		return nil, err
	}
	defer env.d.close()

	c := newClient()
	defer c.CloseIdleConnections()
	st0, err := getStats(c, env.d.base)
	if err != nil {
		return nil, err
	}
	prom0, proc0 := scrapeProcess(), sampleProc()
	t0 := time.Now()
	var ran []*trainJob
	// whole rotations only, so every run weighs the job kinds the same
	for time.Since(t0) < cfg.window {
		for i := range env.rotation {
			j := &trainJob{kind: &env.rotation[i]}
			ran = append(ran, j)
			j.err = trainOne(c, env.d.base, j)
		}
	}
	prom1, proc1 := scrapeProcess(), sampleProc()
	st1, err := getStats(c, env.d.base)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	o.attempted = len(ran)
	// one group per rotation: figures are medians over rotations
	rots := len(ran) / len(env.rotation)
	lat, ttt := make([][]float64, rots), make([][]float64, rots)
	jobsRate, updRate := make([]float64, rots), make([]float64, rots)
	for r := range rots {
		first, last := ran[r*len(env.rotation)], ran[(r+1)*len(env.rotation)-1]
		secs := last.observed.Sub(first.postStart).Seconds()
		for _, j := range ran[r*len(env.rotation) : (r+1)*len(env.rotation)] {
			if j.err == nil && j.snap.State == jobs.StateDone {
				jobsRate[r]++
				updRate[r] += float64(j.snap.Updates)
			}
		}
		jobsRate[r] /= secs
		updRate[r] /= secs
	}
	var submitMS, qwait, runMS, upd []float64
	var dispatches float64
	var done []jobs.Job
	missed := 0
	for i, j := range ran {
		r := i / len(env.rotation)
		dispatches += float64(j.dispatchN)
		switch {
		case j.err != nil:
			o.failures["client error: "+firstLine(j.err)]++
			continue
		case j.snap.State != jobs.StateDone:
			o.failures["ended "+string(j.snap.State)]++
			continue
		}
		done = append(done, j.snap)
		lat[r] = append(lat[r], ms(j.observed.Sub(j.postStart)))
		submitMS = append(submitMS, ms(j.postEnd.Sub(j.postStart)))
		qwait = append(qwait, j.snap.QueueWaitMS)
		runMS = append(runMS, ms(j.snap.Finished.Sub(j.snap.Started)))
		switch {
		case j.reached.IsZero():
			missed++
			o.failures["missed target: "+j.kind.label]++
		default:
			ttt[r] = append(ttt[r], j.reached.Sub(j.postStart).Seconds())
			upd = append(upd, float64(j.updatesAtTarget))
		}
	}
	d := promDelta{prom0, prom1}
	o.check("every job reaches its target", missed == 0, "%d missed", missed)
	o.checks = append(o.checks,
		bypass("store layer bypassed", d, "async_wal_"),
		bypass("wire layer bypassed", d, "async_wire_"))
	o.endToEnd(lat, ttt, quantile(jobsRate, 0.5), quantile(updRate, 0.5), ratio(dispatches, float64(len(ran))))
	if o.e2e["setup_s"], err = setupAgain(setups, cfg.setups, build, teardown); err != nil {
		return nil, err
	}
	fmt.Printf("paper-train: %d jobs in %d rotations of %d\n", len(ran), len(ran)/len(env.rotation), len(env.rotation))
	if tr == nil {
		return o, nil
	}

	L := o.layer
	L["jobs.submit_ms.p50"] = quantile(submitMS, 0.5)
	L["jobs.submit_ms.p99"] = quantile(submitMS, 0.99)
	L["jobs.queue_wait_ms.p50"] = quantile(qwait, 0.5)
	L["jobs.queue_wait_ms.p99"] = quantile(qwait, 0.99)
	L["jobs.run_ms.p50"] = quantile(runMS, 0.5)
	L["jobs.affinity_share"] = affinityShare(done)
	L["jobs.runs_per_job"] = o.e2e["runs_per_job"]
	L["jobs.preemptions"] = float64(st1.Preempted - st0.Preempted)
	L["jobs.rejected"] = float64(st1.Rejected - st0.Rejected)
	zeroLayer(L, "store.") // in-memory daemon: asserted bypassed above
	L["engine.spinup_ms"] = pool.medianSpinupMS()
	L["engine.distribute_ms"] = 0 // the daemon distributes inside its runs
	L["dataset.generate_ms"] = quantile(msOf(tr.durations("dataset.generate")), 0.5)
	L["opt.reference_ms"] = quantile(msOf(tr.durations("opt.reference")), 0.5)
	windowMetrics(L, d, proc0, proc1)
	L["opt.updates_to_target.p50"] = quantile(upd, 0.5)
	L["core.staleness.max"] = maxStaleness(done)
	L["loadgen.late_ms.p99"] = 0 // closed loop: nothing is due

	// spans per job, and the check that they add up to the client latency
	checked, within := 0, 0
	for i, j := range ran {
		if j.err != nil {
			continue
		}
		id := fmt.Sprintf("train-%d", i)
		ok := jobSpans(tr, id, j.postStart, j.postEnd, j.observed, j.snap)
		if !j.reached.IsZero() {
			tr.add(id, "jobs.to_target", j.postStart, j.reached)
		}
		tr.closeRoot(id, "job "+j.kind.label, j.postStart, j.observed)
		if j.snap.State == jobs.StateDone {
			checked++
			if ok {
				within++
			}
		}
	}
	L["trace.additivity_share"] = ratio(float64(within), float64(checked))
	o.check("spans add up to client latency", checked > 0 && within == checked,
		"%d of %d jobs within [0, submit] ± %v", within, checked, spanSlack)
	return o, nil
}

// trainOne submits one job and follows its event stream to the end,
// noting when the first point at or below the target arrived.
func trainOne(c *http.Client, base string, j *trainJob) error {
	j.postStart = time.Now()
	id, err := submit(c, base, j.kind.spec)
	j.postEnd = time.Now()
	if err != nil {
		return err
	}
	err = streamEvents(c, base, id, func(typ string, data []byte, at time.Time) error {
		if typ == "state" {
			return json.Unmarshal(data, &j.snap)
		}
		var ev jobs.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return err
		}
		switch ev.Type {
		case jobs.EventStarted, jobs.EventResumed:
			j.dispatchN++
		case jobs.EventProgress, jobs.EventDone:
			if j.reached.IsZero() && ev.Error != nil && *ev.Error <= j.kind.target {
				j.reached, j.updatesAtTarget = at, int(ev.Updates)
			}
		}
		return nil
	})
	j.observed = time.Now()
	if err == nil && j.snap.ID != id {
		err = fmt.Errorf("event stream of %s ended without its final snapshot", id)
	}
	return err
}

// zeroLayer sets every per-layer metric under prefix to 0 (a layer the
// workload bypasses, asserted separately).
func zeroLayer(L map[string]float64, prefix string) {
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, prefix) {
			L[m.Name] = 0
		}
	}
}

func firstLine(err error) string {
	s, _, _ := strings.Cut(err.Error(), "\n")
	return s
}
