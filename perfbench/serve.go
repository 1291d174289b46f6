package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/async/jobs"
	"repro/async/jobs/store"
	"repro/internal/dataset"
	"repro/internal/opt"
)

// serve-churn is the control plane under durable serving: an open-loop,
// seeded Poisson stream of short jobs over HTTP into jobs.NewHandler,
// backed by one replica over store.OpenShared with fsync on — what
// `asyncd -store-dir D -replica-id r1` runs — with 2 engines × 2 workers
// and the daemon's defaults otherwise (retention 256, compaction every
// 1024 appends). Compute is small; the scheduler, store and HTTP layers do
// the work. The run goes past the retention limit and past log
// compaction, as any long-lived daemon does.
const (
	churnRate    = 30.0 // offered jobs per second
	churnReplica = "r1"
	churnCompact = 1024
	// churnPoll is how often the observer lists unfinished jobs. Latency
	// is read from each job's Finished time, when the daemon makes its
	// terminal state observable, so the period does not enter it; a
	// slower poll leaves the two CPUs to the daemon.
	churnPoll     = 20 * time.Millisecond
	churnDrain    = 60 * time.Second
	churnPriority = 10
	// churnScanPeriod is the daemon's default shared-log tail-scan period
	// (Config.AdoptScanEvery = LeaseTTL/2 = 5s); churnScanPhase is where in
	// it the measured window starts.
	churnScanPeriod = 5 * time.Second
	churnScanPhase  = 500 * time.Millisecond
)

// churnDatasets are the datasets the job mix rotates over; sparse-wide
// small carries ~1.6 MB checkpoints.
var churnDatasets = []jobs.DatasetSpec{
	{Name: "rcv1-like"}, {Name: "mnist8m-like"}, {Name: "epsilon-like"},
	{Name: "sparse-wide", Scale: "small"},
}

// dataSeed maps the workload seed to a (nonzero) dataset seed.
func dataSeed(seed int64) int64 {
	if seed < 0 {
		seed = -seed
	}
	return 1 + seed%1_000_000_000
}

// churnBlock is how many arrivals one block of the job mix spans: every
// block holds the same kinds in a seeded order, so each run offers the
// same composition.
const churnBlock = 50

// churnMix draws the jobs of one block of arrivals, each with its offset
// from its arrival time: mostly short tiny jobs across the three paper
// datasets, one sparse-wide job with large checkpoint spills, two
// higher-priority tiny jobs, and one burst of two sparse-wide jobs
// followed by a higher-priority one, which finds both engines busy and
// preempts one of them (checkpoint, spill, resume).
func churnMix(rng *rand.Rand, dsSeed int64) [][]timedSpec {
	algos := []string{"sgd", "asgd", "saga", "asaga"}
	sparse := func() jobs.Spec {
		ds := churnDatasets[3]
		ds.Seed = dsSeed
		return jobs.Spec{Algorithm: algos[rng.Intn(2)], Dataset: ds, Updates: 6, CheckpointEvery: 3}
	}
	tiny := func(priority int) jobs.Spec {
		ds := churnDatasets[rng.Intn(3)]
		ds.Seed = dsSeed
		return jobs.Spec{Algorithm: algos[rng.Intn(4)], Dataset: ds, Updates: 50, CheckpointEvery: 25, Priority: priority}
	}
	block := [][]timedSpec{
		{{0, sparse()}, {0, sparse()}, {5 * time.Millisecond, tiny(churnPriority)}},
		{{0, sparse()}},
		{{0, tiny(churnPriority)}},
		{{0, tiny(churnPriority)}},
	}
	for len(block) < churnBlock {
		block = append(block, []timedSpec{{0, tiny(0)}})
	}
	rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	return block
}

type timedSpec struct {
	after time.Duration
	spec  jobs.Spec
}

type churnEnv struct {
	dir    string
	shared *store.Shared
	cs     *countingStore
	d      *daemon
	// born is when the scheduler was built: its replica loops tick from
	// there
	born time.Time
	// f0 is each dataset's least-squares objective at the zero model: a
	// job's answer is right when it ends below it
	f0 map[string]float64
}

func (e *churnEnv) close() {
	e.d.close()
	_ = e.shared.Close()
}

// churnJob is one attempted submission and what the client saw of it.
type churnJob struct {
	at                                time.Duration // offset into the window
	due, postStart, postEnd, observed time.Time
	spec                              jobs.Spec
	id                                jobs.ID
	err                               error
	snap                              jobs.Job
}

func runServeChurn(cfg runConfig) (*outcome, error) {
	tr := cfg.tr
	dsSeed := dataSeed(cfg.seed)
	pool := &enginePool{tr: tr, seed: dsSeed}
	n := 0
	build := func() (*churnEnv, error) {
		n++
		trace := fmt.Sprintf("setup-%d", n)
		start := time.Now()
		e := &churnEnv{dir: filepath.Join(cfg.workdir, fmt.Sprintf("store-%d", n)), f0: map[string]float64{}}
		var err error
		if _, err = tr.timed(trace, "store.open", func() error {
			e.shared, err = store.OpenShared(e.dir, churnReplica, store.SharedOptions{CompactEvery: churnCompact})
			return err
		}); err != nil {
			return nil, err
		}
		e.cs = newCountingStore(e.shared, tr)
		e.born = time.Now()
		sched, err := jobs.New(jobs.Config{
			Engines: 2, CompactEvery: churnCompact, Store: e.cs,
			ReplicaID: churnReplica, NewEngine: pool.newEngine,
		})
		if err != nil {
			_ = e.shared.Close()
			return nil, err
		}
		if e.d, err = startDaemon(sched); err != nil {
			_ = sched.Close()
			_ = e.shared.Close()
			return nil, err
		}
		for _, ds := range churnDatasets {
			d, err := generate(tr, trace, ds.Name, ds.Scale, dsSeed)
			if err != nil {
				e.close()
				return nil, err
			}
			e.f0[ds.Name] = opt.Objective(d, opt.LeastSquares{}, make([]float64, d.NumCols()))
		}
		// warm-up: one job per dataset spins the engines up and loads
		// every dataset into the daemon's cache
		c := newClient()
		defer c.CloseIdleConnections()
		if _, err := tr.timed(trace, "jobs.warmup", func() error {
			var ids []jobs.ID
			for _, ds := range churnDatasets {
				ds.Seed = dsSeed
				id, err := submit(c, e.d.base, jobs.Spec{Algorithm: "asgd", Dataset: ds, Updates: 6, CheckpointEvery: 3})
				if err != nil {
					return err
				}
				ids = append(ids, id)
			}
			return waitDone(c, e.d.base, ids, churnDrain)
		}); err != nil {
			e.close()
			return nil, err
		}
		tr.closeRoot(trace, "setup", start, time.Now())
		return e, nil
	}
	teardown := func(e *churnEnv) {
		e.close()
		_ = os.RemoveAll(e.dir)
	}
	env, setups, err := setupTimes(cfg.setups, build, teardown)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)

	sched := churnSchedule(cfg.seed, cfg.window, dsSeed)
	obs := newClient()
	st0, err := getStats(obs, env.d.base)
	if err != nil {
		env.close()
		return nil, err
	}
	m0 := env.shared.Metrics()
	env.cs.reset()
	prom0, proc0 := scrapeProcess(), sampleProc()
	// start the window at a fixed phase of the daemon's shared-log tail
	// scan, so the scans (and the duplicate runs they start) fall at the
	// same offsets into every run instead of at a random phase
	t0 := env.born.Add(churnScanPhase)
	for time.Until(t0) < 20*time.Millisecond {
		t0 = t0.Add(churnScanPeriod)
	}
	for _, j := range sched {
		j.due = t0.Add(j.at)
	}

	lastSeen, err := driveChurn(obs, env.d.base, sched)
	if err != nil {
		env.close()
		return nil, err
	}
	claims, terminals := env.cs.counts()
	prom1, proc1 := scrapeProcess(), sampleProc()
	st1, err := getStats(obs, env.d.base)
	if err != nil {
		env.close()
		return nil, err
	}
	m1 := env.shared.Metrics()
	obs.CloseIdleConnections()
	env.close()
	// the durable log as a restarted daemon would see it
	logTerminals, err := replayTerminals(env.dir)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	o.attempted = len(sched)
	// one group per scan period of the window: each holds one tail scan
	groups := int((cfg.window + churnScanPeriod - 1) / churnScanPeriod)
	lat, ttt := make([][]float64, groups), make([][]float64, groups)
	var late, submitMS, qwait, runMS, upd []float64
	var updates float64
	var done []jobs.Job
	missed := 0
	for _, j := range sched {
		late = append(late, ms(j.postStart.Sub(j.due)))
		switch {
		case j.err != nil:
			o.failures["rejected or refused"]++
			continue
		case j.observed.IsZero():
			o.failures["not terminal after drain"]++
			continue
		}
		submitMS = append(submitMS, ms(j.postEnd.Sub(j.postStart)))
		if j.snap.State != jobs.StateDone {
			o.failures["ended "+string(j.snap.State)]++
			continue
		}
		done = append(done, j.snap)
		g := min(int(j.due.Sub(t0)/churnScanPeriod), groups-1)
		lat[g] = append(lat[g], ms(j.snap.Finished.Sub(j.due)))
		qwait = append(qwait, j.snap.QueueWaitMS)
		runMS = append(runMS, ms(j.snap.Finished.Sub(j.snap.Started)))
		updates += float64(j.snap.Updates)
		if j.snap.FinalError == nil || *j.snap.FinalError >= env.f0[j.spec.Dataset.Name] {
			missed++
			o.failures["missed target"]++
			continue
		}
		ttt[g] = append(ttt[g], j.snap.Finished.Sub(j.postStart).Seconds())
		upd = append(upd, float64(j.snap.Updates))
	}
	// a job that ran again after it finished still answered its client
	// correctly: the re-runs show as wasted work in runs_per_job and as
	// extra terminal records, not as failed jobs
	runs, acked, reran, compacted, wrongLog := 0, 0, 0, 0, 0
	for _, j := range sched {
		if j.err != nil {
			continue
		}
		id := string(j.id)
		acked++
		runs += claims[id]
		if terminals[id] > 1 || len(logTerminals[id]) > 1 {
			reran++
		}
		recs, ok := logTerminals[id]
		if !ok {
			compacted++
			continue
		}
		if len(recs) == 0 || recs[0] != store.TypeDone {
			wrongLog++
		}
	}
	elapsed := lastSeen.Sub(t0).Seconds()
	o.check("every acknowledged job observed terminal", o.failures["not terminal after drain"] == 0,
		"%d not terminal", o.failures["not terminal after drain"])
	o.check("every done job ends below its zero-model objective", missed == 0, "%d missed", missed)
	o.check("log replay names done for every logged job", wrongLog == 0,
		"%d wrong, %d compacted out of the log", wrongLog, compacted)
	d := promDelta{prom0, prom1}
	o.checks = append(o.checks, bypass("wire layer bypassed", d, "async_wire_"))

	// the offered load is fixed, so completions per second read it back
	o.endToEnd(lat, ttt, float64(len(done))/elapsed, updates/elapsed, ratio(float64(runs), float64(acked)))
	if o.e2e["setup_s"], err = setupAgain(setups, cfg.setups, build, teardown); err != nil {
		return nil, err
	}
	fmt.Printf("serve-churn: %d jobs offered at %.0f/s, %d done, %d log compactions, %d jobs compacted out of the log\n",
		len(sched), churnRate, len(done), m1.Compactions-m0.Compactions, compacted)
	fmt.Printf("serve-churn: %d of %d acknowledged jobs appended more than one terminal record; %d runs for %d jobs\n",
		reran, acked, runs, acked)
	if tr == nil {
		return o, nil
	}

	// per-layer attribution
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
	env.cs.layerMetrics(L, lastSeen.Sub(t0), m0, m1)
	L["engine.spinup_ms"] = pool.medianSpinupMS()
	L["engine.distribute_ms"] = 0 // the daemon distributes inside its runs
	L["dataset.generate_ms"] = quantile(msOf(tr.durations("dataset.generate")), 0.5)
	L["opt.reference_ms"] = 0 // serve-churn judges answers against f(0)
	windowMetrics(L, d, proc0, proc1)
	L["opt.updates_to_target.p50"] = quantile(upd, 0.5)
	L["core.staleness.max"] = maxStaleness(done)
	L["loadgen.late_ms.p99"] = quantile(late, 0.99)

	// spans per job, and the check that they add up to the latency the
	// client saw (preempted and re-run jobs excepted: their snapshot shows
	// only the last dispatch)
	checked, within := 0, 0
	for _, j := range sched {
		if j.err != nil || j.observed.IsZero() {
			continue
		}
		id := string(j.id)
		tr.add(id, "loadgen.late", j.due, j.postStart)
		ok := jobSpans(tr, id, j.postStart, j.postEnd, j.observed, j.snap)
		tr.closeRoot(id, "job", j.due, j.observed)
		if j.snap.State == jobs.StateDone && j.snap.Preemptions == 0 && claims[id] == 1 {
			checked++
			if ok {
				within++
			}
		}
	}
	L["trace.additivity_share"] = ratio(float64(within), float64(checked))
	o.check("spans add up to client latency", checked > 0 && within == checked,
		"%d of %d single-run jobs within [0, submit] ± %v", within, checked, spanSlack)
	return o, nil
}

// churnSchedule draws the window's arrivals: a seeded Poisson process
// conditioned on offering exactly rate × window arrivals, each carrying
// the jobs of one entry of the mix.
func churnSchedule(seed int64, window time.Duration, dsSeed int64) []*churnJob {
	rng := rand.New(rand.NewSource(seed))
	arrivals := make([]time.Duration, int(churnRate*window.Seconds()))
	for i := range arrivals {
		arrivals[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(arrivals, func(a, b int) bool { return arrivals[a] < arrivals[b] })
	var sched []*churnJob
	var block [][]timedSpec
	for _, at := range arrivals {
		if len(block) == 0 {
			block = churnMix(rng, dsSeed)
		}
		for _, ts := range block[0] {
			sched = append(sched, &churnJob{at: at + ts.after, spec: ts.spec})
		}
		block = block[1:]
	}
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].at < sched[b].at })
	return sched
}

// driveChurn submits the schedule on its due times from one connection
// while obs polls the listing, from the oldest unfinished job on, for
// terminal states. It returns once every acknowledged job was seen
// terminal or the drain bound passed, with the time of the last sighting.
func driveChurn(obs *http.Client, base string, sched []*churnJob) (time.Time, error) {
	var mu sync.Mutex
	pending := map[jobs.ID]*churnJob{}
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		c := newClient()
		defer c.CloseIdleConnections()
		for _, j := range sched {
			time.Sleep(time.Until(j.due))
			j.postStart = time.Now()
			j.id, j.err = submit(c, base, j.spec)
			j.postEnd = time.Now()
			if j.err == nil {
				mu.Lock()
				pending[j.id] = j
				mu.Unlock()
			}
		}
	}()
	var drainBy, lastSeen time.Time
	for {
		time.Sleep(churnPoll)
		// see the submitter finish before reading pending, so its last
		// job is never missed
		select {
		case <-submitted:
			if drainBy.IsZero() {
				drainBy = time.Now().Add(churnDrain)
			}
		default:
		}
		mu.Lock()
		oldest := jobs.ID("")
		for id := range pending {
			if oldest == "" || jobSeq(id) < jobSeq(oldest) {
				oldest = id
			}
		}
		mu.Unlock()
		if !drainBy.IsZero() && (oldest == "" || time.Now().After(drainBy)) {
			return lastSeen, nil
		}
		if oldest == "" {
			continue
		}
		page, err := listAfter(obs, base, idBefore(oldest))
		now := time.Now()
		if err != nil {
			<-submitted
			return lastSeen, err
		}
		mu.Lock()
		for _, s := range page {
			if j := pending[s.ID]; j != nil && s.State.Terminal() {
				j.observed, j.snap = now, s
				delete(pending, s.ID)
				lastSeen = now
			}
		}
		mu.Unlock()
	}
}

// replayTerminals reopens the shared log as a fresh handle and returns the
// terminal record types per job, in log order.
func replayTerminals(dir string) (map[string][]store.Type, error) {
	sh, err := store.OpenShared(dir, "audit", store.SharedOptions{CompactEvery: -1})
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	out := map[string][]store.Type{}
	err = sh.Replay(func(r store.Record) error {
		if _, ok := out[r.Job]; !ok {
			out[r.Job] = nil
		}
		if r.Type.Terminal() {
			out[r.Job] = append(out[r.Job], r.Type)
		}
		return nil
	})
	return out, err
}

// affinityShare is the share of dispatches onto an engine whose previous
// run used the same dataset (the first run seen on each engine is not
// counted).
func affinityShare(done []jobs.Job) float64 {
	byEngine := map[int][]jobs.Job{}
	for _, j := range done {
		byEngine[j.Engine] = append(byEngine[j.Engine], j)
	}
	hits, total := 0, 0
	for _, js := range byEngine {
		sort.Slice(js, func(a, b int) bool { return js[a].Started.Before(js[b].Started) })
		for i := 1; i < len(js); i++ {
			total++
			if js[i].Spec.Dataset.Key() == js[i-1].Spec.Dataset.Key() {
				hits++
			}
		}
	}
	return ratio(float64(hits), float64(total))
}

func maxStaleness(done []jobs.Job) float64 {
	var m int64
	for _, j := range done {
		if j.RunStats != nil && j.RunStats.Staleness.Max > m {
			m = j.RunStats.Staleness.Max
		}
	}
	return float64(m)
}

// generate builds a catalog dataset exactly as the daemon does for a
// DatasetSpec, recording the call as a dataset.generate span.
func generate(tr *tracer, trace, name, scale string, seed int64) (*dataset.Dataset, error) {
	sc, err := dataset.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	cfg, err := dataset.ByName(name, sc, seed)
	if err != nil {
		return nil, err
	}
	var d *dataset.Dataset
	_, err = tr.timed(trace, "dataset.generate", func() error {
		d, err = dataset.Generate(cfg)
		return err
	})
	return d, err
}
