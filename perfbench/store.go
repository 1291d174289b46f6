package main

import (
	"sync"
	"time"

	"repro/async/jobs/store"
	"repro/internal/opt"
)

// countingStore is the forwarding decorator the benchmark passes as
// jobs.Config.Store. It always counts, per job, the lease claims and the
// terminal records appended (the exactly-once check needs them); traced
// runs also time every call and record it as a span of the job's trace.
type countingStore struct {
	store.LeaseStore
	tr *tracer

	mu        sync.Mutex
	claims    map[string]int
	terminals map[string]int
	calls     map[string]int
	durs      map[string][]time.Duration
	busy      map[string]time.Duration
}

func newCountingStore(inner store.LeaseStore, tr *tracer) *countingStore {
	c := &countingStore{LeaseStore: inner, tr: tr}
	c.reset()
	return c
}

// reset starts a new counting window.
func (c *countingStore) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.claims = map[string]int{}
	c.terminals = map[string]int{}
	c.calls = map[string]int{}
	c.durs = map[string][]time.Duration{}
	c.busy = map[string]time.Duration{}
}

func (c *countingStore) note(op, job string, start time.Time) {
	end := time.Now()
	c.tr.add(job, "store."+op, start, end)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls[op]++
	if c.tr != nil {
		c.durs[op] = append(c.durs[op], end.Sub(start))
		c.busy[op] += end.Sub(start)
	}
}

func (c *countingStore) Append(rec *store.Record) error {
	start := time.Now()
	err := c.LeaseStore.Append(rec)
	c.note("append", rec.Job, start)
	if err == nil && rec.Type.Terminal() {
		c.mu.Lock()
		c.terminals[rec.Job]++
		c.mu.Unlock()
	}
	return err
}

func (c *countingStore) SaveCheckpoint(job string, dispatchSeq int64, cp *opt.Checkpoint) error {
	start := time.Now()
	err := c.LeaseStore.SaveCheckpoint(job, dispatchSeq, cp)
	c.note("spill", job, start)
	return err
}

func (c *countingStore) LoadCheckpoint(job string, dispatchSeq int64) (*opt.Checkpoint, error) {
	start := time.Now()
	cp, err := c.LeaseStore.LoadCheckpoint(job, dispatchSeq)
	c.note("load", job, start)
	return cp, err
}

func (c *countingStore) Claim(job, owner string, ttl time.Duration) (store.Lease, error) {
	start := time.Now()
	l, err := c.LeaseStore.Claim(job, owner, ttl)
	c.note("claim", job, start)
	if err == nil {
		c.mu.Lock()
		c.claims[job]++
		c.mu.Unlock()
	}
	return l, err
}

func (c *countingStore) Renew(job, owner string, epoch int64, ttl time.Duration) (store.Lease, error) {
	start := time.Now()
	l, err := c.LeaseStore.Renew(job, owner, epoch, ttl)
	c.note("renew", job, start)
	return l, err
}

func (c *countingStore) Release(job, owner string, epoch int64) error {
	start := time.Now()
	err := c.LeaseStore.Release(job, owner, epoch)
	c.note("release", job, start)
	return err
}

// counts snapshots the per-job claim and terminal-record counts.
func (c *countingStore) counts() (claims, terminals map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	claims = make(map[string]int, len(c.claims))
	for k, v := range c.claims {
		claims[k] = v
	}
	terminals = make(map[string]int, len(c.terminals))
	for k, v := range c.terminals {
		terminals[k] = v
	}
	return claims, terminals
}

// layerMetrics fills the store.* per-layer metrics for a window of the
// given length; m0 and m1 are the store's own counters at its ends.
func (c *countingStore) layerMetrics(out map[string]float64, window time.Duration, m0, m1 store.Metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := func(op string, q float64) float64 { return quantile(msOf(c.durs[op]), q) }
	out["store.append.calls"] = float64(c.calls["append"])
	out["store.append_ms.p50"] = p("append", 0.5)
	out["store.append_ms.p99"] = p("append", 0.99)
	out["store.append.busy_share"] = c.busy["append"].Seconds() / window.Seconds()
	out["store.spill.calls"] = float64(c.calls["spill"])
	out["store.spill_ms.p50"] = p("spill", 0.5)
	out["store.spill_ms.p99"] = p("spill", 0.99)
	out["store.claim.calls"] = float64(c.calls["claim"])
	out["store.claim_ms.p50"] = p("claim", 0.5)
	out["store.renew.calls"] = float64(c.calls["renew"])
	out["store.release.calls"] = float64(c.calls["release"])
	out["store.load.calls"] = float64(c.calls["load"])
	out["store.load_ms.p50"] = p("load", 0.5)
	fsyncs := m1.Fsyncs - m0.Fsyncs
	out["store.fsyncs"] = float64(fsyncs)
	out["store.fsync_ms.mean"] = ratio(ms(m1.FsyncTotal-m0.FsyncTotal), float64(fsyncs))
	out["store.compactions"] = float64(m1.Compactions - m0.Compactions)
	out["store.log_mb"] = float64(m1.SizeBytes) / 1e6
}
