package jobs

import (
	"io"
	"time"

	"repro/internal/telemetry"
)

// The scheduler's metrics live on a private telemetry registry so two
// schedulers in one process never collide: the serving counters are
// registered as scrape-time functions over a snapshot (Stats plus the store
// mirror) refreshed at the top of every WritePrometheus, and the queue-wait
// histograms are live instruments observed at dispatch. The process-global
// registry (async_core_*, async_opt_*, async_wal_*, async_wire_*) is
// appended after the scheduler's own families.

// registerMetrics builds the scheduler's registry. Called once from New,
// before recovery (recovery dispatches jobs, which observes the queue-wait
// histograms).
func (s *Scheduler) registerMetrics() {
	r := telemetry.NewRegistry()
	s.reg = r

	snap := func(f func(st *Stats) float64) func() float64 {
		return func() float64 {
			s.scrapeMu.Lock()
			defer s.scrapeMu.Unlock()
			return f(&s.scrape)
		}
	}
	r.CounterFunc("asyncd_jobs_submitted_total", "Jobs accepted by Submit.",
		snap(func(st *Stats) float64 { return float64(st.Submitted) }))
	r.CounterFunc("asyncd_jobs_rejected_total", "Jobs rejected by admission control (queue depth or tenant quota).",
		snap(func(st *Stats) float64 { return float64(st.Rejected) }))
	r.CounterFunc("asyncd_jobs_done_total", "Jobs completed successfully.",
		snap(func(st *Stats) float64 { return float64(st.Done) }))
	r.CounterFunc("asyncd_jobs_failed_total", "Jobs that terminated with an error.",
		snap(func(st *Stats) float64 { return float64(st.Failed) }))
	r.CounterFunc("asyncd_jobs_canceled_total", "Jobs canceled before completion.",
		snap(func(st *Stats) float64 { return float64(st.Canceled) }))
	r.CounterFunc("asyncd_jobs_preempted_total", "Mid-run preemptions (priority, SLO, or explicit).",
		snap(func(st *Stats) float64 { return float64(st.Preempted) }))
	r.GaugeFunc("asyncd_jobs_queued", "Jobs waiting for an engine (preempted included).",
		snap(func(st *Stats) float64 { return float64(st.Queued) }))
	r.GaugeFunc("asyncd_jobs_running", "Jobs holding an engine.",
		snap(func(st *Stats) float64 { return float64(st.Running) }))
	r.GaugeFunc("asyncd_engines_live", "Engines spun up in the pool.",
		snap(func(st *Stats) float64 { return float64(st.EnginesLive) }))
	r.GaugeFunc("asyncd_engines_max", "Engine-pool ceiling.",
		snap(func(st *Stats) float64 { return float64(st.EnginesMax) }))
	r.GaugeFunc("asyncd_queue_depth_limit", "Bound on the waiting queue.",
		snap(func(st *Stats) float64 { return float64(st.QueueDepth) }))
	r.GaugeFunc("asyncd_queue_wait_avg_seconds", "Mean queue wait of dispatched runs.",
		snap(func(st *Stats) float64 { return st.AvgQueueWaitMS / 1000.0 }))
	r.GaugeFunc("asyncd_queue_wait_max_seconds", "Max queue wait of dispatched runs.",
		snap(func(st *Stats) float64 { return st.MaxQueueWaitMS / 1000.0 }))
	r.GaugeFunc("asyncd_uptime_seconds", "Seconds since the scheduler was built.", func() float64 {
		s.scrapeMu.Lock()
		defer s.scrapeMu.Unlock()
		return s.scrapeUptime
	})
	r.GaugeFunc("asyncd_jobs_completed_per_second", "Completed jobs per second of uptime.", func() float64 {
		s.scrapeMu.Lock()
		defer s.scrapeMu.Unlock()
		if s.scrapeUptime <= 0 {
			return 0
		}
		return float64(s.scrape.Done) / s.scrapeUptime
	})

	tenantC := func(f func(ts TenantStats) float64) func(emit func(string, float64)) {
		return func(emit func(string, float64)) {
			s.scrapeMu.Lock()
			defer s.scrapeMu.Unlock()
			for t, ts := range s.scrape.Tenants {
				emit(t, f(ts))
			}
		}
	}
	r.LabeledCounterFunc("asyncd_tenant_jobs_submitted_total", "Jobs accepted, by tenant.", "tenant",
		tenantC(func(ts TenantStats) float64 { return float64(ts.Submitted) }))
	r.LabeledCounterFunc("asyncd_tenant_jobs_rejected_total", "Jobs rejected, by tenant.", "tenant",
		tenantC(func(ts TenantStats) float64 { return float64(ts.Rejected) }))
	r.LabeledGaugeFunc("asyncd_tenant_jobs_queued", "Jobs waiting, by tenant.", "tenant",
		tenantC(func(ts TenantStats) float64 { return float64(ts.Queued) }))
	r.LabeledGaugeFunc("asyncd_tenant_jobs_running", "Jobs holding an engine, by tenant.", "tenant",
		tenantC(func(ts TenantStats) float64 { return float64(ts.Running) }))

	s.mQWaitPrio = r.HistogramVec("asyncd_queue_wait_seconds",
		"Queue wait before dispatch, by priority.", "priority", telemetry.LatencyBuckets())
	s.mQWaitTenant = r.HistogramVec("asyncd_tenant_queue_wait_seconds",
		"Queue wait before dispatch, by tenant.", "tenant", telemetry.LatencyBuckets())

	if s.cfg.Store == nil {
		return
	}
	stor := func(f func(sm *storeMetricsView) float64) func() float64 {
		return func() float64 {
			s.scrapeMu.Lock()
			defer s.scrapeMu.Unlock()
			if s.scrapeStore == nil {
				return 0
			}
			return f(s.scrapeStore)
		}
	}
	r.CounterFunc("asyncd_wal_appends_total", "Durably acknowledged log records.",
		stor(func(sm *storeMetricsView) float64 { return float64(sm.appends) }))
	r.CounterFunc("asyncd_wal_fsync_seconds_count", "Fsyncs paid by the append path.",
		stor(func(sm *storeMetricsView) float64 { return float64(sm.fsyncs) }))
	r.CounterFunc("asyncd_wal_fsync_seconds_sum", "Total fsync latency, seconds.",
		stor(func(sm *storeMetricsView) float64 { return sm.fsyncTotal }))
	r.GaugeFunc("asyncd_wal_size_bytes", "Current log size.",
		stor(func(sm *storeMetricsView) float64 { return float64(sm.sizeBytes) }))
	r.CounterFunc("asyncd_wal_compactions_total", "Log rewrites to the live set.",
		stor(func(sm *storeMetricsView) float64 { return float64(sm.compactions) }))
	r.CounterFunc("asyncd_wal_checkpoint_spills_total", "Durable checkpoint files written.",
		stor(func(sm *storeMetricsView) float64 { return float64(sm.spills) }))
	r.GaugeFunc("asyncd_wal_replayed_records", "Records the last open recovered.",
		stor(func(sm *storeMetricsView) float64 { return float64(sm.replayed) }))
	r.CounterFunc("asyncd_store_errors_total", "Store operations that failed after recovery.",
		snap(func(st *Stats) float64 { return float64(st.StoreErrors) }))
	r.GaugeFunc("asyncd_recovery_seconds", "Wall time of the boot-time log replay.",
		snap(func(st *Stats) float64 { return st.RecoveryMS / 1000.0 }))
	r.GaugeFunc("asyncd_recovered_jobs", "Jobs rebuilt by the boot-time replay.",
		snap(func(st *Stats) float64 { return float64(st.RecoveredJobs) }))
	r.GaugeFunc("asyncd_degraded", "1 while the store is erroring and submissions are rejected.",
		snap(func(st *Stats) float64 {
			if st.Degraded {
				return 1
			}
			return 0
		}))
	r.CounterFunc("asyncd_jobs_retried_total", "Transient run failures re-queued under Spec.MaxRetries.",
		snap(func(st *Stats) float64 { return float64(st.Retries) }))

	if s.cfg.Store == nil {
		return
	}
	r.GaugeFunc("asyncd_leases_held", "Job leases this replica currently holds.",
		snap(func(st *Stats) float64 { return float64(st.LeasesHeld) }))
	r.GaugeFunc("asyncd_remote_jobs", "Non-terminal jobs owned by other replicas.",
		snap(func(st *Stats) float64 { return float64(st.RemoteJobs) }))
	r.CounterFunc("asyncd_fenced_total", "Runs abandoned after losing their lease (stale epoch).",
		snap(func(st *Stats) float64 { return float64(st.Fenced) }))
	r.CounterFunc("asyncd_jobs_adopted_total", "Orphaned jobs adopted after their owner's lease expired.",
		snap(func(st *Stats) float64 { return float64(st.Adopted) }))
	r.CounterFunc("asyncd_lease_claims_total", "Lease claims acknowledged by the shared store.",
		stor(func(sm *storeMetricsView) float64 { return float64(sm.leaseClaims) }))
	r.CounterFunc("asyncd_lease_renewals_total", "Lease renewals acknowledged by the shared store.",
		stor(func(sm *storeMetricsView) float64 { return float64(sm.leaseRenewals) }))
	r.CounterFunc("asyncd_fenced_appends_total", "Appends the shared store rejected with a stale fencing token.",
		stor(func(sm *storeMetricsView) float64 { return float64(sm.fencedAppends) }))
	s.mFailover = r.Histogram("asyncd_failover_seconds",
		"Latency from an orphan's lease expiry to its adoption claim.", telemetry.LatencyBuckets())
}

// WritePrometheus renders the scheduler's serving and durability counters in
// the Prometheus text exposition format (version 0.0.4), followed by the
// process-global instrumentation of the lower layers. Scrape it at
// /v1/metrics. Dependency-free: the registry is internal/telemetry.
func (s *Scheduler) WritePrometheus(w io.Writer) {
	st := s.Stats()
	var sm *storeMetricsView
	s.mu.Lock()
	uptime := time.Since(s.startedAt).Seconds()
	if s.cfg.Store != nil {
		m := s.cfg.Store.Metrics()
		sm = &storeMetricsView{
			appends:       m.Appends,
			fsyncs:        m.Fsyncs,
			fsyncTotal:    m.FsyncTotal.Seconds(),
			sizeBytes:     m.SizeBytes,
			compactions:   m.Compactions,
			spills:        m.CheckpointSpills,
			replayed:      m.ReplayedRecords,
			leaseClaims:   m.LeaseClaims,
			leaseRenewals: m.LeaseRenewals,
			fencedAppends: m.FencedAppends,
		}
	}
	s.mu.Unlock()
	s.scrapeMu.Lock()
	s.scrape = st
	s.scrapeUptime = uptime
	s.scrapeStore = sm
	s.scrapeMu.Unlock()
	s.reg.WritePrometheus(w)
	telemetry.Default().WritePrometheus(w)
}

// storeMetricsView carries the store counters out of the locked section.
type storeMetricsView struct {
	appends       int64
	fsyncs        int64
	fsyncTotal    float64
	sizeBytes     int64
	compactions   int64
	spills        int64
	replayed      int64
	leaseClaims   int64
	leaseRenewals int64
	fencedAppends int64
}
