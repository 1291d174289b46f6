package jobs_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
	"repro/internal/la"
)

// dedicated controllable solvers for the durability tests (the registry is
// process-global, so instances are per-scenario to keep channels isolated)
var (
	gateDrainA = newPGate("pgate-drain-a")
	gateDrainB = newGate("gate-drain-b")
	gateProm   = newGate("gate-prom")
)

func init() {
	if err := async.Register(gateDrainA); err != nil {
		panic(err)
	}
	for _, g := range []*gate{gateDrainB, gateProm} {
		if err := async.Register(g); err != nil {
			panic(err)
		}
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestCrashRecoveryResumeEquivalenceE2E is the durability acceptance test:
// a store-backed run is killed mid-flight (store failpoint = kill -9 at the
// store layer), a second scheduler recovers the directory, resumes the job
// from its last durable checkpoint, and the final model is bitwise
// identical to an uninterrupted run on the same seed.
func TestCrashRecoveryResumeEquivalenceE2E(t *testing.T) {
	spec := jobs.Spec{
		Algorithm:       "asgd",
		Dataset:         jobs.DatasetSpec{Name: "rcv1-like"},
		Step:            jobs.StepSpec{Kind: "const", A: 0.01},
		Updates:         1200,
		SnapshotEvery:   25,
		CheckpointEvery: 100,
	}
	engOpts := []async.Option{
		async.WithWorkers(1),
		async.WithPartitions(2),
		async.WithMinTaskTime(200 * time.Microsecond),
	}

	// reference: uninterrupted, no store
	sRef := newScheduler(t, jobs.Config{Engines: 1, EngineOptions: engOpts})
	refID, err := sRef.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sRef, refID, jobs.StateDone)
	refRes, err := sRef.Result(refID)
	if err != nil || refRes == nil {
		t.Fatalf("reference result: %v", err)
	}
	wFull := refRes.W

	// crashed: store-backed, killed after the first durable checkpoint
	dir := t.TempDir()
	w1, err := store.OpenShared(dir, "local", store.SharedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newScheduler(t, jobs.Config{Engines: 1, EngineOptions: engOpts, Store: w1})
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "a durable checkpoint", func() bool {
		m := w1.Metrics()
		return m.CheckpointSpills >= 1 && m.Appends >= 4 // submitted+claimed+dispatched+checkpointed
	})
	w1.Kill() // every later store op fails: the log freezes at this instant
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// reboot: a fresh handle on the same dir, a fresh scheduler
	w2, err := store.OpenShared(dir, "local", store.SharedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2 := newScheduler(t, jobs.Config{Engines: 1, EngineOptions: engOpts, Store: w2})
	st := s2.Stats()
	if st.RecoveredJobs != 1 {
		t.Fatalf("recovered %d jobs, want 1", st.RecoveredJobs)
	}
	if st.RecoveryMS <= 0 {
		t.Fatalf("recovery time not measured: %+v", st)
	}
	job, err := s2.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != jobs.StateDone {
		t.Fatalf("recovered job finished %s (err %q), want done", job.State, job.Err)
	}
	recRes, err := s2.Result(id)
	if err != nil || recRes == nil {
		t.Fatalf("recovered result: %v", err)
	}
	if !la.Equal(wFull, recRes.W, 0) {
		t.Fatal("crash-recovered model != uninterrupted model on a fixed seed")
	}
}

// TestGracefulDrainRestartNoWorkLost: Drain preempts the running job, its
// checkpoint lands durably, queued work stays queued, and a successor
// scheduler on the same directory resumes everything — the restart loses no
// submitted job and no checkpointed progress.
func TestGracefulDrainRestartNoWorkLost(t *testing.T) {
	dir := t.TempDir()
	w1, err := store.OpenShared(dir, "local", store.SharedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newScheduler(t, jobs.Config{Engines: 1, Store: w1})
	runningID, err := s1.Submit(gateSpec2(gateDrainA.name, 71))
	if err != nil {
		t.Fatal(err)
	}
	expectStartTag(t, gateDrainA.starts, 71)
	queuedID, err := s1.Submit(gateSpec(gateDrainB, 72))
	if err != nil {
		t.Fatal(err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s1.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// drained: the preempted checkpoint is on disk, nothing was finalized
	if m := w1.Metrics(); m.CheckpointSpills < 1 {
		t.Fatalf("drain spilled no checkpoint: %+v", m)
	}
	if job, err := s1.Status(runningID); err != nil || job.State != jobs.StatePreempted {
		t.Fatalf("running job after drain: %+v (err %v), want preempted", job, err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Drain(dctx); err == nil {
		t.Fatal("drain after close succeeded, want error")
	}
	w1.Close()

	// restart: both jobs come back — the preempted one resumes from its
	// checkpoint, the queued one runs after it
	w2, err := store.OpenShared(dir, "local", store.SharedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2 := newScheduler(t, jobs.Config{Engines: 1, Store: w2})
	if st := s2.Stats(); st.RecoveredJobs != 2 {
		t.Fatalf("recovered %d jobs, want 2", st.RecoveredJobs)
	}
	expectResume(t, gateDrainA, 71) // resumed from the drained checkpoint
	releasePG(t, gateDrainA)
	waitState(t, s2, runningID, jobs.StateDone)
	expectStart(t, gateDrainB, 72)
	release(t, gateDrainB)
	waitState(t, s2, queuedID, jobs.StateDone)
}

// TestPrometheusMetricsScrape pins the /v1/metrics exposition: Prometheus
// text content type, serving counters, WAL counters, tenant labels; /v1/stats
// keeps the JSON Stats shape.
func TestPrometheusMetricsScrape(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenShared(dir, "local", store.SharedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := newScheduler(t, jobs.Config{Engines: 1, Store: w})
	srv := httptest.NewServer(jobs.NewHandler(s))
	defer srv.Close()

	spec := gateSpec(gateProm, 81)
	spec.Tenant = "acme"
	id := postJob(t, srv.URL, spec)
	expectStart(t, gateProm, 81)
	release(t, gateProm)
	waitState(t, s, id, jobs.StateDone)

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE asyncd_jobs_submitted_total counter",
		"asyncd_jobs_submitted_total 1",
		"asyncd_jobs_done_total 1",
		"asyncd_wal_appends_total",
		"asyncd_wal_fsync_seconds_count",
		"asyncd_wal_size_bytes",
		`asyncd_tenant_jobs_submitted_total{tenant="acme"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
}

// TestLegacySingleNodeLogOpensUnchanged pins compatibility with store
// directories written by the single-node log that predates lease-claimed
// ownership (testdata/single-node-log: job-%06d IDs, no lease records).
// Opened as replica "local", the scheduler recovers every job under its old
// ID, resumes the preempted job from its spill (bitwise equal to an
// uninterrupted run), runs the queued job, and mints new IDs that cannot
// collide with the old ones.
func TestLegacySingleNodeLogOpensUnchanged(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "single-node-log")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// reference for the preempted job: the same spec, uninterrupted
	sRef := newScheduler(t, jobs.Config{Engines: 1, EngineOptions: chaosEngOpts})
	refID, err := sRef.Submit(asgdSpec(1200))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sRef, refID, jobs.StateDone)
	ref, err := sRef.Result(refID)
	if err != nil || ref == nil {
		t.Fatalf("reference result: %v", err)
	}

	sh, err := store.OpenShared(dir, "local", store.SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	s := newScheduler(t, jobs.Config{Engines: 1, EngineOptions: chaosEngOpts, Store: sh})
	if st := s.Stats(); st.RecoveredJobs != 3 {
		t.Fatalf("recovered %d jobs, want 3", st.RecoveredJobs)
	}
	if job, err := s.Status("job-000001"); err != nil || job.State != jobs.StateDone || job.Updates != 60 {
		t.Fatalf("done job: %+v (err %v), want done at 60 updates", job, err)
	}
	pre := waitState(t, s, "job-000002", jobs.StateDone)
	if pre.Preemptions < 1 || pre.Updates != 1200 {
		t.Fatalf("preempted job finished %+v, want its 1200 updates after >=1 preemption", pre)
	}
	res, err := s.Result("job-000002")
	if err != nil || res == nil {
		t.Fatalf("resumed result: %v", err)
	}
	if !la.Equal(ref.W, res.W, 0) {
		t.Fatal("job resumed from the legacy spill != uninterrupted run on a fixed seed")
	}
	if job := waitState(t, s, "job-000003", jobs.StateDone); job.Updates != 60 {
		t.Fatalf("queued job ran %d updates, want 60", job.Updates)
	}
	id, err := s.Submit(asgdSpec(25))
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-local-000004" {
		t.Fatalf("first new ID %s, want job-local-000004 (continues the legacy sequence)", id)
	}
	waitState(t, s, id, jobs.StateDone)
	if n := len(s.List()); n != 4 {
		t.Fatalf("listing holds %d jobs, want the 3 legacy ones plus the new one", n)
	}
}
