package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
	"repro/internal/la"
	"repro/internal/opt"
)

func durableSpec() jobs.Spec {
	return jobs.Spec{
		Algorithm: "asgd",
		Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
		Step:      jobs.StepSpec{Kind: "const", A: 0.01},
		Updates:   25,
	}
}

// storeMetrics measures the durability layer in isolation: the
// fsync-inclusive append latency the append-before-ack invariant pays, and
// cold-boot recovery over a populated log.
func storeMetrics(log func(Entry)) error {
	// store.append_ns: one durable transition (frame encode + write + fsync)
	dir, err := os.MkdirTemp("", "bench-wal-append-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := store.OpenShared(dir, "local", store.SharedOptions{})
	if err != nil {
		return err
	}
	var appendErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := &store.Record{Type: store.TypeCheckpointed, Job: "job-local-000001", Updates: int64(i), DispatchSeq: int64(i)}
			if appendErr = w.Append(rec); appendErr != nil {
				b.Fatal(appendErr)
			}
		}
	})
	w.Close()
	if appendErr != nil {
		return appendErr
	}
	log(Entry{Name: "store.append_ns", Value: float64(res.NsPerOp()), Unit: "ns/op", Better: LowerIsBetter,
		Note: "durable log append on one store.Shared replica: flock + tail refresh + frame encode + write + fsync (append-before-ack)"})

	// store.recovery_ms: scheduler cold boot over a 200-job log — replay,
	// rebuild, checkpoint loads, lease-table scan.
	dir2, err := os.MkdirTemp("", "bench-wal-recover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir2)
	w2, err := store.OpenShared(dir2, "local", store.SharedOptions{NoSync: true})
	if err != nil {
		return err
	}
	specJSON, err := json.Marshal(durableSpec())
	if err != nil {
		return err
	}
	cp := &opt.Checkpoint{Algorithm: "asgd", W: la.NewVec(1000), Updates: 500}
	cp.SetInt("dispatch_seq", 7)
	const jobsN = 200
	for i := 1; i <= jobsN; i++ {
		id := fmt.Sprintf("job-local-%06d", i)
		if err := w2.Append(&store.Record{Type: store.TypeSubmitted, Job: id, JobSeq: int64(i), Spec: specJSON}); err != nil {
			return err
		}
		switch i % 4 {
		case 0: // terminal
			if err := w2.Append(&store.Record{Type: store.TypeDispatched, Job: id}); err != nil {
				return err
			}
			if err := w2.Append(&store.Record{Type: store.TypeDone, Job: id, Updates: 25, FinalError: 0.01, HasFinal: true}); err != nil {
				return err
			}
		case 1: // preempted with a durable checkpoint to load
			if err := w2.Append(&store.Record{Type: store.TypeDispatched, Job: id}); err != nil {
				return err
			}
			if err := w2.SaveCheckpoint(id, 7, cp); err != nil {
				return err
			}
			if err := w2.Append(&store.Record{Type: store.TypeCheckpointed, Job: id, Updates: 500, DispatchSeq: 7}); err != nil {
				return err
			}
			if err := w2.Append(&store.Record{Type: store.TypePreempted, Job: id, Updates: 500, DispatchSeq: 7}); err != nil {
				return err
			}
		}
	}
	if err := w2.Close(); err != nil {
		return err
	}
	w3, err := store.OpenShared(dir2, "local", store.SharedOptions{NoSync: true})
	if err != nil {
		return err
	}
	defer w3.Close()
	s, err := jobs.New(jobs.Config{
		Engines:       1,
		QueueDepth:    jobsN + 1,
		Retention:     jobsN + 1,
		Store:         w3,
		EngineOptions: []async.Option{async.WithWorkers(1), async.WithPartitions(2)},
	})
	if err != nil {
		return err
	}
	st := s.Stats()
	if err := s.Close(); err != nil {
		return err
	}
	if st.RecoveredJobs != jobsN {
		return fmt.Errorf("bench: recovered %d jobs, want %d", st.RecoveredJobs, jobsN)
	}
	log(Entry{Name: "store.recovery_ms", Value: st.RecoveryMS, Unit: "ms", Better: LowerIsBetter,
		Note: fmt.Sprintf("cold boot of one store.Shared replica over a %d-job log (queued/preempted/done mix, checkpoint loads, lease scan)", jobsN)})
	return nil
}

// durableSchedulerMetrics measures serving throughput with durability on —
// every transition fsynced — across a drain/restart cycle in the middle of
// the run, so the number prices recovery into the sustained rate.
func durableSchedulerMetrics(log func(Entry)) error {
	dir, err := os.MkdirTemp("", "bench-wal-sustained-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := store.OpenShared(dir, "local", store.SharedOptions{})
	if err != nil {
		return err
	}
	const n = 40
	cfg := jobs.Config{
		Engines:    2,
		QueueDepth: n + 2,
		Retention:  n + 2,
		Store:      w,
		EngineOptions: []async.Option{
			async.WithWorkers(2),
			async.WithPartitions(2),
		},
	}
	s, err := jobs.New(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	// warm up: engines spun, dataset generated and distributed
	warm, err := s.Submit(durableSpec())
	if err != nil {
		return err
	}
	if _, err := s.Wait(ctx, warm); err != nil {
		return err
	}

	start := time.Now()
	ids := make([]jobs.ID, n)
	for i := range ids {
		if ids[i], err = s.Submit(durableSpec()); err != nil {
			return err
		}
	}
	// let half the batch complete, then restart the service mid-run
	for s.Stats().Done < 1+n/2 {
		if ctx.Err() != nil {
			return fmt.Errorf("bench: durable batch stalled: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(ctx); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	w2, err := store.OpenShared(dir, "local", store.SharedOptions{})
	if err != nil {
		return err
	}
	defer w2.Close()
	cfg.Store = w2
	s2, err := jobs.New(cfg)
	if err != nil {
		return err
	}
	defer s2.Close()
	for _, id := range ids {
		job, err := s2.Wait(ctx, id)
		if err != nil {
			return err
		}
		if job.State != jobs.StateDone {
			return fmt.Errorf("bench: durable job %s finished %s (%s)", job.ID, job.State, job.Err)
		}
	}
	elapsed := time.Since(start)
	log(Entry{Name: "scheduler.sustained_jobs_per_sec", Value: float64(n) / elapsed.Seconds(), Unit: "jobs/sec", Better: HigherIsBetter,
		Note: fmt.Sprintf("%d ASGD jobs through a 2-engine pool on one fsynced store.Shared replica (lease claim per dispatch) with a mid-batch drain/restart", n)})
	return nil
}

// replicaCfg builds one replica's scheduler config over a shared store with
// bench-grade lease timing (tight scans so failover and cross-replica
// mirroring, not ticker cadence, dominate the numbers).
func replicaCfg(st store.LeaseStore, replica string, depth int) jobs.Config {
	return jobs.Config{
		Engines:        1,
		QueueDepth:     depth,
		Retention:      depth,
		Store:          st,
		ReplicaID:      replica,
		LeaseTTL:       200 * time.Millisecond,
		RenewEvery:     40 * time.Millisecond,
		AdoptScanEvery: 25 * time.Millisecond,
		EngineOptions: []async.Option{
			async.WithWorkers(2),
			async.WithPartitions(2),
		},
	}
}

// replicaMetrics measures multi-replica serving: failover latency (kill the
// owning replica mid-run, time from lease expiry to the survivor's adoption
// claim) and batch throughput at one vs two replicas over one shared
// directory — the second replica claims work off the shared log, so the
// jobs/sec delta is the scale-out the lease CAS buys.
func replicaMetrics(log func(Entry)) error {
	// scheduler.failover_ms: orphan expiry → adoption claim on the survivor
	dir, err := os.MkdirTemp("", "bench-replica-failover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	shA, err := store.OpenShared(dir, "a", store.SharedOptions{NoSync: true})
	if err != nil {
		return err
	}
	sA, err := jobs.New(replicaCfg(shA, "a", 4))
	if err != nil {
		return err
	}
	spec := durableSpec()
	spec.Updates = 4000
	spec.CheckpointEvery = 50
	id, err := sA.Submit(spec)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for shA.Metrics().CheckpointSpills < 1 {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: replica a never spilled a checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	sA.Kill() // crash without releasing: the lease must expire
	shA.Kill()
	shB, err := store.OpenShared(dir, "b", store.SharedOptions{NoSync: true})
	if err != nil {
		return err
	}
	defer shB.Close()
	sB, err := jobs.New(replicaCfg(shB, "b", 4))
	if err != nil {
		return err
	}
	defer sB.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	job, err := sB.Wait(ctx, id)
	if err != nil {
		return err
	}
	if job.State != jobs.StateDone {
		return fmt.Errorf("bench: failed-over job finished %s (%s)", job.State, job.Err)
	}
	st := sB.Stats()
	if st.Adopted < 1 || st.FailoverMS <= 0 {
		return fmt.Errorf("bench: no adoption measured (adopted %d, failover %.3f ms)", st.Adopted, st.FailoverMS)
	}
	log(Entry{Name: "scheduler.failover_ms", Value: st.FailoverMS, Unit: "ms", Better: LowerIsBetter,
		Note: "owner killed mid-run: lease expiry → survivor's adoption claim (checkpointed resume)"})

	// scheduler.replica{1,2}_jobs_per_sec: one batch, one vs two claimants
	one, err := replicaBatch(1)
	if err != nil {
		return err
	}
	two, err := replicaBatch(2)
	if err != nil {
		return err
	}
	log(Entry{Name: "scheduler.replica1_jobs_per_sec", Value: one, Unit: "jobs/sec", Better: HigherIsBetter,
		Note: "16 ASGD jobs (400 updates each), single replica over a shared store (lease CAS on every dispatch)"})
	log(Entry{Name: "scheduler.replica2_jobs_per_sec", Value: two, Unit: "jobs/sec", Better: HigherIsBetter,
		Note: "same batch, two replicas claiming off one shared log"})
	return nil
}

// replicaBatch pushes one batch of jobs through nReplicas schedulers
// sharing a directory and returns jobs/sec. All jobs are submitted on the
// first replica; the rest import them from the shared log and compete for
// claims.
func replicaBatch(nReplicas int) (float64, error) {
	// heavy enough per job that compute, not tail-scan cadence, dominates —
	// otherwise the cross-replica mirror latency hides the scale-out
	const n = 16
	batchSpec := durableSpec()
	batchSpec.Updates = 400
	dir, err := os.MkdirTemp("", "bench-replica-batch-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	scheds := make([]*jobs.Scheduler, nReplicas)
	for i := range scheds {
		name := fmt.Sprintf("r%d", i)
		sh, err := store.OpenShared(dir, name, store.SharedOptions{NoSync: true})
		if err != nil {
			return 0, err
		}
		defer sh.Close()
		if scheds[i], err = jobs.New(replicaCfg(sh, name, n+2)); err != nil {
			return 0, err
		}
		defer scheds[i].Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	// warm up every replica's engine and dataset cache
	for _, s := range scheds {
		id, err := s.Submit(durableSpec())
		if err != nil {
			return 0, err
		}
		if _, err := s.Wait(ctx, id); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	ids := make([]jobs.ID, n)
	for i := range ids {
		var err error
		if ids[i], err = scheds[0].Submit(batchSpec); err != nil {
			return 0, err
		}
	}
	// jobs finished on other replicas mirror back through the tail scan
	for _, id := range ids {
		job, err := scheds[0].Wait(ctx, id)
		if err != nil {
			return 0, err
		}
		if job.State != jobs.StateDone {
			return 0, fmt.Errorf("bench: replica job %s finished %s (%s)", job.ID, job.State, job.Err)
		}
	}
	return float64(n) / time.Since(start).Seconds(), nil
}
