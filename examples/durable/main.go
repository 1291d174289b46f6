// Example durable demonstrates the durable job store end to end: a
// scheduler over a store directory (one store.Shared replica, as asyncd
// -store-dir runs it) accepts a long checkpointing job and a queued
// follow-up, drains gracefully mid-run (the running job is preempted and
// its checkpoint spilled durably), and "restarts" — a second scheduler
// recovers the same directory, resumes the preempted job from its last
// durable checkpoint, and finishes everything with no work lost.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
)

func main() {
	dir, err := os.MkdirTemp("", "asyncd-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Printf("store directory: %s\n", dir)

	spec := jobs.Spec{
		Algorithm:       "asgd",
		Dataset:         jobs.DatasetSpec{Name: "rcv1-like"},
		Step:            jobs.StepSpec{Kind: "const", A: 0.01},
		Updates:         4000,
		SnapshotEvery:   100,
		CheckpointEvery: 100, // at most 100 updates of work at risk
	}
	engOpts := []async.Option{
		async.WithWorkers(2),
		async.WithPartitions(4),
		async.WithMinTaskTime(500 * time.Microsecond), // stretch the run so the drain lands mid-flight
	}

	// ---- first process lifetime ----
	w, err := store.OpenShared(dir, "local", store.SharedOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sched, err := jobs.New(jobs.Config{Engines: 1, EngineOptions: engOpts, Store: w})
	if err != nil {
		log.Fatal(err)
	}
	longID, err := sched.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	short := spec
	short.Updates = 400
	queuedID, err := sched.Submit(short) // waits behind the long job
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (long, running) and %s (queued)\n", longID, queuedID)

	// let the long job make durable progress, then shut down gracefully —
	// what asyncd does on SIGTERM
	for {
		j, err := sched.Status(longID)
		if err != nil {
			log.Fatal(err)
		}
		if j.Updates >= 500 {
			fmt.Printf("long job at %d updates; draining\n", j.Updates)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := sched.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	cancel()
	j, _ := sched.Status(longID)
	fmt.Printf("drained: %s is %s with a durable checkpoint at %d updates\n", longID, j.State, j.Updates)
	if err := sched.Close(); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// ---- second process lifetime: recover the same directory ----
	w2, err := store.OpenShared(dir, "local", store.SharedOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer w2.Close()
	sched2, err := jobs.New(jobs.Config{Engines: 1, EngineOptions: engOpts, Store: w2})
	if err != nil {
		log.Fatal(err)
	}
	defer sched2.Close()
	st := sched2.Stats()
	fmt.Printf("recovered %d jobs in %.1fms\n", st.RecoveredJobs, st.RecoveryMS)

	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer wcancel()
	for _, id := range []jobs.ID{longID, queuedID} {
		job, err := sched2.Wait(wctx, id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s finished %s after %d updates (%d preemption(s))\n",
			job.ID, job.State, job.Updates, job.Preemptions)
	}
	fmt.Println("restart lost no submitted job and at most checkpoint_every updates of progress")
}
