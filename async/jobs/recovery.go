package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/async/jobs/store"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// replayJob accumulates one job's state while the log replays: the last
// state-defining record wins, checkpointed records ride along.
type replayJob struct {
	id          ID
	jobSeq      int64
	spec        []byte
	submitted   int64 // unix nanos
	state       State
	updates     int64
	cpSeq       int64 // dispatch seq keying the last durable spill
	cpUpdates   int64
	hasCp       bool
	preemptions int
	detail      string
	finalErr    float64
	hasFinal    bool
	finished    int64 // unix nanos of the terminal record
}

// recover rebuilds the scheduler from the store's log: terminal jobs
// reload into the retention store, queued jobs re-enqueue in priority/FIFO
// order, and jobs that were running or preempted at the crash re-enqueue
// as preempted with their last durable checkpoint — they resume through
// the normal Params.Resume path, losing at most CheckpointEvery updates.
// Called once from New, before the scheduler serves.
func (s *Scheduler) recover() error {
	start := time.Now()
	byID := map[ID]*replayJob{}
	var order []*replayJob
	// replay through the watermarked tail reader so the tail-scan loop
	// starts exactly where recovery stopped
	wm, err := s.cfg.Store.ReplaySince(store.Watermark{}, func(rec store.Record) error {
		id := ID(rec.Job)
		rj := byID[id]
		if rj == nil {
			if rec.Type != store.TypeSubmitted {
				// orphan transition (its submit was compacted away with a
				// terminal record the retention limit then dropped): skip
				return nil
			}
			rj = &replayJob{id: id, state: StateQueued}
			byID[id] = rj
			order = append(order, rj)
		}
		switch rec.Type {
		case store.TypeSubmitted:
			rj.jobSeq = rec.JobSeq
			rj.spec = rec.Spec
			rj.submitted = rec.Time
		case store.TypeDispatched:
			rj.state = StateRunning
		case store.TypeCheckpointed:
			rj.cpSeq, rj.cpUpdates, rj.hasCp = rec.DispatchSeq, rec.Updates, true
			if rec.Updates > rj.updates {
				rj.updates = rec.Updates
			}
		case store.TypePreempted:
			rj.state = StatePreempted
			rj.preemptions++
			rj.cpSeq, rj.cpUpdates, rj.hasCp = rec.DispatchSeq, rec.Updates, true
			if rec.Updates > rj.updates {
				rj.updates = rec.Updates
			}
		case store.TypeDone:
			rj.state = StateDone
			rj.updates = rec.Updates
			rj.finalErr, rj.hasFinal = rec.FinalError, rec.HasFinal
			rj.finished = rec.Time
		case store.TypeFailed:
			rj.state, rj.detail, rj.finished = StateFailed, rec.Detail, rec.Time
		case store.TypeCanceled:
			rj.state, rj.detail, rj.finished = StateCanceled, rec.Detail, rec.Time
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("jobs: recovery replay: %w", err)
	}
	s.wm = wm

	// materialize in submission order so queue FIFO-within-priority and the
	// ID sequence both restore deterministically
	sort.Slice(order, func(a, b int) bool { return order[a].jobSeq < order[b].jobSeq })
	s.mu.Lock()
	defer s.mu.Unlock()
	var terminal []*job
	for _, rj := range order {
		if rj.jobSeq > s.seq {
			s.seq = rj.jobSeq
		}
		// rebuild the serving counters the log proves: every replayed job was
		// once accepted, and terminal records pin their outcome. Without this
		// the Prometheus counters would reset to zero on every restart while
		// the job listing still showed the finished work. Jobs that fail
		// during rebuild (stale spec) are counted by finalizeLocked itself.
		s.submitted++
		s.preemptedN += int64(rj.preemptions)
		switch rj.state {
		case StateDone:
			s.doneN++
		case StateFailed:
			s.failedN++
		case StateCanceled:
			s.killedN++
		}
		j, err := s.rebuildLocked(rj)
		if err != nil {
			return err
		}
		if j.state.Terminal() {
			terminal = append(terminal, j)
		}
	}
	// retention order is completion order
	sort.Slice(terminal, func(a, b int) bool {
		return terminal[a].finished.Before(terminal[b].finished)
	})
	for _, j := range terminal {
		s.terminal = append(s.terminal, j.id)
	}
	for len(s.terminal) > s.cfg.Retention {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	s.recoveredN = len(s.jobs)
	// jobs whose live lease another replica holds are mirrors, not local
	// work — pull them back out of the queue. Expired foreign leases mark
	// adoption candidates (the failover latency anchors to the expiry
	// instant). Our own pre-crash leases need no handling: the jobs
	// re-enqueued above and re-claim through the CAS, which bumps the epoch
	// past the stale one.
	if leases, lerr := s.cfg.Store.Leases(); lerr == nil {
		now := time.Now()
		for _, l := range leases {
			j, ok := s.jobs[ID(l.Job)]
			if !ok || j.state.Terminal() || l.Owner == s.cfg.ReplicaID {
				continue
			}
			if l.Live(now) {
				s.removeFromQueueLocked(j)
				j.remote, j.remoteOwner = true, l.Owner
			} else if j.orphanedAt.IsZero() {
				j.orphanedAt = time.Unix(0, l.ExpiresAt)
			}
		}
	} else {
		s.storeErrs++
	}
	s.recoveryDur = time.Since(start)
	s.dispatchLocked()
	return nil
}

// rebuildLocked turns one replayed job into a live scheduler record.
func (s *Scheduler) rebuildLocked(rj *replayJob) (*job, error) {
	var spec Spec
	if err := json.Unmarshal(rj.spec, &spec); err != nil {
		return nil, fmt.Errorf("jobs: recovery: job %s spec: %w", rj.id, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:          rj.id,
		spec:        spec,
		dataKey:     spec.Dataset.Key(),
		seq:         rj.jobSeq,
		engine:      -1,
		submitted:   time.Unix(0, rj.submitted),
		queued:      time.Unix(0, rj.submitted),
		updates:     rj.updates,
		preemptions: rj.preemptions,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
	}
	if spec.SLOMillis > 0 {
		j.deadline = j.submitted.Add(time.Duration(spec.SLOMillis) * time.Millisecond)
	}
	j.trace = telemetry.NewTrace(string(j.id), 0)
	j.trace.Event("recovered", "state", string(rj.state), "updates", rj.updates,
		"preemptions", rj.preemptions)
	s.tenantSub[spec.Tenant]++
	if rj.state == StateDone {
		s.tenantDone[spec.Tenant]++
	}
	s.jobs[j.id] = j

	if rj.state.Terminal() {
		j.state = rj.state
		j.err = rj.detail
		j.finished = time.Unix(0, rj.finished)
		if rj.hasFinal {
			j.finalErr = finitePtr(rj.finalErr)
		}
		close(j.done)
		s.emitLocked(j, EventType(rj.state), j.err)
		return j, nil
	}

	// non-terminal: validate the spec against this process's registry and
	// catalog; a job whose algorithm no longer resolves fails loudly
	// instead of wedging the queue
	if err := spec.normalize(); err != nil {
		j.state = StateQueued
		s.finalizeLocked(j, nil, fmt.Errorf("recovery: %w", err))
		return j, nil
	}
	j.spec = spec

	if rj.hasCp {
		cp, err := s.cfg.Store.LoadCheckpoint(string(j.id), rj.cpSeq)
		if err == nil {
			// resumes through the normal preempted path
			j.cp = cp
			j.cpSeq, j.cpUpdates, j.cpSpilled = rj.cpSeq, rj.cpUpdates, true
			j.state = StatePreempted
			j.queued = time.Now() // queue-wait accounting restarts here
			s.enqueueLocked(j)
			s.emitLocked(j, EventQueued, "")
			s.emitLocked(j, EventPreempted, "recovered")
			return j, nil
		}
		// spill missing or corrupt: restart the job from scratch rather
		// than refusing to serve it (work since update 0 is lost, which the
		// log can only ever under-state, never invent)
		s.storeErrs++
	}
	j.state = StateQueued
	j.queued = time.Now()
	s.enqueueLocked(j)
	s.emitLocked(j, EventQueued, "")
	return j, nil
}

// spillLocked durably saves a checkpoint keyed by its dispatch_seq and then
// appends the record (TypeCheckpointed or TypePreempted) that references
// it — spill strictly first, so the log never names a spill that is not on
// disk. Best effort: a failed spill is counted and the job keeps serving
// from memory.
func (s *Scheduler) spillLocked(j *job, cp *opt.Checkpoint, typ store.Type) {
	if s.cfg.Store == nil || cp == nil {
		return
	}
	seq := cp.Int("dispatch_seq")
	if err := s.cfg.Store.SaveCheckpoint(string(j.id), seq, cp); err != nil {
		s.storeErrs++
		return
	}
	j.cpSeq, j.cpUpdates, j.cpSpilled = seq, cp.Updates, true
	s.logAppendLocked(s.stampOwner(j, &store.Record{
		Type: typ, Job: string(j.id), Updates: cp.Updates, DispatchSeq: seq,
	}))
}

// logAppendLocked appends a lifecycle record, best effort: serving does not
// stop when the disk misbehaves, but the failure is counted and surfaced
// through Stats/metrics. Submit is the exception — it calls the store
// directly because acknowledging an unlogged job would break the
// append-before-ack invariant.
func (s *Scheduler) logAppendLocked(rec *store.Record) {
	if s.cfg.Store == nil {
		return
	}
	if rec.Time == 0 {
		rec.Time = time.Now().UnixNano()
	}
	if err := s.cfg.Store.Append(rec); err != nil {
		s.storeErrs++
		if errors.Is(err, store.ErrFenced) {
			// a stale fencing token, not a sick disk: the job's adopter owns
			// its history now, and serving is not degraded
			s.fencedN++
		} else {
			s.degraded = true
		}
		return
	}
	s.degraded = false
}
