package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"repro/async/jobs/store"
	"repro/internal/telemetry"
)

// Lease ownership: every scheduler with a store is one replica of it (a
// Shared log on a common directory, or one *Mem in tests) — a single-node
// daemon is just the only one. Every job is claimed through the store's
// lease CAS before it dispatches, every ownership-asserting append carries
// the claim's (owner, epoch) fencing token, and two background loops keep
// the replicas coherent:
//
//   - the heartbeat renews held leases every Config.RenewEvery; a renewal
//     that comes back ErrFenced (or cannot reach the store while the lease
//     is about to lapse) self-fences the run — it is canceled and its
//     outcome abandoned, because an adopter owns the job's history now;
//   - the tail scan replays the log past the local watermark every
//     Config.AdoptScanEvery, importing other replicas' submissions as
//     claimable queue entries, marking claimed jobs remote, mirroring
//     their checkpoints and terminal records, and re-enqueueing jobs whose
//     lease expired (orphans) so the claim CAS arbitrates adoption.
//
// Safety rests entirely on the store's fencing: a partitioned replica that
// keeps running past its lease expiry has every subsequent append rejected
// with ErrFenced, so at most one replica's records for a job land after
// failover, and epochs for a job strictly increase across owners.

// startReplicaLoops launches the heartbeat and tail-scan goroutines.
// Called once from New, after recovery.
func (s *Scheduler) startReplicaLoops() {
	s.replicaStop = make(chan struct{})
	s.wg.Add(2)
	go s.heartbeatLoop(s.replicaStop)
	go s.tailLoop(s.replicaStop)
}

func (s *Scheduler) heartbeatLoop(stop <-chan struct{}) {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RenewEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.renewHeldLeases()
		}
	}
}

func (s *Scheduler) tailLoop(stop <-chan struct{}) {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.AdoptScanEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.syncTail()
			s.adoptOrphans()
		}
	}
}

// stampOwner copies the job's lease fencing token onto an
// ownership-asserting record. A no-op without a held lease (no store, or
// records of never-dispatched jobs).
func (s *Scheduler) stampOwner(j *job, rec *store.Record) *store.Record {
	if j.lease.Epoch != 0 {
		rec.Owner, rec.Epoch = j.lease.Owner, j.lease.Epoch
	}
	return rec
}

// claimLocked runs the lease CAS for a job about to dispatch. On
// ErrLeaseHeld the job is marked remote and leaves the queue (another
// replica won it); on store trouble the job stays queued for the next
// round. A successful claim of an adoption candidate loads the orphan's
// last spilled checkpoint and records the failover latency.
func (s *Scheduler) claimLocked(j *job) bool {
	l, err := s.cfg.Store.Claim(string(j.id), s.cfg.ReplicaID, s.cfg.LeaseTTL)
	switch {
	case errors.Is(err, store.ErrLeaseHeld):
		s.removeFromQueueLocked(j)
		j.remote = true
		return false
	case err != nil:
		s.storeErrs++
		s.degraded = true
		return false
	}
	s.degraded = false
	j.lease, j.leaseLost = l, false
	j.remote, j.remoteOwner = false, ""
	if !j.orphanedAt.IsZero() {
		lat := time.Since(j.orphanedAt)
		j.orphanedAt = time.Time{}
		s.adoptedN++
		if lat > 0 {
			s.failoverTotal += lat
			s.failoverN++
			if s.mFailover != nil {
				s.mFailover.ObserveDuration(lat)
			}
		}
		j.trace.Event("adopted", "epoch", l.Epoch,
			"failover_ms", float64(lat.Microseconds())/1000.0)
	}
	if j.cp == nil && j.cpSpilled {
		// adopted (or tail-mirrored) checkpoint: pull the spill so the run
		// resumes from it instead of update 0
		if cp, err := s.cfg.Store.LoadCheckpoint(string(j.id), j.cpSeq); err == nil {
			j.cp = cp
		} else {
			s.storeErrs++
		}
	}
	return true
}

// releaseLeaseLocked ends the job's lease (preemption, retry): the spilled
// checkpoint is durable, so any replica — this one included — may re-claim
// the job through the CAS.
func (s *Scheduler) releaseLeaseLocked(j *job) {
	if j.lease.Epoch == 0 {
		return
	}
	lease := j.lease
	j.lease = store.Lease{}
	if err := s.cfg.Store.Release(string(j.id), lease.Owner, lease.Epoch); err != nil &&
		!errors.Is(err, store.ErrFenced) {
		s.storeErrs++
	}
}

// fenceRunningLocked marks a running job's lease lost and cancels its run;
// the unwind path then abandons the outcome instead of finalizing it.
func (s *Scheduler) fenceRunningLocked(j *job) {
	if j.leaseLost || j.state != StateRunning || j.remote {
		return
	}
	j.leaseLost = true
	j.cancel()
}

// abandonLocked discards a fenced run's outcome: the job's durable history
// belongs to its adopter now, so nothing is appended, released, or
// finalized here. The job is marked remote; if no adopter ever claims it,
// the orphan scan flips it back to claimable.
func (s *Scheduler) abandonLocked(j *job) {
	if j.state.Terminal() {
		// finalizeRemoteLocked landed while run() had mu released (its
		// ownership Renew runs unlocked): the mirrored terminal state is
		// the truth — flipping it back to queued would re-open a job whose
		// done channel is already closed
		return
	}
	s.fencedN++
	j.preempting = false
	j.engine = -1
	j.lease = store.Lease{}
	j.leaseLost = false
	j.cancelRequested = false
	// the self-fence canceled the run context; a future re-adoption
	// needs a fresh one
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.remote = true
	j.state = StateQueued
	j.trace.Event("abandoned", "reason", "lease lost")
	s.emitLocked(j, EventPreempted, "lease lost; run abandoned")
}

// renewHeldLeases extends every lease this replica holds. The store calls
// run outside the scheduler lock; per-job state is re-checked under it.
func (s *Scheduler) renewHeldLeases() {
	type held struct {
		j     *job
		lease store.Lease
	}
	s.mu.Lock()
	var hs []held
	for _, j := range s.jobs {
		if j.state == StateRunning && !j.remote && !j.leaseLost && j.lease.Epoch != 0 {
			hs = append(hs, held{j, j.lease})
		}
	}
	s.mu.Unlock()
	for _, h := range hs {
		l, err := s.cfg.Store.Renew(string(h.j.id), h.lease.Owner, h.lease.Epoch, s.cfg.LeaseTTL)
		s.mu.Lock()
		switch {
		case err == nil:
			s.degraded = false
			if h.j.lease.Epoch == h.lease.Epoch {
				h.j.lease = l
			}
		case errors.Is(err, store.ErrFenced):
			// ownership is gone (expiry + adoption, or a newer claim):
			// self-fence now so the run stops burning its update budget
			s.fenceRunningLocked(h.j)
		default:
			s.storeErrs++
			s.degraded = true
			if time.Until(time.Unix(0, h.lease.ExpiresAt)) < s.cfg.RenewEvery {
				// the store is unreachable and the lease will lapse before
				// the next heartbeat: assume an adopter exists
				s.fenceRunningLocked(h.j)
			}
		}
		s.mu.Unlock()
	}
}

// syncTail replays the shared log past the local watermark and folds the
// other replicas' records into local state.
func (s *Scheduler) syncTail() {
	var recs []store.Record
	wm, err := s.cfg.Store.ReplaySince(s.wm, func(r store.Record) error {
		recs = append(recs, r)
		return nil
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.storeErrs++
		return
	}
	s.wm = wm
	if s.closed {
		return
	}
	// after a compaction the batch is the whole rewritten log, repeating
	// the submissions of jobs this replica finished long ago and that
	// retention already evicted here. Importing one would queue it again —
	// and since its terminal record cleared its epoch, the claim would
	// succeed and the job would run twice. A job whose terminal record in
	// the batch is our own is never new to us: its submission is not
	// imported. (A peer's job that started and finished between two scans
	// is still imported and mirrored as terminal.)
	ours := map[string]bool{}
	for i := range recs {
		if recs[i].Type.Terminal() && recs[i].Owner == s.cfg.ReplicaID {
			ours[recs[i].Job] = true
		}
	}
	for i := range recs {
		if recs[i].Type == store.TypeSubmitted && ours[recs[i].Job] {
			continue
		}
		s.applyRemoteLocked(&recs[i])
	}
	s.dispatchLocked()
}

// applyRemoteLocked folds one shared-log record into local state. Records
// this replica wrote itself (rec.Owner == ReplicaID, or a Submitted for a
// known job) are idempotently skipped: the local mutation already applied.
func (s *Scheduler) applyRemoteLocked(rec *store.Record) {
	us := s.cfg.ReplicaID
	j := s.jobs[ID(rec.Job)]
	switch rec.Type {
	case store.TypeSubmitted:
		if j == nil {
			s.importRemoteSubmitLocked(rec)
		}
	case store.TypeClaimed:
		if j == nil || rec.Owner == us || j.state.Terminal() {
			return
		}
		if j.lease.Epoch != 0 && !j.leaseLost {
			if rec.Epoch > j.lease.Epoch {
				// the log proves a newer claim displaced ours
				s.fenceRunningLocked(j)
			}
			return
		}
		s.removeFromQueueLocked(j)
		j.remote, j.remoteOwner = true, rec.Owner
	case store.TypeDispatched:
		if j == nil || rec.Owner == "" || rec.Owner == us || j.state.Terminal() {
			return
		}
		if j.lease.Epoch != 0 && !j.leaseLost {
			return
		}
		s.removeFromQueueLocked(j)
		j.remote, j.remoteOwner = true, rec.Owner
		if rec.Updates > j.updates {
			j.updates = rec.Updates
		}
	case store.TypeCheckpointed, store.TypePreempted:
		if j == nil || rec.Owner == "" || rec.Owner == us || j.state.Terminal() {
			return
		}
		j.cpSeq, j.cpUpdates, j.cpSpilled = rec.DispatchSeq, rec.Updates, true
		j.cp = nil // stale local capture; reload from the spill on adoption
		if rec.Updates > j.updates {
			j.updates = rec.Updates
		}
	case store.TypeReleased:
		if j == nil || rec.Owner == "" || rec.Owner == us || j.state.Terminal() || !j.remote {
			return
		}
		// the owner let go (preemption, retry): the job is claimable again
		j.remote, j.remoteOwner = false, ""
		j.state = StateQueued
		if j.cpSpilled {
			j.state = StatePreempted
		}
		j.queued = time.Now()
		if !s.inQueueLocked(j) {
			s.enqueueLocked(j)
		}
	case store.TypeDone, store.TypeFailed, store.TypeCanceled:
		if j == nil || rec.Owner == us || j.state.Terminal() {
			return
		}
		s.finalizeRemoteLocked(j, rec)
	}
}

// importRemoteSubmitLocked builds a claimable local job from another
// replica's Submitted record. The job enters the queue like any other —
// whichever replica's dispatch wins the claim CAS runs it, which is how a
// second replica adds throughput. A spec that does not validate against
// this process's registry is left to its home replica.
func (s *Scheduler) importRemoteSubmitLocked(rec *store.Record) {
	if len(s.queue) >= s.cfg.QueueDepth {
		// same admission bound as Submit: a burst on one replica must not
		// grow every replica's queue without limit — over-limit imports
		// stay with their home replica
		return
	}
	var spec Spec
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		s.storeErrs++
		return
	}
	if err := spec.normalize(); err != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        ID(rec.Job),
		spec:      spec,
		dataKey:   spec.Dataset.Key(),
		seq:       rec.JobSeq,
		state:     StateQueued,
		engine:    -1,
		submitted: time.Unix(0, rec.Time),
		queued:    time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	if spec.SLOMillis > 0 {
		j.deadline = j.submitted.Add(time.Duration(spec.SLOMillis) * time.Millisecond)
	}
	j.trace = telemetry.NewTrace(string(j.id), 0)
	j.trace.Event("imported", "algorithm", spec.Algorithm, "tenant", spec.Tenant)
	s.jobs[j.id] = j
	s.enqueueLocked(j)
	s.emitLocked(j, EventQueued, "imported from shared log")
}

// adoptOrphans scans the lease table for expired leases on non-terminal
// jobs and re-enqueues them as claimable: the next dispatch round's claim
// CAS (on whichever replica gets there first) adopts them, resuming from
// the orphan's last spilled checkpoint. Live foreign leases the tail scan
// has not seen yet mark jobs remote.
func (s *Scheduler) adoptOrphans() {
	leases, err := s.cfg.Store.Leases()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.storeErrs++
		return
	}
	if s.closed || s.draining {
		return
	}
	now := time.Now()
	dispatch := false
	for _, l := range leases {
		j, ok := s.jobs[ID(l.Job)]
		if !ok || j.state.Terminal() {
			continue
		}
		if l.Live(now) {
			if l.Owner != s.cfg.ReplicaID && !j.remote && j.state != StateRunning {
				s.removeFromQueueLocked(j)
				j.remote, j.remoteOwner = true, l.Owner
			}
			continue
		}
		if j.state == StateRunning && !j.remote {
			continue // our own expiring run; the heartbeat handles it
		}
		if s.inQueueLocked(j) {
			if j.orphanedAt.IsZero() {
				j.orphanedAt = time.Unix(0, l.ExpiresAt)
			}
			continue
		}
		j.remote, j.remoteOwner = false, ""
		j.orphanedAt = time.Unix(0, l.ExpiresAt)
		j.state = StateQueued
		if j.cpSpilled || j.cp != nil {
			j.state = StatePreempted
		}
		j.queued = now
		s.enqueueLocked(j)
		j.trace.Event("orphaned", "expired_owner", l.Owner, "epoch", l.Epoch)
		s.emitLocked(j, EventQueued, "lease expired; adoptable")
		dispatch = true
	}
	if dispatch {
		s.dispatchLocked()
	}
}

// inQueueLocked reports whether the job is in the waiting queue.
func (s *Scheduler) inQueueLocked(j *job) bool {
	for _, q := range s.queue {
		if q == j {
			return true
		}
	}
	return false
}

// finalizeRemoteLocked mirrors another replica's terminal record: local
// bookkeeping only — no store appends and no completion counters (the
// owner counted the outcome), but waiters unblock and subscribers see the
// terminal event exactly as if the job had finished here.
func (s *Scheduler) finalizeRemoteLocked(j *job, rec *store.Record) {
	s.removeFromQueueLocked(j)
	if j.state == StateRunning && !j.remote {
		// we believed the run was ours; the foreign terminal record proves
		// otherwise — stop it, its unwind backs off on the terminal state
		s.fenceRunningLocked(j)
	}
	j.engine = -1
	j.remote, j.remoteOwner = true, rec.Owner
	j.lease = store.Lease{}
	// j.leaseLost is deliberately left as-is: a fenced run's unwind may not
	// have observed it yet, and clearing it here would send that unwind down
	// the finalize path instead of the (terminal-guarded) abandon path
	j.finished = time.Unix(0, rec.Time)
	if rec.Updates > j.updates {
		j.updates = rec.Updates
	}
	var typ EventType
	switch rec.Type {
	case store.TypeDone:
		j.state, typ = StateDone, EventDone
		if rec.HasFinal {
			j.finalErr = finitePtr(rec.FinalError)
		}
	case store.TypeFailed:
		j.state, typ = StateFailed, EventFailed
		j.err = rec.Detail
	default:
		j.state, typ = StateCanceled, EventCanceled
		j.err = rec.Detail
	}
	j.trace.Event(string(typ), "owner", rec.Owner, "updates", j.updates)
	ev := s.newEventLocked(j, typ, j.err)
	ev.Updates = j.updates
	ev.Error = j.finalErr
	s.retireLocked(j, ev)
}

// Kill terminates the scheduler the way a crash would: runs are canceled
// and engines close, but nothing is finalized, released, or appended — the
// store keeps the pre-crash picture, live leases included, which is
// exactly what a surviving replica fails over from. Chaos/testing hook; a
// killed scheduler is closed for every other purpose.
func (s *Scheduler) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.replicaStop != nil {
		close(s.replicaStop)
		s.replicaStop = nil
	}
	s.queue = nil
	for _, j := range s.jobs {
		if j.state == StateRunning && !j.remote {
			if s.cfg.Store != nil {
				j.leaseLost = true // unwind abandons instead of finalizing
			} else {
				j.cancelRequested = true
			}
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	slots := s.slots
	s.slots = nil
	s.mu.Unlock()
	for _, sl := range slots {
		if sl.eng != nil {
			_ = sl.eng.Close()
		}
	}
}
