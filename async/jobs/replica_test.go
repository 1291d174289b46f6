package jobs_test

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/async/jobs"
	"repro/async/jobs/store"
)

// idSeq parses the submission ordinal out of a job ID ("job-%06d" or the
// replica-qualified "job-<replica>-%06d"), mirroring the cursor's parse.
func idSeq(t *testing.T, id jobs.ID) int64 {
	t.Helper()
	i := strings.LastIndexByte(string(id), '-')
	n, err := strconv.ParseInt(string(id)[i+1:], 10, 64)
	if err != nil {
		t.Fatalf("unparseable job ID %q: %v", id, err)
	}
	return n
}

// TestListPageCrossReplicaTies: imported remote jobs keep their home
// replica's submission ordinal, so jobs from different replicas tie on
// seq. Pagination must walk the full (seq, id) order — a cursor comparing
// the bare ordinal strictly-greater would skip or duplicate entries at
// ties.
func TestListPageCrossReplicaTies(t *testing.T) {
	mem := store.NewMem()
	cfgA := replicaConfig(mem, "a")
	cfgA.EngineOptions = chaosEngOpts
	cfgB := replicaConfig(mem, "b")
	cfgB.EngineOptions = chaosEngOpts
	sA := newScheduler(t, cfgA)
	sB := newScheduler(t, cfgB)

	const perReplica = 3
	want := map[jobs.ID]bool{}
	for i := 0; i < perReplica; i++ {
		ida, err := sA.Submit(asgdSpec(200))
		if err != nil {
			t.Fatal(err)
		}
		idb, err := sB.Submit(asgdSpec(200))
		if err != nil {
			t.Fatal(err)
		}
		want[ida], want[idb] = true, true
	}
	waitFor(t, 30*time.Second, "both replicas see all submissions", func() bool {
		return len(sA.List()) == 2*perReplica && len(sB.List()) == 2*perReplica
	})

	for _, s := range []*jobs.Scheduler{sA, sB} {
		got := map[jobs.ID]bool{}
		var prev jobs.Job
		var cursor jobs.ID
		for {
			page, next := s.ListPage(jobs.ListQuery{After: cursor, Limit: 1})
			if len(page) == 0 {
				break
			}
			j := page[0]
			if got[j.ID] {
				t.Fatalf("job %s paginated twice (cursor %q)", j.ID, cursor)
			}
			if !want[j.ID] {
				t.Fatalf("unexpected job %s in listing", j.ID)
			}
			got[j.ID] = true
			seq, prevSeq := idSeq(t, j.ID), int64(-1)
			if prev.ID != "" {
				prevSeq = idSeq(t, prev.ID)
			}
			if prev.ID != "" && (seq < prevSeq || (seq == prevSeq && j.ID <= prev.ID)) {
				t.Fatalf("pagination order broken: %s (seq %d) after %s (seq %d)",
					j.ID, seq, prev.ID, prevSeq)
			}
			prev = j
			if next == "" {
				if len(got) != len(want) {
					t.Fatalf("cursor exhausted after %d jobs, want %d", len(got), len(want))
				}
				break
			}
			cursor = next
		}
		if len(got) != len(want) {
			t.Fatalf("pagination visited %d of %d jobs (ties skipped)", len(got), len(want))
		}
	}
}

// TestCompactionDoesNotRerunFinishedJobs: a compaction bumps the log
// generation, so the next tail scan replays the whole rewritten log —
// including the submissions of finished jobs retention already evicted
// locally. None of them may be queued and run a second time: every job
// finishes exactly once, and nothing is left queued once the batch is done.
func TestCompactionDoesNotRerunFinishedJobs(t *testing.T) {
	sh, err := store.OpenShared(t.TempDir(), "a", store.SharedOptions{NoSync: true, CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	cfg := replicaConfig(sh, "a")
	cfg.Retention = 4
	cfg.AdoptScanEvery = 10 * time.Millisecond
	s := newScheduler(t, cfg)

	const n = 60
	spec := asgdSpec(25)
	spec.CheckpointEvery = 0
	for i := 0; i < n; i++ {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, id, jobs.StateDone)
	}
	if c := sh.Metrics().Compactions; c < 2 {
		t.Fatalf("%d compactions over the batch, want >= 2 to exercise the replay", c)
	}
	// give the tail scan several rounds over the last rewrite
	time.Sleep(10 * cfg.AdoptScanEvery)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Done != n || st.Queued != 0 {
		t.Fatalf("after %d jobs: done=%d queued=%d, want every job finished exactly once", n, st.Done, st.Queued)
	}
}
