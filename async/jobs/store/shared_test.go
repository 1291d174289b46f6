package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openShared(t *testing.T, dir, replica string) *Shared {
	t.Helper()
	return openSharedOpts(t, dir, replica, SharedOptions{NoSync: true})
}

func openSharedOpts(t *testing.T, dir, replica string, opts SharedOptions) *Shared {
	t.Helper()
	s, err := OpenShared(dir, replica, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// ownedRecord is a lifecycle record asserting ownership under a lease.
func ownedRecord(typ Type, job, owner string, epoch int64) *Record {
	return &Record{Type: typ, Job: job, Owner: owner, Epoch: epoch}
}

// TestSharedLeaseFencing drives the fencing contract across two handles on
// one directory: a live foreign lease rejects claims (ErrLeaseHeld) and
// both owned and ownerless lifecycle appends from anyone but the owner
// (ErrFenced); release hands the job over with a strictly higher epoch,
// after which the old owner's epoch is dead forever.
func TestSharedLeaseFencing(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "a")
	b := openShared(t, dir, "b")
	const job = "job-a-000001"

	if err := a.Append(testRecord(1, TypeSubmitted, job)); err != nil {
		t.Fatal(err)
	}
	la, err := a.Claim(job, "a", time.Minute)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if la.Epoch != 1 || la.Owner != "a" {
		t.Fatalf("first claim lease %+v, want owner a epoch 1", la)
	}

	if _, err := b.Claim(job, "b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("claim over live foreign lease: %v, want ErrLeaseHeld", err)
	}
	// a bystander may not move a leased job's state, with or without a token
	if err := b.Append(ownedRecord(TypeCanceled, job, "", 0)); !errors.Is(err, ErrFenced) {
		t.Fatalf("ownerless cancel of leased job: %v, want ErrFenced", err)
	}
	if err := b.Append(ownedRecord(TypeDispatched, job, "b", la.Epoch)); !errors.Is(err, ErrFenced) {
		t.Fatalf("foreign-owner dispatch: %v, want ErrFenced", err)
	}

	if err := a.Append(ownedRecord(TypeDispatched, job, "a", la.Epoch)); err != nil {
		t.Fatalf("owner dispatch: %v", err)
	}
	if _, err := a.Renew(job, "a", la.Epoch, time.Minute); err != nil {
		t.Fatalf("owner renew: %v", err)
	}
	if err := a.Release(job, "a", la.Epoch); err != nil {
		t.Fatalf("owner release: %v", err)
	}

	lb, err := b.Claim(job, "b", time.Minute)
	if err != nil {
		t.Fatalf("claim after release: %v", err)
	}
	if lb.Epoch <= la.Epoch {
		t.Fatalf("epoch after handover %d, want > %d (strictly increasing)", lb.Epoch, la.Epoch)
	}
	// the displaced epoch can never pass a fence again
	if err := a.Append(ownedRecord(TypeCheckpointed, job, "a", la.Epoch)); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch append: %v, want ErrFenced", err)
	}
	if _, err := a.Renew(job, "a", la.Epoch, time.Minute); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch renew: %v, want ErrFenced", err)
	}

	if m := b.Metrics(); m.FencedAppends == 0 {
		t.Fatalf("no fenced appends counted on b: %+v", m)
	}
	// the terminal record (from the live owner) clears the lease
	if err := b.Append(ownedRecord(TypeDone, job, "b", lb.Epoch)); err != nil {
		t.Fatalf("owner terminal: %v", err)
	}
	ls, err := a.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 0 {
		t.Fatalf("leases after terminal record: %+v, want none", ls)
	}
}

// TestSharedLeaseExpiryAdoption: an expired lease is fenced for its old
// owner and claimable by an adopter at a strictly higher epoch, through a
// handle that never saw the original claim first-hand.
func TestSharedLeaseExpiryAdoption(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "a")
	const job = "job-a-000001"
	if err := a.Append(testRecord(1, TypeSubmitted, job)); err != nil {
		t.Fatal(err)
	}
	la, err := a.Claim(job, "a", 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)

	if _, err := a.Renew(job, "a", la.Epoch, time.Minute); !errors.Is(err, ErrFenced) {
		t.Fatalf("renew after expiry: %v, want ErrFenced", err)
	}
	b := openShared(t, dir, "b") // opened post-expiry: sees only the log
	ls, err := b.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 1 || ls[0].Live(time.Now()) {
		t.Fatalf("orphan scan sees %+v, want one expired lease", ls)
	}
	lb, err := b.Claim(job, "b", time.Minute)
	if err != nil {
		t.Fatalf("adoption claim: %v", err)
	}
	if lb.Epoch <= la.Epoch {
		t.Fatalf("adoption epoch %d, want > %d", lb.Epoch, la.Epoch)
	}
	if err := a.Append(ownedRecord(TypeDone, job, "a", la.Epoch)); !errors.Is(err, ErrFenced) {
		t.Fatalf("old owner append after adoption: %v, want ErrFenced", err)
	}
	if err := b.Append(ownedRecord(TypeDone, job, "b", lb.Epoch)); err != nil {
		t.Fatalf("adopter append: %v", err)
	}
}

// TestSharedCompactionSwapDetected: after one handle compacts (rewriting
// the file and renaming it over the old inode), a stale handle must detect
// the swap on its next operation, re-read the rewritten log, and keep the
// lease table — claims survive compaction.
func TestSharedCompactionSwapDetected(t *testing.T) {
	dir := t.TempDir()
	// the fifth append (the Done below) trips a's self-compaction
	a := openSharedOpts(t, dir, "a", SharedOptions{NoSync: true, CompactEvery: 5})
	b := openShared(t, dir, "b")
	const live = "job-a-000001"

	if err := a.Append(testRecord(1, TypeSubmitted, live)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Claim(live, "a", time.Minute); err != nil {
		t.Fatal(err)
	}
	// a finished job that compaction squeezes to submitted+terminal
	if err := a.Append(testRecord(2, TypeSubmitted, "job-a-000002")); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(testRecord(3, TypeDispatched, "job-a-000002")); err != nil {
		t.Fatal(err)
	}

	// b's view predates the rewrite
	wm, err := b.ReplaySince(Watermark{}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(testRecord(4, TypeDone, "job-a-000002")); err != nil {
		t.Fatal(err)
	}
	if m := a.Metrics(); m.Compactions != 1 {
		t.Fatalf("self-compaction did not run: %+v", m)
	}

	// the stale handle must observe the swap, not append past a dead inode
	if _, err := b.Claim(live, "b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("claim after compaction: %v, want ErrLeaseHeld (lease survived rewrite)", err)
	}
	wm2, err := b.ReplaySince(wm, func(r Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if wm2.Gen <= wm.Gen {
		t.Fatalf("watermark generation %d after compaction, want > %d", wm2.Gen, wm.Gen)
	}
	// and appends from the stale handle land in the rewritten log
	if err := b.Append(testRecord(9, TypeSubmitted, "job-b-000001")); err != nil {
		t.Fatalf("append after swap: %v", err)
	}
	a2 := openShared(t, dir, "a2")
	n := 0
	seen := false
	if err := a2.Replay(func(r Record) error {
		n++
		seen = seen || r.Job == "job-b-000001"
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatalf("post-swap append missing from rewritten log (%d records)", n)
	}
}

// TestSharedTornClaimRecovered is the truncated-mid-lease-record recovery
// test: a log whose final Claimed record is cut mid-frame (the claimant
// died between write and ack) recovers to the longest valid prefix — the
// partial claim is dropped, the job's submission survives, and the job is
// claimable by the next replica at a fresh epoch.
func TestSharedTornClaimRecovered(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenShared(dir, "a", SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const job = "job-a-000001"
	if err := a.Append(testRecord(1, TypeSubmitted, job)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Claim(job, "a", time.Minute); err != nil {
		t.Fatal(err)
	}
	a.Close()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() <= before.Size() {
		t.Fatalf("claim appended nothing (%d -> %d bytes)", before.Size(), after.Size())
	}
	// cut into the middle of the claim frame
	if err := os.Truncate(path, before.Size()+(after.Size()-before.Size())/2); err != nil {
		t.Fatal(err)
	}

	b, err := OpenShared(dir, "b", SharedOptions{NoSync: true})
	if err != nil {
		t.Fatalf("open over torn claim: %v", err)
	}
	defer b.Close()
	if m := b.Metrics(); !m.TruncatedTail {
		t.Fatalf("torn tail not reported: %+v", m)
	}
	var types []Type
	if err := b.Replay(func(r Record) error { types = append(types, r.Type); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(types) != 1 || types[0] != TypeSubmitted {
		t.Fatalf("recovered record types %v, want just the submission", types)
	}
	ls, err := b.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 0 {
		t.Fatalf("partial claim leaked into the lease table: %+v", ls)
	}
	if _, err := b.Claim(job, "b", time.Minute); err != nil {
		t.Fatalf("job not claimable after torn-claim recovery: %v", err)
	}

}

// TestSharedCrashFailpointSurvivorTruncates: the armed crash failpoint
// tears an append mid-record and kills the handle; the surviving replica's
// next mutation truncates the torn tail and proceeds on a contiguous log.
func TestSharedCrashFailpointSurvivorTruncates(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "a")
	b := openShared(t, dir, "b")
	if err := a.Append(testRecord(1, TypeSubmitted, "job-a-000001")); err != nil {
		t.Fatal(err)
	}
	a.FailAfterAppends(0)
	if err := a.Append(testRecord(2, TypeDispatched, "job-a-000001")); !errors.Is(err, ErrClosed) {
		t.Fatalf("torn append: %v, want ErrClosed (handle dead)", err)
	}
	if err := a.Append(testRecord(3, TypeDone, "job-a-000001")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on dead handle: %v, want ErrClosed", err)
	}

	if err := b.Append(testRecord(2, TypeSubmitted, "job-b-000001")); err != nil {
		t.Fatalf("survivor append over torn tail: %v", err)
	}
	var last uint64
	if err := b.Replay(func(r Record) error {
		if r.Seq != last+1 {
			t.Fatalf("seq %d after %d: log not contiguous after truncation", r.Seq, last)
		}
		last = r.Seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != 2 {
		t.Fatalf("survivor log has %d records, want 2 (torn record dropped)", last)
	}
}

// TestSharedTransientAppendFailureRollsBack: a failed append must leave no
// seq gap. Before the fix, appendRecLocked bumped seq before the write, so
// a transient error left a permanent gap and the next successful append
// (here, a lease claim) was truncated by peers as a torn tail — the
// claimant believed it held the lease while peers could claim the same
// job.
func TestSharedTransientAppendFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "a")
	const job = "job-a-000001"
	if err := a.Append(testRecord(1, TypeSubmitted, job)); err != nil {
		t.Fatal(err)
	}
	a.FailNextAppendTransient()
	if err := a.Append(testRecord(2, TypeSubmitted, "job-a-000002")); err == nil {
		t.Fatal("injected append failure returned nil")
	}
	// the handle survives and its next append lands at a contiguous seq
	la, err := a.Claim(job, "a", time.Minute)
	if err != nil {
		t.Fatalf("claim after transient append failure: %v", err)
	}
	// a peer must replay both durable records intact; a seq gap would make
	// it cut the claim as a torn tail and hand the lease to someone else
	b := openShared(t, dir, "b")
	var types []Type
	var last uint64
	if err := b.Replay(func(r Record) error {
		if r.Seq != last+1 {
			t.Fatalf("seq %d after %d: gap left by failed append", r.Seq, last)
		}
		last = r.Seq
		types = append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != TypeSubmitted || types[1] != TypeClaimed {
		t.Fatalf("peer replay %v, want [submitted claimed]", types)
	}
	if m := b.Metrics(); m.TruncatedTail {
		t.Fatal("peer truncated a tail the rollback should have repaired")
	}
	if _, err := b.Claim(job, "b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("peer claim over live lease (epoch %d): %v, want ErrLeaseHeld", la.Epoch, err)
	}
}

// The TestWAL* cases pin the single-log contract on Shared: the same
// wal.log every durable daemon writes, single-node or not.

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenShared(dir, "a", SharedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := w.Append(testRecord(uint64(i), TypeSubmitted, fmt.Sprintf("job-a-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m := w.Metrics()
	if m.Appends != 5 || m.Fsyncs == 0 || m.SizeBytes == 0 {
		t.Fatalf("metrics %+v", m)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openShared(t, dir, "a")
	recs := replayAll(t, w2)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Type != TypeSubmitted {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if m := w2.Metrics(); m.TruncatedTail || m.ReplayedRecords != 5 {
		t.Fatalf("clean log reopened as %+v", m)
	}
	// appends continue the sequence
	if err := w2.Append(testRecord(6, TypeDispatched, "job-a-000001")); err != nil {
		t.Fatal(err)
	}
	if recs := replayAll(t, w2); recs[len(recs)-1].Seq != 6 {
		t.Fatalf("append after reopen got seq %d, want 6", recs[len(recs)-1].Seq)
	}
}

func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	w := openShared(t, dir, "a")
	for i := 1; i <= 3; i++ {
		if err := w.Append(testRecord(uint64(i), TypeSubmitted, "job-a-000001")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// tear the last record in half — a crash mid-append
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openShared(t, dir, "a")
	if recs := replayAll(t, w2); len(recs) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(recs))
	}
	if !w2.Metrics().TruncatedTail {
		t.Fatal("torn tail not reported")
	}
	// the torn bytes are gone: appending then reopening yields 3 clean records
	if err := w2.Append(testRecord(9, TypeDispatched, "job-a-000001")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3 := openShared(t, dir, "a")
	if got := replayAll(t, w3); len(got) != 3 || got[2].Type != TypeDispatched {
		t.Fatalf("after repair: %+v", got)
	}
	if w3.Metrics().TruncatedTail {
		t.Fatal("repaired log still reports a torn tail")
	}
}

func TestWALBitFlipKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	w := openShared(t, dir, "a")
	for i := 1; i <= 4; i++ {
		if err := w.Append(testRecord(uint64(i), TypeSubmitted, "job-a-000001")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// flip one bit two thirds in: records before the flipped one survive
	data[2*len(data)/3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openShared(t, dir, "a")
	recs := replayAll(t, w2)
	if len(recs) == 0 || len(recs) >= 4 {
		t.Fatalf("replayed %d records after bit flip, want a strict valid prefix", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("prefix out of order: %+v", recs)
		}
	}
	if !w2.Metrics().TruncatedTail {
		t.Fatal("bit flip not reported as truncation")
	}
}

func TestWALBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShared(dir, "a", SharedOptions{NoSync: true}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

func TestWALCheckpointSpill(t *testing.T) {
	w := openShared(t, t.TempDir(), "a")
	const job = "job-a-000001"
	if err := w.SaveCheckpoint(job, 10, testCheckpoint(100, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.SaveCheckpoint(job, 20, testCheckpoint(200, 20)); err != nil {
		t.Fatal(err)
	}
	// the newer spill replaced the older
	if _, err := w.LoadCheckpoint(job, 10); err == nil {
		t.Fatal("stale spill survived a newer one")
	}
	cp, err := w.LoadCheckpoint(job, 20)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Updates != 200 || cp.Int("dispatch_seq") != 20 || cp.W[0] != 0.5 {
		t.Fatalf("loaded %+v", cp)
	}
	if err := w.DropJob(job); err != nil {
		t.Fatal(err)
	}
	if _, err := w.LoadCheckpoint(job, 20); err == nil {
		t.Fatal("spill survived DropJob")
	}
	if _, err := w.LoadCheckpoint("../evil", 1); err == nil {
		t.Fatal("path-traversal job id accepted")
	}
}

// TestSharedSpillCleanupMatchesJobExactly: job IDs embed the replica name,
// so replica "a-000001"'s job "job-a-000001-000001" extends replica "a"'s
// "job-a-000001". Dropping, re-spilling, or compacting away the shorter
// job must never delete the longer one's live checkpoint.
func TestSharedSpillCleanupMatchesJobExactly(t *testing.T) {
	dir := t.TempDir()
	a := openSharedOpts(t, dir, "a", SharedOptions{NoSync: true, CompactEvery: 2})
	b := openShared(t, dir, "a-000001")
	const short, long = "job-a-000001", "job-a-000001-000001"
	if err := b.Append(testRecord(1, TypeSubmitted, long)); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveCheckpoint(long, 3, testCheckpoint(30, 3)); err != nil {
		t.Fatal(err)
	}
	live := func(what string) {
		t.Helper()
		if _, err := b.LoadCheckpoint(long, 3); err != nil {
			t.Fatalf("%s deleted %s's live checkpoint: %v", what, long, err)
		}
	}
	if err := a.SaveCheckpoint(short, 1, testCheckpoint(10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveCheckpoint(short, 2, testCheckpoint(20, 2)); err != nil {
		t.Fatal(err)
	}
	live("SaveCheckpoint's cleanup of older spills")
	if err := a.DropJob(short); err != nil {
		t.Fatal(err)
	}
	live("DropJob")
	if _, err := a.LoadCheckpoint(short, 2); err == nil {
		t.Fatal("DropJob kept the dropped job's own spill")
	}
	// a's second append trips its self-compaction; the long job is still in
	// the log, so its spill must survive the GC
	if err := a.Append(testRecord(2, TypeSubmitted, short)); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(testRecord(3, TypeDone, short)); err != nil {
		t.Fatal(err)
	}
	if m := a.Metrics(); m.Compactions != 1 {
		t.Fatalf("self-compaction did not run: %+v", m)
	}
	live("compaction GC")
}

func TestWALOpenSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	// a crash mid temp+fsync+rename leaves the temp behind; the spill GC
	// never matches it, so the opener sweeps what can only be dead: the
	// compaction temp (written under the flock), its own spill temps, and
	// ownerless temps of the pre-lease format — but not a live peer's
	// in-flight spill
	swept := []string{
		walName + ".tmp",
		"cp-job-000001-5.ckpt.tmp",
		"cp-job-a-000001-5.ckpt" + spillTempSep + "a",
	}
	peer := "cp-job-b-000001-5.ckpt" + spillTempSep + "b"
	for _, n := range append([]string{peer}, swept...) {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	openShared(t, dir, "a")
	for _, n := range swept {
		if _, err := os.Stat(filepath.Join(dir, n)); !os.IsNotExist(err) {
			t.Fatalf("orphaned temp %s survived open: %v", n, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, peer)); err != nil {
		t.Fatalf("open swept a peer's in-flight spill: %v", err)
	}
}

// TestWALCompact pins the self-compaction contract: past CompactEvery
// appends the log is rewritten from itself — live jobs keep their
// state-defining records, terminal history is bounded by RetainTerminal,
// seqs restart at 1, spills of dropped jobs are collected — and appends
// continue on the rewritten log across a reopen.
func TestWALCompact(t *testing.T) {
	dir := t.TempDir()
	w := openSharedOpts(t, dir, "a", SharedOptions{NoSync: true, CompactEvery: 8, RetainTerminal: 1})
	if err := w.SaveCheckpoint("job-000001", 5, testCheckpoint(50, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.SaveCheckpoint("job-000003", 7, testCheckpoint(70, 7)); err != nil {
		t.Fatal(err)
	}
	var before int64
	for i, r := range []*Record{
		testRecord(1, TypeSubmitted, "job-000001"),
		testRecord(2, TypeDispatched, "job-000001"),
		testRecord(3, TypeDone, "job-000001"), // finished first: evicted
		testRecord(4, TypeSubmitted, "job-000002"),
		testRecord(5, TypeDispatched, "job-000002"),
		testRecord(6, TypeDone, "job-000002"), // most recent terminal: kept
		testRecord(7, TypeSubmitted, "job-000003"),
		testRecord(8, TypeDispatched, "job-000003"), // live: kept
	} {
		if i == 7 {
			before = w.Metrics().SizeBytes
		}
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	m := w.Metrics()
	if m.SizeBytes >= before || m.Compactions != 1 || m.AppendsSinceCompact != 0 {
		t.Fatalf("after compact: %+v (size before %d)", m, before)
	}
	if _, err := w.LoadCheckpoint("job-000001", 5); err == nil {
		t.Fatal("dropped job's spill survived compaction")
	}
	if _, err := w.LoadCheckpoint("job-000003", 7); err != nil {
		t.Fatalf("live job's spill lost by compaction: %v", err)
	}
	if err := w.Append(testRecord(9, TypeCheckpointed, "job-000003")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs := replayAll(t, openShared(t, dir, "a"))
	var got []string
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("post-compact seq %d at %d", r.Seq, i)
		}
		got = append(got, r.Job+":"+r.Type.String())
	}
	want := "job-000002:submitted job-000002:done job-000003:submitted job-000003:dispatched job-000003:checkpointed"
	if strings.Join(got, " ") != want {
		t.Fatalf("post-compact replay:\n got %v\nwant %s", got, want)
	}
}

func TestWALFailpointTornAppend(t *testing.T) {
	dir := t.TempDir()
	w := openShared(t, dir, "a")
	for i := 1; i <= 2; i++ {
		if err := w.Append(testRecord(uint64(i), TypeSubmitted, "job-a-000001")); err != nil {
			t.Fatal(err)
		}
	}
	w.FailAfterAppends(1)
	if err := w.Append(testRecord(3, TypeDispatched, "job-a-000001")); err != nil {
		t.Fatal(err) // one more append succeeds
	}
	if err := w.Append(testRecord(4, TypeCheckpointed, "job-a-000001")); err == nil {
		t.Fatal("armed failpoint did not fire")
	}
	// dead store: every mutation fails
	if err := w.Append(testRecord(5, TypePreempted, "job-a-000001")); err == nil {
		t.Fatal("dead store accepted an append")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("dead store accepted a sync")
	}
	w.Close()
	// recovery keeps the 3 acknowledged records, cuts the torn one
	w2 := openShared(t, dir, "a")
	if recs := replayAll(t, w2); len(recs) != 3 {
		t.Fatalf("replayed %d records, want the 3 acknowledged", len(recs))
	}
	if !w2.Metrics().TruncatedTail {
		t.Fatal("torn failpoint append not reported")
	}
}

// TestWALKillFailpoint: Kill simulates death at a record boundary — every
// later mutation fails with ErrClosed, the log is not torn, and a reopen
// recovers everything acknowledged before the kill.
func TestWALKillFailpoint(t *testing.T) {
	dir := t.TempDir()
	w := openShared(t, dir, "a")
	if w.Dir() != dir || w.Replica() != "a" {
		t.Fatalf("Dir() = %q, Replica() = %q", w.Dir(), w.Replica())
	}
	for i := 0; i < 2; i++ {
		if err := w.Append(testRecord(0, TypeSubmitted, "job-a-000001")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync before kill: %v", err)
	}
	w.Kill()

	if err := w.Append(testRecord(0, TypeDispatched, "job-a-000001")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after kill: %v, want ErrClosed", err)
	}
	if err := w.SaveCheckpoint("job-a-000001", 1, testCheckpoint(10, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("spill after kill: %v, want ErrClosed", err)
	}
	if _, err := w.Claim("job-a-000001", "a", time.Minute); !errors.Is(err, ErrClosed) {
		t.Fatalf("claim after kill: %v, want ErrClosed", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after kill: %v, want ErrClosed", err)
	}
	if err := w.DropJob("job-a-000001"); !errors.Is(err, ErrClosed) {
		t.Fatalf("drop after kill: %v, want ErrClosed", err)
	}
	if m := w.Metrics(); m.Appends != 2 {
		t.Fatalf("metrics after kill: %+v, want 2 appends", m)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close after kill: %v", err)
	}

	w2 := openShared(t, dir, "a")
	if recs := replayAll(t, w2); len(recs) != 2 {
		t.Fatalf("reopen after kill recovered %d records, want 2", len(recs))
	}
	if w2.Metrics().TruncatedTail {
		t.Fatal("kill at a record boundary must not tear the log")
	}
}
