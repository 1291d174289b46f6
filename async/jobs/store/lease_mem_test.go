package store

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestMemLeaseLifecycle drives the LeaseStore surface of the in-memory
// store through the replica scheduler's protocol: claim, foreign-claim
// rejection, renew, epoch fencing, release, and re-claim with a bumped
// epoch — then every operation's ErrClosed path.
func TestMemLeaseLifecycle(t *testing.T) {
	m := NewMem()
	const job = "job-000001"
	l, err := m.Claim(job, "r1", time.Minute)
	if err != nil || l.Owner != "r1" || l.Epoch != 1 {
		t.Fatalf("claim: %+v, %v", l, err)
	}
	if _, err := m.Claim(job, "r2", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("foreign claim: %v, want ErrLeaseHeld", err)
	}
	if _, err := m.Renew(job, "r1", l.Epoch, time.Minute); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if _, err := m.Renew(job, "r2", l.Epoch, time.Minute); !errors.Is(err, ErrFenced) {
		t.Fatalf("foreign renew: %v, want ErrFenced", err)
	}
	ls, err := m.Leases()
	if err != nil || len(ls) != 1 || ls[0].Job != job || ls[0].Owner != "r1" {
		t.Fatalf("leases: %+v, %v", ls, err)
	}
	if err := m.Release(job, "r1", l.Epoch+5); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale release: %v, want ErrFenced", err)
	}
	if err := m.Release(job, "r1", l.Epoch); err != nil {
		t.Fatal(err)
	}
	// releasing an already-cleared lease is a documented no-op
	if err := m.Release(job, "r1", l.Epoch); err != nil {
		t.Fatal(err)
	}
	// the next claim's epoch moves past every epoch ever observed, so a
	// resurrected previous owner can never pass the fence again
	l2, err := m.Claim(job, "r2", time.Minute)
	if err != nil || l2.Epoch != l.Epoch+1 {
		t.Fatalf("reclaim: %+v, %v (want epoch %d)", l2, err, l.Epoch+1)
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Claim(job, "r1", time.Minute); !errors.Is(err, ErrClosed) {
		t.Fatalf("claim after close: %v, want ErrClosed", err)
	}
	if _, err := m.Renew(job, "r2", l2.Epoch, time.Minute); !errors.Is(err, ErrClosed) {
		t.Fatalf("renew after close: %v, want ErrClosed", err)
	}
	if err := m.Release(job, "r2", l2.Epoch); !errors.Is(err, ErrClosed) {
		t.Fatalf("release after close: %v, want ErrClosed", err)
	}
	if _, err := m.Leases(); !errors.Is(err, ErrClosed) {
		t.Fatalf("leases after close: %v, want ErrClosed", err)
	}
	if _, err := m.ReplaySince(Watermark{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("replay-since after close: %v, want ErrClosed", err)
	}
}

// TestMemReplaySince pins the watermark protocol on the in-memory store: a
// tail replay sees only records past the watermark, a callback error
// propagates, and a watermark from another generation restarts from the
// beginning.
func TestMemReplaySince(t *testing.T) {
	m := NewMem()
	for i := 1; i <= 3; i++ {
		if err := m.Append(testRecord(uint64(i), TypeSubmitted, fmt.Sprintf("job-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	w, err := m.ReplaySince(Watermark{}, func(Record) error { n++; return nil })
	if err != nil || n != 3 {
		t.Fatalf("full replay saw %d records, %v", n, err)
	}

	if err := m.Append(testRecord(4, TypeDispatched, "job-000001")); err != nil {
		t.Fatal(err)
	}
	n = 0
	var last Record
	w2, err := m.ReplaySince(w, func(r Record) error { n++; last = r; return nil })
	if err != nil || n != 1 || last.Type != TypeDispatched {
		t.Fatalf("tail replay: n=%d last=%+v, %v", n, last, err)
	}

	boom := errors.New("boom")
	if _, err := m.ReplaySince(w, func(Record) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("replay error: %v, want boom", err)
	}

	// Mem never compacts, so a watermark from another generation is
	// stale and restarts from the beginning
	n = 0
	stale := Watermark{Gen: w2.Gen + 1, Seq: w2.Seq}
	if _, err := m.ReplaySince(stale, func(Record) error { n++; return nil }); err != nil || n != 4 {
		t.Fatalf("replay from a stale-generation watermark saw %d records, %v; want all 4", n, err)
	}
}
