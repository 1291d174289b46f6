package store

import (
	"errors"
	"testing"
)

// TestMemStoreParity drives Mem and Shared through the same motions to pin
// the seam's contract on both implementations.
func TestMemStoreParity(t *testing.T) {
	m := NewMem()
	for name, s := range map[string]LeaseStore{"mem": m, "shared": openShared(t, t.TempDir(), "a")} {
		for i := 1; i <= 4; i++ {
			if err := s.Append(testRecord(uint64(i), TypeSubmitted, "job-000001")); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if recs := replayAll(t, s); len(recs) != 4 || recs[3].Seq != 4 {
			t.Fatalf("%s replay: %+v", name, recs)
		}
		if err := s.SaveCheckpoint("job-000001", 9, testCheckpoint(90, 9)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cp, err := s.LoadCheckpoint("job-000001", 9)
		if err != nil || cp.Updates != 90 {
			t.Fatalf("%s load: %v %+v", name, err, cp)
		}
		if err := s.DropJob("job-000001"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := s.LoadCheckpoint("job-000001", 9); err == nil {
			t.Fatalf("%s: spill survived DropJob", name)
		}
		s.Close()
		if err := s.Append(testRecord(9, TypeSubmitted, "job-000003")); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: closed store accepted an append: %v", name, err)
		}
	}
	m.Reopen()
	if err := m.Append(testRecord(9, TypeSubmitted, "job-000003")); err != nil {
		t.Fatal(err)
	}
}

// TestMemStoreLifecycle covers the in-memory seam implementation beyond
// what the parity test touches: Sync, Metrics, checkpoint replacement, and
// post-Close errors.
func TestMemStoreLifecycle(t *testing.T) {
	m := NewMem()
	if err := m.Append(testRecord(0, TypeSubmitted, "job-000001")); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveCheckpoint("job-000001", 1, testCheckpoint(10, 1)); err != nil {
		t.Fatal(err)
	}
	// a newer spill replaces the older one
	if err := m.SaveCheckpoint("job-000001", 2, testCheckpoint(20, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadCheckpoint("job-000001", 1); err == nil {
		t.Fatal("older spill survived replacement")
	}
	cp, err := m.LoadCheckpoint("job-000001", 2)
	if err != nil || cp.Updates != 20 {
		t.Fatalf("newest spill: %+v, %v", cp, err)
	}
	if err := m.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	mm := m.Metrics()
	if mm.Appends != 1 || mm.CheckpointSpills != 2 {
		t.Fatalf("metrics %+v, want appends=1 spills=2", mm)
	}
	if err := m.DropJob("job-000001"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadCheckpoint("job-000001", 2); err == nil {
		t.Fatal("spill survived DropJob")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(testRecord(0, TypeDispatched, "job-000001")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := m.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v, want ErrClosed", err)
	}
}
