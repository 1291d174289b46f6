package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLeaseRecordCodec exercises the v2 record frame that carries the lease
// fields: any (job, owner, epoch, expiry, type) combination must round-trip
// encode→decode bit-exactly, and a mutated frame must never decode into a
// record that differs from the original — the CRC either rejects it or the
// mutation was a no-op.
func FuzzLeaseRecordCodec(f *testing.F) {
	f.Add("job-a-000001", "replica-a", int64(1), int64(1700000000_000000000), byte(TypeClaimed), uint16(0), byte(0))
	f.Add("job-b-000042", "b", int64(9_000_000), int64(-5), byte(TypeRenewed), uint16(3), byte(0x80))
	f.Add("", "", int64(0), int64(0), byte(TypeReleased), uint16(7), byte(1))
	f.Add("j", "owner-with-a-rather-long-name", int64(-3), int64(1<<60), byte(TypeDispatched), uint16(100), byte(0xff))

	f.Fuzz(func(t *testing.T, job, owner string, epoch, expiresAt int64, typ byte, flipAt uint16, flipWith byte) {
		rec := Record{
			Seq: 7, Type: Type(typ), Job: job, Time: 1700000000_000000000,
			Owner: owner, Epoch: epoch, ExpiresAt: expiresAt,
		}
		if _, ok := typeNames[rec.Type]; !ok {
			rec.Type = TypeClaimed
		}
		frame := rec.encode(nil)
		got, n, err := decodeRecord(frame)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
		}
		if got.Job != rec.Job || got.Owner != rec.Owner || got.Epoch != rec.Epoch ||
			got.ExpiresAt != rec.ExpiresAt || got.Type != rec.Type || got.Seq != rec.Seq {
			t.Fatalf("lease fields did not round-trip: got %+v, want %+v", got, rec)
		}

		mutated := append([]byte(nil), frame...)
		mutated[int(flipAt)%len(mutated)] ^= flipWith
		got2, _, err := decodeRecord(mutated) // must not panic
		if err == nil && (got2.Owner != rec.Owner || got2.Epoch != rec.Epoch ||
			got2.ExpiresAt != rec.ExpiresAt || got2.Job != rec.Job) {
			t.Fatalf("corrupt frame decoded to different lease fields: %+v", got2)
		}
	})
}

// FuzzReplayWAL feeds arbitrary bytes to the log recovery path:
// OpenShared must never panic, and whatever it recovers must be a valid
// record prefix — strictly increasing seqs, decodable types. Seeds cover a
// clean log, a torn tail, a bit flip, and garbage.
func FuzzReplayWAL(f *testing.F) {
	clean := append([]byte(nil), walMagic...)
	for i := 1; i <= 3; i++ {
		r := testRecord(uint64(i), TypeSubmitted, "job-000001")
		r.Seq = uint64(i)
		clean = r.encode(clean)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-9]) // torn tail
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)                                // bit flip mid-log
	f.Add([]byte{})                               // empty file
	f.Add([]byte("AWL1"))                         // magic only
	f.Add([]byte("AWL1\x00\x00\x00\x05abcdefgh")) // garbage frame
	f.Add([]byte("garbage without magic"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenShared(dir, "a", SharedOptions{NoSync: true})
		if err != nil {
			return // rejected (e.g. bad magic) is fine; panicking is not
		}
		defer w.Close()
		var last uint64
		err = w.Replay(func(r Record) error {
			if r.Seq != last+1 {
				t.Fatalf("replayed seq %d after %d: prefix not contiguous", r.Seq, last)
			}
			last = r.Seq
			if _, ok := typeNames[r.Type]; !ok {
				t.Fatalf("replayed unknown type %d", r.Type)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("replay of recovered prefix failed: %v", err)
		}
		// the recovered prefix must survive an append + reopen round trip
		if err := w.Append(testRecord(last+1, TypeDispatched, "job-000001")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		w.Close()
		w2, err := OpenShared(dir, "a", SharedOptions{NoSync: true})
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		defer w2.Close()
		n := 0
		_ = w2.Replay(func(Record) error { n++; return nil })
		if n == 0 {
			t.Fatal("appended record lost on reopen")
		}
		if w2.Metrics().TruncatedTail {
			t.Fatal("repaired log still reports a torn tail")
		}
	})
}
