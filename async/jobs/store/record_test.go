package store

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/la"
	"repro/internal/opt"
)

func testRecord(seq uint64, typ Type, job string) *Record {
	r := &Record{
		Type: typ, Job: job, Time: 1700000000_000000000 + int64(seq),
		JobSeq: int64(seq), Updates: int64(seq) * 10, DispatchSeq: int64(seq) * 3,
	}
	switch typ {
	case TypeSubmitted:
		r.Spec = []byte(`{"algorithm":"asgd","dataset":{"name":"rcv1-like"}}`)
	case TypeDone:
		r.FinalError, r.HasFinal = 0.25, true
	case TypeFailed, TypeCanceled:
		r.Detail = "engine exploded"
	}
	return r
}

func testCheckpoint(updates int64, dispatchSeq int64) *opt.Checkpoint {
	cp := &opt.Checkpoint{Algorithm: "asgd", W: la.NewVec(4), Updates: updates}
	cp.W[0] = 0.5
	cp.SetInt("dispatch_seq", dispatchSeq)
	return cp
}

func replayAll(t *testing.T, s LeaseStore) []Record {
	t.Helper()
	var out []Record
	if err := s.Replay(func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	types := []Type{TypeSubmitted, TypeDispatched, TypeCheckpointed, TypePreempted, TypeDone, TypeFailed, TypeCanceled}
	var buf []byte
	var want []*Record
	for i, typ := range types {
		r := testRecord(uint64(i+1), typ, "job-000007")
		r.Seq = uint64(i + 1)
		want = append(want, r)
		buf = r.encode(buf)
	}
	off := 0
	for i := range want {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += n
		w := *want[i]
		if got.Seq != w.Seq || got.Type != w.Type || got.Job != w.Job || got.Time != w.Time ||
			got.JobSeq != w.JobSeq || got.Updates != w.Updates || got.DispatchSeq != w.DispatchSeq ||
			got.Detail != w.Detail || got.HasFinal != w.HasFinal || got.FinalError != w.FinalError ||
			!bytes.Equal(got.Spec, w.Spec) {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestRecordDecodeRejectsCorruption(t *testing.T) {
	r := testRecord(1, TypeSubmitted, "job-000001")
	frame := r.encode(nil)
	if _, _, err := decodeRecord(frame[:3]); err == nil {
		t.Fatal("short header accepted")
	}
	if _, _, err := decodeRecord(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	for i := 4; i < len(frame); i += 7 {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, err := decodeRecord(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := decodeRecord(huge); err == nil {
		t.Fatal("oversized length accepted")
	}
}

func TestTypeStringAndTerminal(t *testing.T) {
	for typ, name := range typeNames {
		if typ.String() != name {
			t.Fatalf("Type(%d).String() = %q, want %q", typ, typ.String(), name)
		}
	}
	if s := Type(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown type string %q", s)
	}
	terminal := map[Type]bool{TypeDone: true, TypeFailed: true, TypeCanceled: true}
	for typ := TypeSubmitted; typ <= TypeCanceled; typ++ {
		if typ.Terminal() != terminal[typ] {
			t.Fatalf("%s.Terminal() = %v", typ, typ.Terminal())
		}
	}
}
