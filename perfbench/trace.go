package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one job
// (or one solve, or one set-up) share a trace ID; Parent names the span
// that caused this one (0 for a root).
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	roots map[string]int64
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), roots: map[string]int64{}}
}

// root returns the ID reserved for trace's root span, allocating it on
// first use so child spans can name their parent before the root closes.
func (t *tracer) root(trace string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.roots[trace]
	if !ok {
		t.next++
		id = t.next
		t.roots[trace] = id
	}
	return id
}

// add records a child span of trace's root.
func (t *tracer) add(trace, name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := t.root(trace)
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{Trace: trace, ID: t.next, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Microseconds(), End: end.Sub(t.t0).Microseconds()})
	t.mu.Unlock()
}

// closeRoot records trace's root span.
func (t *tracer) closeRoot(trace, name string, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.root(trace)
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, ID: id, Name: name,
		Start: start.Sub(t.t0).Microseconds(), End: end.Sub(t.t0).Microseconds()})
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start)*time.Microsecond)
		}
	}
	return out
}

// write dumps the spans as JSON lines, preceded by one header line.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs fn and records it as a span of trace when tracing.
func (t *tracer) timed(trace, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(trace, name, start, end)
	return end.Sub(start), err
}

// msOf converts a list of durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
