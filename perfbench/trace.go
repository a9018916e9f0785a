package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. ID ties
// a span to the batch or read it served; Parent is the enclosing
// span's index (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so measured code paths
// differ between the two modes only by a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// finish closes span i.
func (t *tracer) finish(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// durations returns the durations (ns) of every closed span named
// one of names that started within [from, to).
func (t *tracer) durations(from, to time.Time, names ...string) []float64 {
	if t == nil {
		return nil
	}
	lo, hi := from.Sub(t.epoch).Nanoseconds(), to.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.End == 0 || s.Start < lo || s.Start >= hi {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				out = append(out, float64(s.End-s.Start))
				break
			}
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
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
