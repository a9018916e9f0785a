package main

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// pending is one submitted batch awaiting detection: end is the
// device's cumulative event count through the batch's last event.
type pending struct {
	end    uint64
	sched  time.Time
	record bool
}

// tracker follows every submitted batch until an observer reports a
// state that includes its last event. Observers call cover with the
// per-device processed counts their state is known to include.
type tracker struct {
	mu      sync.Mutex
	queues  [][]pending
	waiting int       // recorded batches not yet detected
	lat     []float64 // detection latency (ms) of recorded batches
}

func newTracker(devices int) *tracker { return &tracker{queues: make([][]pending, devices)} }

func (t *tracker) add(dev int, p pending) {
	t.mu.Lock()
	t.queues[dev] = append(t.queues[dev], p)
	if p.record {
		t.waiting++
	}
	t.mu.Unlock()
}

// retract drops the device's newest batch after its submit failed.
func (t *tracker) retract(dev int) {
	t.mu.Lock()
	q := t.queues[dev]
	if n := len(q); n > 0 {
		if q[n-1].record {
			t.waiting--
		}
		t.queues[dev] = q[:n-1]
	}
	t.mu.Unlock()
}

// cover marks every batch whose last event is within counts as
// detected at time at.
func (t *tracker) cover(counts []uint64, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for d, c := range counts {
		q := t.queues[d]
		k := 0
		for k < len(q) && q[k].end <= c {
			if q[k].record {
				t.lat = append(t.lat, ms(at.Sub(q[k].sched)))
				t.waiting--
			}
			k++
		}
		t.queues[d] = q[k:]
	}
}

// outstanding reports the recorded batches not yet detected.
func (t *tracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waiting
}

// takeLatencies returns and clears the recorded detection latencies.
func (t *tracker) takeLatencies() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.lat
	t.lat = nil
	return out
}

// frame is one SSE delivery: its cursor (the merged epoch sum) and
// when the benchmark received it.
type frame struct {
	cursor uint64
	at     time.Time
	bytes  int
}

// sample is one in-process Stats-then-MergedEpoch reading: every event
// counted in counts is included in any state whose epoch sum is at
// least epoch. advanced is when the merged epoch last advanced.
type sample struct {
	epoch    uint64
	counts   []uint64
	advanced time.Time
}

// sseMatcher attributes detections on the watch stream: a frame with
// cursor ≥ s covers every batch a sample had counted by epoch s. The
// sample reads Stats before MergedEpoch, so inclusion is never
// over-claimed; when the covering frame arrived before the sample was
// taken, the batch is detected at that earlier frame.
type sseMatcher struct {
	trk     *tracker
	mu      sync.Mutex
	frames  []frame
	samples []sample
	waiting []sample // samples no frame has covered yet
}

func (m *sseMatcher) onSample(s sample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples = append(m.samples, sample{epoch: s.epoch, advanced: s.advanced}) // counts are not needed again
	i := sort.Search(len(m.frames), func(i int) bool { return m.frames[i].cursor >= s.epoch })
	if i < len(m.frames) {
		m.trk.cover(s.counts, m.frames[i].at)
		return
	}
	m.waiting = append(m.waiting, s)
}

func (m *sseMatcher) onFrame(f frame) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frames = append(m.frames, f)
	k := 0
	for k < len(m.waiting) && m.waiting[k].epoch <= f.cursor {
		m.trk.cover(m.waiting[k].counts, f.at)
		k++
	}
	m.waiting = m.waiting[k:]
}

// deliveries returns, for each frame received within [from, to), the
// time from the merged-epoch advance it reflects to its receipt (ms).
// The advance is taken from the newest sample at or below the frame's
// cursor, so a missed intermediate sample can only lengthen it.
func (m *sseMatcher) deliveries(from, to time.Time) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []float64
	for _, f := range m.frames {
		if f.at.Before(from) || !f.at.Before(to) {
			continue
		}
		i := sort.Search(len(m.samples), func(i int) bool { return m.samples[i].epoch > f.cursor })
		if i == 0 || m.samples[i-1].advanced.IsZero() {
			continue
		}
		if d := f.at.Sub(m.samples[i-1].advanced); d >= 0 {
			out = append(out, ms(d))
		}
	}
	return out
}

// framesIn returns the frames received within [from, to).
func (m *sseMatcher) framesIn(from, to time.Time) []frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []frame
	for _, f := range m.frames {
		if !f.at.Before(from) && f.at.Before(to) {
			out = append(out, f)
		}
	}
	return out
}

// parseCursor reads the epoch sum from a fleet watch cursor "sum.n".
func parseCursor(s string) (uint64, bool) {
	sum, _, ok := strings.Cut(s, ".")
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(sum, 10, 64)
	return v, err == nil
}
