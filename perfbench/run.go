package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"daccor/internal/analysis"
	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/monitor"
	"daccor/internal/obs"
	"daccor/internal/realtime"
	"daccor/pkg/client"
)

// setupRepeats is how many times a run builds the system; setup_s is
// the median, and the last build carries the load.
const setupRepeats = 7

// warmup is the closed-loop ingest before any phase is measured.
const warmup = 500 * time.Millisecond

// maxExtend bounds how far a paced phase may run past its planned
// length to collect enough samples for every percentile it reports.
const maxExtend = 60 * time.Second

// drainTimeout bounds the wait for the last batches to be processed
// and detected after a phase.
const drainTimeout = 30 * time.Second

// runner drives one workload through its phases. The generator (the
// goroutine calling ingest and read) is single; observers run on their
// own goroutines.
type runner struct {
	w       workload
	streams []*stream
	ids     []string
	sys     *system
	trk     *tracker
	sse     *sseMatcher
	tr      atomic.Pointer[tracer] // non-nil while a traced phase runs
	traced  *tracer                // every span of the traced phases

	// Generator-owned.
	submitted []uint64
	rr        int
	batchID   int64
	readID    int64

	mu       sync.Mutex
	attempts map[string]int
	failures map[string]int
	syncErrs []string
	wakeLat  []float64 // observer wake after a merged-epoch advance (ms), traced phases
	// fullRequired counts sections the aggregator answered
	// full_required, over every round.
	fullRequired int

	ctx    context.Context
	cancel context.CancelFunc
	obsWG  sync.WaitGroup
}

func (r *runner) tracer() *tracer { return r.tr.Load() }

// count records one attempted operation of the given kind and whether
// it failed.
func (r *runner) count(kind string, err error) {
	r.mu.Lock()
	r.attempts[kind]++
	if err != nil {
		r.failures[kind]++
	}
	r.mu.Unlock()
}

func (r *runner) fail(kind string, n int) {
	r.mu.Lock()
	r.failures[kind] += n
	r.mu.Unlock()
}

// ingest submits the next batch (round-robin over devices) on the
// workload's ingest path. sched is when it was due.
func (r *runner) ingest(sched time.Time, record bool) error {
	d := r.rr % len(r.streams)
	r.rr++
	st := r.streams[d]
	b := st.batch(batchEvents)
	id := r.batchID
	r.batchID++
	r.trk.add(d, pending{end: r.submitted[d] + uint64(len(b)), sched: sched, record: record})
	tr := r.tracer()
	var err error
	switch r.w.ingest {
	case ingestInProcess:
		sp := tr.begin("SubmitBatch", -1, id)
		err = r.sys.devs[d].SubmitBatch(b)
		tr.finish(sp)
	case ingestHTTP:
		sp := tr.begin("POST /v1/devices/{id}/events", -1, id)
		var n int
		n, err = r.sys.api.SubmitEvents(r.ctx, st.id, b)
		tr.finish(sp)
		if err == nil && n != len(b) {
			err = fmt.Errorf("accepted %d of %d events", n, len(b))
		}
	}
	r.count("ingest batches", err)
	if err != nil {
		// The stream rewinds so the accepted events stay a prefix of it,
		// which the recall and P=1 oracles replay.
		r.trk.retract(d)
		st.next -= int64(len(b))
		return err
	}
	r.submitted[d] += uint64(len(b))
	return nil
}

// read issues the next read on the workload's read surface,
// alternating top-K rules and snapshot reads.
func (r *runner) read() error {
	id := r.readID
	r.readID++
	rules := id%2 == 0
	tr := r.tracer()
	var err error
	switch {
	case r.w.ingest == ingestHTTP || r.w.observer == observeSync:
		c, name := r.sys.api, "GET /v1/"
		if r.w.observer == observeSync {
			c, name = r.sys.aggAPI, "GET aggregator /v1/"
		}
		q := client.Query{Support: support, Top: topK}
		if rules {
			sp := tr.begin(name+"rules", -1, id)
			_, err = c.FleetRules(r.ctx, q)
			tr.finish(sp)
		} else {
			sp := tr.begin(name+"snapshot", -1, id)
			_, err = c.FleetSnapshot(r.ctx, q)
			tr.finish(sp)
		}
	case rules:
		sp := tr.begin("MergedTopRules", -1, id)
		_, err = r.sys.eng.MergedTopRules(support, confidence, topK)
		tr.finish(sp)
	default:
		sp := tr.begin("MergedSnapshot", -1, id)
		_, err = r.sys.eng.MergedSnapshot(support)
		tr.finish(sp)
	}
	r.count("reads", err)
	return err
}

// counts returns each device's processed-event count from a Stats
// reading (devices are sorted by ID, as the streams are).
func counts(st engine.Stats) []uint64 {
	out := make([]uint64, len(st.Devices))
	for i, d := range st.Devices {
		out[i] = d.Monitor.Events
	}
	return out
}

// startObservers launches the workload's observer goroutines.
func (r *runner) startObservers() {
	eng := r.sys.eng
	switch r.w.observer {
	case observeEpoch, observeSSE:
		r.obsWG.Add(1)
		go func() {
			defer r.obsWG.Done()
			sum, n := eng.MergedEpoch()
			for {
				tr := r.tracer()
				sp := tr.begin("WaitMergedEpoch", -1, 0)
				s2, n2, err := eng.WaitMergedEpoch(r.ctx, sum, n)
				tr.finish(sp)
				if err != nil {
					if r.ctx.Err() == nil {
						r.fail("observer errors", 1)
					}
					return
				}
				if tr != nil {
					if adv := eng.MergedEpochAdvanceTime(); !adv.IsZero() {
						r.mu.Lock()
						r.wakeLat = append(r.wakeLat, ms(time.Since(adv)))
						r.mu.Unlock()
					}
				}
				sum, n = s2, n2
				sp = tr.begin("Stats", -1, 0)
				st, err := eng.Stats()
				tr.finish(sp)
				if err != nil {
					r.fail("observer errors", 1)
					return
				}
				c := counts(st)
				if r.w.observer == observeEpoch {
					r.trk.cover(c, time.Now())
					continue
				}
				epoch, _ := eng.MergedEpoch()
				r.sse.onSample(sample{epoch: epoch, counts: c, advanced: eng.MergedEpochAdvanceTime()})
			}
		}()
		if r.w.observer == observeSSE {
			r.obsWG.Add(1)
			go func() {
				defer r.obsWG.Done()
				r.count("watch streams", nil)
				for {
					select {
					case <-r.ctx.Done():
						return
					case st, ok := <-r.sys.watcher.Events():
						if !ok {
							if r.ctx.Err() == nil {
								r.fail("watch streams", 1)
							}
							return
						}
						at := time.Now()
						tr := r.tracer()
						tr.finish(tr.begin("SSE frame", -1, 0))
						cur, ok := parseCursor(st.Epoch)
						if !ok {
							r.fail("watch streams", 1)
							continue
						}
						f := frame{cursor: cur, at: at}
						if tr != nil {
							b, _ := json.Marshal(st) // the frame's data line, re-encoded
							f.bytes = len(b)
						}
						r.sse.onFrame(f)
					}
				}
			}()
		}
	case observeSync:
		r.obsWG.Add(1)
		go func() {
			defer r.obsWG.Done()
			t := time.NewTicker(r.w.syncEvery)
			defer t.Stop()
			for {
				select {
				case <-r.ctx.Done():
					return
				case <-t.C:
				}
				r.syncRound()
			}
		}()
	}
}

// syncRound is one fleet observation: count what the engine has
// processed, then sync; when every section is applied, those events
// are visible at the aggregator.
func (r *runner) syncRound() {
	tr := r.tracer()
	sp := tr.begin("Stats", -1, 0)
	st, err := r.sys.eng.Stats()
	tr.finish(sp)
	if err != nil {
		r.fail("observer errors", 1)
		return
	}
	// Not r.ctx: stopping the observers must not abandon a round the
	// aggregator may already have applied, which would leave the
	// client's shadows behind the aggregator's mirrors. The client's
	// own per-attempt timeout bounds the round.
	sp = tr.begin("SyncNow", -1, 0)
	rep, err := r.sys.sync.SyncNow(context.Background())
	tr.finish(sp)
	r.count("sync rounds", err)
	r.mu.Lock()
	if err != nil {
		r.syncErrs = append(r.syncErrs, err.Error())
	}
	full := rep.FullRequired
	r.fullRequired += full
	r.mu.Unlock()
	if err == nil && full == 0 && rep.Applied == rep.Sections {
		r.trk.cover(counts(st), time.Now())
	}
}

func (r *runner) stopObservers() {
	r.cancel()
	r.obsWG.Wait()
}

// waitProcessed polls Stats until every device's monitor has taken in
// every accepted event, and returns when it saw that.
func (r *runner) waitProcessed() (time.Time, error) {
	deadline := time.Now().Add(drainTimeout)
	for {
		st, err := r.sys.eng.Stats()
		if err != nil {
			return time.Time{}, err
		}
		done := true
		for i, d := range st.Devices {
			if d.Monitor.Events < r.submitted[i] {
				done = false
				break
			}
		}
		if done {
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, errors.New("events not processed within the drain timeout")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// saturated runs the closed loop for d and returns the events
// submitted and the time from the first submit until every one of them
// was processed.
func (r *runner) saturated(d time.Duration) (int, time.Duration, error) {
	start := time.Now()
	events := 0
	for time.Since(start) < d {
		if r.ingest(time.Now(), false) == nil {
			events += batchEvents
		}
	}
	done, err := r.waitProcessed()
	if err != nil {
		return 0, 0, err
	}
	return events, done.Sub(start), nil
}

// pacedResult is what one paced phase measured.
type pacedResult struct {
	from, to time.Time
	events   int
	batches  int
	reads    []float64 // ms from scheduled send to completion
	late     []float64 // ms the generator ran behind schedule, batches and reads
	detect   []float64 // ms from scheduled send to detection
	cpu      time.Duration
	rt0, rt1 rtStats
	epochs   uint64  // merged-epoch advances during the phase
	steal    float64 // share of the host's CPU ticks stolen during the phase
}

// paced runs the open loop for at least d: batches at the workload's
// fixed rate from the calling goroutine, reads on their own fixed
// schedule from a second one, each timed from when it was due. It
// keeps going past d (up to maxExtend) until enough() reports that
// every percentile of the phase has its samples, then waits until
// every batch it sent was detected.
func (r *runner) paced(d time.Duration, enough func(pacedResult) bool) (pacedResult, error) {
	batchEvery := time.Duration(float64(time.Second) * batchEvents / r.w.pacedEPS)
	readEvery := time.Duration(float64(time.Second) / r.w.readsPerSec)
	var res pacedResult
	_ = r.trk.takeLatencies()
	cpu0 := cpuTime()
	ticks0, steal0 := hostTicks()
	res.rt0 = readRuntime()
	e0, _ := r.sys.eng.MergedEpoch()
	t0 := time.Now().Add(time.Millisecond)
	res.from = t0

	var mu sync.Mutex // guards res.reads and readLate
	var readLate []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for due := t0.Add(readEvery / 2); ; due = due.Add(readEvery) {
			timer.Reset(max(time.Until(due), 0))
			select {
			case <-stop:
				return
			case <-timer.C:
			}
			late := ms(time.Since(due))
			err := r.read()
			done := ms(time.Since(due))
			mu.Lock()
			readLate = append(readLate, late)
			if err == nil {
				res.reads = append(res.reads, done)
			}
			mu.Unlock()
		}
	}()
	enoughNow := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return enough(res)
	}

	planned, hard := t0.Add(d), t0.Add(d+maxExtend)
	for due := t0; ; due = due.Add(batchEvery) {
		if !due.Before(planned) && (!due.Before(hard) || enoughNow()) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.late = append(res.late, ms(time.Since(due)))
		if r.ingest(due, true) == nil {
			res.events += batchEvents
			res.batches++
		}
	}
	close(stop)
	wg.Wait()
	res.late = append(res.late, readLate...)
	res.to = time.Now()
	deadline := time.Now().Add(drainTimeout)
	for r.trk.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	if n := r.trk.outstanding(); n > 0 {
		r.fail("undetected batches", n)
		return res, fmt.Errorf("%d batches not detected within %v", n, drainTimeout)
	}
	res.cpu = cpuTime() - cpu0
	ticks1, steal1 := hostTicks()
	res.steal = ratio(float64(steal1-steal0), float64(ticks1-ticks0))
	res.rt1 = readRuntime()
	e1, _ := r.sys.eng.MergedEpoch()
	res.epochs = e1 - e0
	res.detect = r.trk.takeLatencies()
	return res, nil
}

// snapshotsEqual compares two exports entry by entry.
func snapshotsEqual(a, b core.Snapshot) bool {
	if len(a.Pairs) != len(b.Pairs) || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return false
		}
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}

// check is one output check and its outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// finalChecks verifies the outputs once ingest has stopped and every
// event was processed: per-device accounting on every workload, plus
// the workload's oracle.
func (r *runner) finalChecks() []check {
	var out []check
	eng := r.sys.eng
	st, err := eng.Stats()
	acct := check{Name: "processed + dropped == submitted, every device", OK: err == nil}
	if err != nil {
		acct.Detail = err.Error()
	}
	for i, d := range st.Devices {
		if got := d.Monitor.Events + d.Dropped; got != r.submitted[i] {
			acct.OK = false
			acct.Detail = fmt.Sprintf("%s: processed %d + dropped %d != submitted %d", d.Device, d.Monitor.Events, d.Dropped, r.submitted[i])
			break
		}
		if d.Dropped > 0 {
			r.fail("dropped events", int(d.Dropped))
		}
	}
	out = append(out, acct)
	lost := r.registrySum(engine.MetricReorderLost)
	if lost > 0 {
		r.fail("reorder-lost events", int(lost))
	}

	switch {
	case r.w.ingest == ingestHTTP:
		c := check{Name: "GET /v1/snapshot equals Engine.MergedSnapshot"}
		got, err1 := r.sys.api.FleetSnapshot(context.Background(), client.Query{Support: support, Top: realtime.MaxTop})
		want, err2 := eng.MergedSnapshot(support)
		switch {
		case err1 != nil || err2 != nil:
			c.Detail = fmt.Sprintf("read failed: %v / %v", err1, err2)
		case got.TotalPairs != len(want.Pairs):
			c.Detail = fmt.Sprintf("totalPairs %d, engine %d", got.TotalPairs, len(want.Pairs))
		default:
			top := want.TopPairs(realtime.MaxTop)
			c.OK = len(top) == len(got.Pairs)
			for i := 0; c.OK && i < len(top); i++ {
				c.OK = top[i] == got.Pairs[i]
			}
			if !c.OK {
				c.Detail = "pair lists differ"
			}
		}
		out = append(out, c)
	case r.w.observer == observeSync:
		c := check{Name: "aggregator merged snapshot equals the engine's after a final SyncNow"}
		rep, err := r.sys.sync.SyncNow(context.Background())
		r.count("sync rounds", err)
		want, err2 := eng.MergedSnapshot(0)
		switch {
		case err != nil:
			r.mu.Lock()
			r.syncErrs = append(r.syncErrs, err.Error())
			r.mu.Unlock()
			c.Detail = "final sync: " + err.Error()
		case err2 != nil:
			c.Detail = err2.Error()
		case rep.Applied != rep.Sections:
			c.Detail = fmt.Sprintf("final sync applied %d of %d sections", rep.Applied, rep.Sections)
		default:
			c.OK = snapshotsEqual(r.sys.agg.MergedSnapshot(0), want)
			if !c.OK {
				c.Detail = "merged snapshots differ"
			}
		}
		out = append(out, c)
	case r.w.partitions > 1:
		c := check{Name: fmt.Sprintf("P=%d snapshot equals the same stream replayed at P=1", r.w.partitions)}
		ok, detail := r.replayP1()
		c.OK, c.Detail = ok, detail
		out = append(out, c)
	}
	return out
}

// replayP1 feeds the accepted stream, batch by batch in submit order,
// to a fresh P=1 engine and compares every device's snapshot with the
// partitioned engine's.
func (r *runner) replayP1() (bool, string) {
	ref, err := newEngine(r.w, r.ids, 1)
	if err != nil {
		return false, err.Error()
	}
	defer ref.Stop()
	replay := cloneStreams(r.streams)
	sent := make([]uint64, len(replay))
	for d := 0; ; d = (d + 1) % len(replay) {
		left := false
		for i := range replay {
			if sent[i] < r.submitted[i] {
				left = true
			}
		}
		if !left {
			break
		}
		if sent[d] >= r.submitted[d] {
			continue
		}
		n := int(min(uint64(batchEvents), r.submitted[d]-sent[d]))
		if err := ref.SubmitBatch(r.ids[d], replay[d].batch(n)); err != nil {
			return false, err.Error()
		}
		sent[d] += uint64(n)
	}
	deadline := time.Now().Add(2 * drainTimeout)
	for {
		st, err := ref.Stats()
		if err != nil {
			return false, err.Error()
		}
		if slices.Equal(counts(st), r.submitted) {
			break
		}
		if time.Now().After(deadline) {
			return false, "P=1 replay not processed within the timeout"
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range r.ids {
		want, err1 := ref.Snapshot(id, 0)
		got, err2 := r.sys.eng.Snapshot(id, 0)
		if err1 != nil || err2 != nil {
			return false, fmt.Sprintf("snapshot: %v / %v", err1, err2)
		}
		if !snapshotsEqual(got, want) {
			return false, fmt.Sprintf("%s: %d/%d pairs, %d/%d items", id, len(got.Pairs), len(want.Pairs), len(got.Items), len(want.Items))
		}
	}
	return true, ""
}

// cloneStreams returns the streams rewound to their first event.
func cloneStreams(in []*stream) []*stream {
	out := make([]*stream, len(in))
	for i, s := range in {
		out[i] = &stream{id: s.id, pool: s.pool, cycle: s.cycle}
	}
	return out
}

// registrySum sums a per-device engine counter over every device.
func (r *runner) registrySum(name string) uint64 {
	reg := r.sys.eng.Metrics()
	var n uint64
	for _, id := range r.ids {
		n += reg.Counter(name, "", obs.L("device", id)).Value()
	}
	return n
}

// exactRecall is pair_recall: the weighted recall of the final merged
// snapshot against exact pair counts of the monitor's transactions
// over every accepted event, at the paper's support. The open
// transaction each device holds at the end is in neither side.
//
// A device's stream is its pool repeated, each cycle starting more than
// a window after the previous one ends, so every full cycle closes the
// same transactions: one cycle is counted and multiplied, and only the
// trailing partial cycle is run on its own.
func exactRecall(streams []*stream, submitted []uint64, snap core.Snapshot) (float64, error) {
	freqs := make(map[blktrace.Pair]int)
	add := func(extents []blktrace.Extent, mult int) {
		for a := 0; a < len(extents); a++ {
			for b := a + 1; b < len(extents); b++ {
				freqs[blktrace.MakePair(extents[a], extents[b])] += mult
			}
		}
	}
	for i, s := range cloneStreams(streams) {
		n := uint64(len(s.pool))
		cycles, rem := submitted[i]/n, submitted[i]%n
		if cycles > 0 {
			var last []blktrace.Extent
			m, err := monitor.New(monitor.Config{Window: monitor.StaticWindow(window)}, func(tx monitor.Transaction) {
				add(tx.Extents, int(cycles))
				last = tx.Extents
			})
			if err != nil {
				return 0, err
			}
			for _, ev := range s.pool {
				if err := m.HandleEvent(ev); err != nil {
					return 0, err
				}
			}
			m.Flush()
			if rem == 0 {
				add(last, -1) // nothing followed the last cycle: its final transaction is still open
			}
		}
		m, err := monitor.New(monitor.Config{Window: monitor.StaticWindow(window)}, func(tx monitor.Transaction) { add(tx.Extents, 1) })
		if err != nil {
			return 0, err
		}
		for k := uint64(0); k < rem; k++ {
			if err := m.HandleEvent(s.event(int64(cycles*n + k))); err != nil {
				return 0, err
			}
		}
	}
	return analysis.WeightedRecall(snap.PairSet(), freqs, support), nil
}

// gcNow settles the heap so a set-up or phase does not pay for the
// previous one's garbage.
func gcNow() { runtime.GC() }
