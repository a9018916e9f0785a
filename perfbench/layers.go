package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/fleet"
	"daccor/internal/monitor"
	"daccor/internal/obs"
	"daccor/internal/realtime"
	"daccor/pkg/client"
)

// Standalone replays: in the traced run, each workload's inputs are
// also fed through the monitor, core, realtime and fleet public APIs
// on their own, so every
// layer gets a cost per event measured without the rest of the system
// around it.
const (
	replayEvents     = 1 << 19 // monitor and core replays
	replayHTTPEvents = 1 << 17 // realtime handler replay (JSON decode is the slow part)
	replayRepeats    = 3       // timed repetitions; the median is reported
)

// replayPrefix materializes each device's share of the first n events,
// in the order the live run submits them (round-robin batches).
func replayPrefix(streams []*stream, n int) [][]blktrace.Event {
	out := make([][]blktrace.Event, len(streams))
	cl := cloneStreams(streams)
	for total, d := 0, 0; total < n; d = (d + 1) % len(cl) {
		out[d] = append(out[d], cl[d].batch(batchEvents)...)
		total += batchEvents
	}
	return out
}

// monitorReplay is the monitor layer on its own.
type monitorReplay struct {
	nsPerEvent, extentsPerTx, capSplitRatio, allocPerEvent float64
	txs                                                    [][][]blktrace.Extent // per device, for the core replay
	events                                                 int
}

func replayMonitor(evs [][]blktrace.Event) (monitorReplay, error) {
	cfg := monitor.Config{Window: monitor.StaticWindow(window)}
	var res monitorReplay
	for _, dev := range evs {
		res.events += len(dev)
	}
	var times []float64
	for rep := 0; rep < replayRepeats; rep++ {
		var elapsed time.Duration
		var txs, extents, capSplits uint64
		rt0 := readRuntime()
		for _, dev := range evs {
			m, err := monitor.New(cfg, func(tx monitor.Transaction) { extents += uint64(len(tx.Extents)) })
			if err != nil {
				return res, err
			}
			start := time.Now()
			for _, ev := range dev {
				if err := m.HandleEvent(ev); err != nil {
					return res, err
				}
			}
			elapsed += time.Since(start)
			st := m.Stats()
			txs += st.Transactions
			capSplits += st.CapSplits
		}
		rt1 := readRuntime()
		times = append(times, float64(elapsed.Nanoseconds())/float64(res.events))
		res.extentsPerTx = ratio(float64(extents), float64(txs))
		res.capSplitRatio = ratio(float64(capSplits), float64(txs))
		res.allocPerEvent = float64(rt1.allocBytes-rt0.allocBytes) / float64(res.events)
	}
	res.nsPerEvent = median(times)
	res.txs = make([][][]blktrace.Extent, len(evs))
	for d, dev := range evs {
		m, err := monitor.New(cfg, func(tx monitor.Transaction) { res.txs[d] = append(res.txs[d], tx.Extents) })
		if err != nil {
			return res, err
		}
		for _, ev := range dev {
			_ = m.HandleEvent(ev)
		}
	}
	return res, nil
}

// replayCore times core.Analyzer.Process over the monitor replay's
// transactions, one analyzer per device at the benchmark's capacity.
func replayCore(mon monitorReplay, capacity int) (nsPerTx, nsPerEvent float64, err error) {
	var perTx, perEvent []float64
	for rep := 0; rep < replayRepeats; rep++ {
		var elapsed time.Duration
		txs := 0
		for _, dev := range mon.txs {
			a, err := core.NewAnalyzer(core.Config{ItemCapacity: capacity, PairCapacity: capacity})
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			for _, tx := range dev {
				a.Process(tx)
			}
			elapsed += time.Since(start)
			txs += len(dev)
		}
		perTx = append(perTx, ratio(float64(elapsed.Nanoseconds()), float64(txs)))
		perEvent = append(perEvent, ratio(float64(elapsed.Nanoseconds()), float64(mon.events)))
	}
	return median(perTx), median(perEvent), nil
}

// handlerTransport hands every request straight to a handler's
// ServeHTTP on a recorder, so pkg/client and fleet.SyncClient reach
// the server code without a socket. It adds up the time spent in
// ServeHTTP and the request body bytes.
type handlerTransport struct {
	h       http.Handler
	elapsed time.Duration
	bytes   int
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		_ = req.Body.Close()
		if err != nil {
			return nil, err
		}
		t.bytes += len(body)
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(rec, req)
	t.elapsed += time.Since(start)
	return rec.Result(), nil
}

// replayHandler posts the workload's streams with pkg/client's
// SubmitEvents into realtime's ingest handler on a recorder (no
// socket) and a fresh engine, and times ServeHTTP.
func replayHandler(w workload, ids []string, streams []*stream) (nsPerEvent, bytesPerEvent float64, err error) {
	eng, err := newEngine(w, ids, w.partitions)
	if err != nil {
		return 0, 0, err
	}
	defer eng.Stop()
	tr := &handlerTransport{h: realtime.NewEngineHandler(eng)}
	api := client.New("http://replay", client.WithHTTPClient(&http.Client{Transport: tr}))
	cl := cloneStreams(streams)
	events := 0
	for d := 0; events < replayHTTPEvents; d = (d + 1) % len(cl) {
		b := cl[d].batch(batchEvents)
		n, err := api.SubmitEvents(context.Background(), cl[d].id, b)
		if err != nil {
			return 0, 0, fmt.Errorf("ingest replay: %w", err)
		}
		if n != len(b) {
			return 0, 0, fmt.Errorf("ingest replay: accepted %d of %d events", n, len(b))
		}
		events += len(b)
	}
	return float64(tr.elapsed.Nanoseconds()) / float64(events), float64(tr.bytes) / float64(events), nil
}

// waitCounts waits until eng has processed want[i] events on device i.
func waitCounts(eng *engine.Engine, want []uint64) error {
	deadline := time.Now().Add(drainTimeout)
	for {
		st, err := eng.Stats()
		if err == nil && slices.Equal(counts(st), want) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replay not processed within %v: %v", drainTimeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// fleetReplay is the fleet layer on its own: sync rounds run back to
// back from a fresh engine into an aggregator's handler on a recorder.
type fleetReplay struct {
	rounds                  []float64 // ms per SyncNow
	bytes, deltas, sections int
}

// replayFleet runs rounds until a p99 has its samples. Before each
// round every device submits one cycle of its pool, so a round carries
// a change to every entry of every device's working set, as a round at
// the live interval does: at the paced rate each device replays its
// pool many times per interval.
func replayFleet(w workload, ids []string, streams []*stream) (fleetReplay, error) {
	var res fleetReplay
	eng, err := newEngine(w, ids, w.partitions)
	if err != nil {
		return res, err
	}
	defer eng.Stop()
	agg := fleet.NewAggregator(fleet.Config{})
	defer agg.Close()
	sc, err := fleet.NewSyncClient(fleet.ClientConfig{
		Aggregator: "http://replay", Collector: "replay", Engine: eng, MaxAttempts: 1,
		HTTPClient: &http.Client{Transport: &handlerTransport{h: fleet.NewHandler(agg)}},
	})
	if err != nil {
		return res, err
	}
	cl := cloneStreams(streams)
	want := make([]uint64, len(cl))
	for len(res.rounds) < samplesFor(99) {
		for d, s := range cl {
			for n := len(s.pool); n > 0; n -= batchEvents {
				b := s.batch(min(n, batchEvents))
				if err := eng.SubmitBatch(ids[d], b); err != nil {
					return res, err
				}
				want[d] += uint64(len(b))
			}
		}
		if err := waitCounts(eng, want); err != nil {
			return res, err
		}
		start := time.Now()
		rep, err := sc.SyncNow(context.Background())
		if err != nil {
			return res, fmt.Errorf("fleet replay round %d: %w", len(res.rounds), err)
		}
		res.rounds = append(res.rounds, ms(time.Since(start)))
		res.bytes += rep.Bytes
		res.deltas += rep.Deltas
		res.sections += rep.Sections
	}
	return res, nil
}

// histogramP99 reads the p99 of a per-device histogram family from
// the registry's exposition, summing the devices' buckets and
// interpolating linearly inside the bucket that holds the rank. Its
// resolution is the family's bucket layout.
func histogramP99(reg *obs.Registry, family string) (float64, uint64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0, 0, err
	}
	cum := map[float64]uint64{}
	sc := bufio.NewScanner(&buf)
	prefix := family + "_bucket{"
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndex(line, `"}`)
		sp := strings.LastIndexByte(line, ' ')
		if i < 0 || j < i || sp < j {
			continue
		}
		le, err := strconv.ParseFloat(line[i+4:j], 64)
		if err != nil {
			continue
		}
		v, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			continue
		}
		cum[le] += v
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	if len(les) == 0 {
		return 0, 0, fmt.Errorf("histogram %s not found", family)
	}
	slices.Sort(les)
	total := cum[les[len(les)-1]]
	if total == 0 {
		return 0, 0, fmt.Errorf("histogram %s is empty", family)
	}
	rank := 0.99 * float64(total)
	lo, below := 0.0, uint64(0)
	for _, le := range les {
		c := cum[le]
		if float64(c) >= rank {
			if math.IsInf(le, 1) {
				return lo, total, nil
			}
			frac := ratio(rank-float64(below), float64(c-below))
			return lo + frac*(le-lo), total, nil
		}
		lo, below = le, c
	}
	return lo, total, nil
}
