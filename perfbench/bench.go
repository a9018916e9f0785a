package main

import (
	"context"
	"fmt"
	"time"

	"daccor/internal/core"
	"daccor/internal/engine"
)

// metricDef names one reported metric and its unit. A printOnly
// metric is printed and recorded but left out of the result line, so
// BENCHMARK.json sets no bound on it.
type metricDef struct {
	name, unit string
	printOnly  bool
}

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs. error_rate is printed beside them with its base; the
// result line carries that base as failed/attempted. The tail
// percentiles are print-only: on a 2-vCPU host with hypervisor steal a
// few millisecond stalls set them, and their run-to-run spread (up to
// half the median over ten seeds) is wider than any bound that would
// still catch a regression.
var endToEnd = []metricDef{
	{name: "ingest_eps", unit: "events/s"},
	{name: "detect_p50_ms", unit: "ms"},
	{name: "detect_p99_ms", unit: "ms", printOnly: true},
	{name: "read_p50_ms", unit: "ms"},
	{name: "read_p90_ms", unit: "ms", printOnly: true},
	{name: "cpu_us_per_event", unit: "us"},
	{name: "peak_heap_mb", unit: "MiB"},
	{name: "pair_recall", unit: "ratio"},
	{name: "setup_s", unit: "s"},
}

// perLayer are the traced run's metrics, one group per module. A
// metric of a path the workload does not take (an HTTP round trip on
// an in-process workload, a sync round outside fleet-sync) reads 0.
var perLayer = []metricDef{
	{name: "monitor.ns_per_event", unit: "ns"},
	{name: "monitor.extents_per_tx", unit: "count"},
	{name: "monitor.cap_split_ratio", unit: "ratio"},
	{name: "monitor.alloc_bytes_per_event", unit: "B"},
	{name: "core.process_ns_per_tx", unit: "ns"},
	{name: "core.process_ns_per_event", unit: "ns"},
	{name: "core.pair_touches_per_event", unit: "count"},
	{name: "core.item_mean_probe", unit: "count"},
	{name: "core.pair_mean_probe", unit: "count"},
	{name: "core.pair_eviction_ratio", unit: "ratio"},
	{name: "engine.submit_ns_per_event", unit: "ns"},
	{name: "engine.submit_blocked_ratio", unit: "ratio"},
	{name: "engine.backlog_max_events", unit: "events"},
	{name: "engine.submit_to_analyze_p99_ms", unit: "ms"},
	{name: "engine.epoch_wake_p99_ms", unit: "ms"},
	{name: "engine.stats_query_ns", unit: "ns"},
	{name: "engine.reorder_late_ratio", unit: "ratio"},
	{name: "engine.reorder_lost", unit: "events"},
	{name: "engine.merged_read_ns", unit: "ns"},
	{name: "engine.top_rules_ns", unit: "ns"},
	{name: "realtime.ingest_rtt_p50_ms", unit: "ms"},
	{name: "realtime.ingest_rtt_p99_ms", unit: "ms"},
	{name: "realtime.ingest_ns_per_event", unit: "ns"},
	{name: "realtime.handler_ns_per_event", unit: "ns"},
	{name: "realtime.ingest_bytes_per_event", unit: "B"},
	{name: "realtime.read_rtt_p90_ms", unit: "ms"},
	{name: "realtime.sse_delivery_p99_ms", unit: "ms"},
	{name: "realtime.sse_frames_per_epoch", unit: "ratio"},
	{name: "realtime.sse_frame_bytes", unit: "B"},
	{name: "fleet.sync_round_p50_ms", unit: "ms"},
	{name: "fleet.sync_round_p99_ms", unit: "ms"},
	{name: "fleet.sync_bytes_per_round", unit: "B"},
	{name: "fleet.delta_section_ratio", unit: "ratio"},
	{name: "fleet.full_required_total", unit: "count"},
	{name: "fleet.sync_failed_rounds", unit: "count"},
	{name: "fleet.agg_read_p90_ms", unit: "ms"},
	{name: "fleet.max_sync_age_ms", unit: "ms"},
	{name: "runtime.alloc_bytes_per_event", unit: "B"},
	{name: "runtime.gc_cpu_fraction", unit: "ratio"},
	{name: "runtime.goroutines_max", unit: "count"},
	{name: "bench.late_p99_ms", unit: "ms"},
	{name: "bench.trace_overhead_pct", unit: "%"},
	{name: "bench.ledger_unexplained_pct", unit: "%"},
}

func defOf(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func unitOf(defs []metricDef, name string) string { return defOf(defs, name).unit }

func printOnly(defs []metricDef, name string) bool { return defOf(defs, name).printOnly }

// run executes one workload run and returns its record. An error means
// the run could not measure (a refused percentile, a system that would
// not start); failed output checks are reported in the record.
func run(cfg config) (*result, error) {
	w := cfg.w
	streams, err := makeStreams(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(streams))
	for i, s := range streams {
		ids[i] = s.id
	}
	res := &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Params: map[string]any{
			"devices": w.devices, "partitions": w.partitions, "pool_events_per_device": w.poolEvents,
			"mean_event_gap_us": w.meanGap.Seconds() * 1e6, "window_us": window.Seconds() * 1e6,
			"tx_cap": txCap, "table_c": w.capacity, "displaced_share": w.displace,
			"batch_events": batchEvents, "paced_events_per_s": w.pacedEPS, "reads_per_s": w.readsPerSec,
			"sync_interval_ms": ms(w.syncEvery), "backpressure": "block", "support": support,
		},
		Metrics: map[string]metric{},
		Pctls:   map[string]pctl{},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(defs, name)} }
	// A refused percentile fails the run, unless the metric is
	// print-only: then it is printed as refused.
	var perr error
	setP := func(name string, xs []float64, p float64) {
		q, err := percentile(xs, p)
		if err != nil {
			q.Refused = err.Error()
			if !printOnly(defs, name) && perr == nil {
				perr = fmt.Errorf("%s: %w", name, err)
			}
		}
		res.Pctls[name] = q
		set(name, q.Value)
	}

	// Set-up, repeated; the last system carries the load.
	var setups []float64
	var sys *system
	for i := 0; i < setupRepeats; i++ {
		gcNow()
		start := time.Now()
		s, err := setup(w, ids)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			s.close()
		} else {
			sys = s
		}
	}

	r := &runner{
		w: w, streams: streams, ids: ids, sys: sys,
		trk:       newTracker(len(streams)),
		submitted: make([]uint64, len(streams)),
		attempts:  map[string]int{}, failures: map[string]int{},
	}
	r.sse = &sseMatcher{trk: r.trk}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	extra := map[string]func() float64{
		"backlog": func() float64 {
			n := 0
			for _, d := range sys.devs {
				n += d.Lag()
			}
			return float64(n)
		},
	}
	if sys.agg != nil {
		extra["sync_age_ms"] = func() float64 { return ms(sys.agg.MaxSyncAge()) }
	}
	samp := startSampler(10*time.Millisecond, extra)
	r.startObservers()
	closed := false
	shutdown := func() {
		if !closed {
			closed = true
			r.stopObservers()
			sys.close()
			samp.halt()
		}
	}
	defer shutdown()

	secs := time.Duration(cfg.seconds) * time.Second
	satRound := secs * satShare / 100 / satRounds
	pacedLen := secs * pacedShare / 100
	if cfg.trace {
		r.traced = newTracer()
		pacedLen /= 2
	}

	if _, _, err := r.saturated(warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// The saturated rounds run in two groups, before and after the
	// paced phase, so they sample the host over most of the run: its
	// speed drifts over tens of seconds.
	var eps []float64
	var satEvents int
	var satTime time.Duration
	var satTicks, satSteal uint64
	saturate := func(rounds int) error {
		r.tr.Store(r.traced)
		defer r.tr.Store(nil)
		ticks0, steal0 := hostTicks()
		defer func() {
			ticks1, steal1 := hostTicks()
			satTicks += ticks1 - ticks0
			satSteal += steal1 - steal0
		}()
		for i := 0; i < rounds; i++ {
			n, d, err := r.saturated(satRound)
			if err != nil {
				return fmt.Errorf("saturated phase: %w", err)
			}
			eps = append(eps, float64(n)/d.Seconds())
			satEvents += n
			satTime += d
		}
		return nil
	}
	if err := saturate((satRounds + 1) / 2); err != nil {
		return nil, err
	}
	gcNow()
	plain, err := r.paced(pacedLen, func(p pacedResult) bool {
		return p.batches >= samplesFor(99) && len(p.reads) >= samplesFor(50)
	})
	if err != nil {
		return nil, fmt.Errorf("paced phase: %w", err)
	}
	var tracedP pacedResult
	if cfg.trace {
		gcNow()
		r.tr.Store(r.traced)
		tracedP, err = r.paced(pacedLen, r.tracedEnough)
		r.tr.Store(nil)
		if err != nil {
			return nil, fmt.Errorf("traced paced phase: %w", err)
		}
	}
	if err := saturate(satRounds / 2); err != nil {
		return nil, err
	}
	r.stopObservers()

	res.Checks = r.finalChecks()
	final, err := sys.eng.MergedSnapshot(0)
	if err != nil {
		return nil, err
	}
	live, err := r.liveEngineCounters()
	if err != nil {
		return nil, err
	}
	shutdown()

	// Accounting.
	r.mu.Lock()
	res.Attempts, res.Failures, res.SyncErrors = r.attempts, r.failures, r.syncErrs
	r.mu.Unlock()
	for _, n := range res.Attempts {
		res.Attempted += n
	}
	for _, n := range res.Failures {
		res.Failed += n
	}
	res.ErrorRate = metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio"}
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	cpuPlain := float64(plain.cpu.Nanoseconds()) / 1e3 / float64(plain.events)

	if !cfg.trace {
		set("ingest_eps", float64(satEvents)/satTime.Seconds())
		setP("detect_p50_ms", plain.detect, 50)
		setP("detect_p99_ms", plain.detect, 99)
		setP("read_p50_ms", plain.reads, 50)
		setP("read_p90_ms", plain.reads, 90)
		set("cpu_us_per_event", cpuPlain)
		set("peak_heap_mb", float64(samp.heapMax)/(1<<20))
		recall, err := exactRecall(streams, r.submitted, final)
		if err != nil {
			return nil, err
		}
		set("pair_recall", recall)
		set("setup_s", median(setups))
		res.Extra = map[string]any{
			"ingest_eps_rounds": eps, "setup_s_each": setups,
			"paced_events": plain.events, "paced_seconds": plain.to.Sub(plain.from).Seconds(),
			"generator_late_p50_ms":      median(plain.late),
			"paced_host_steal_share":     plain.steal,
			"saturated_host_steal_share": ratio(float64(satSteal), float64(satTicks)),
		}
		return res, perr
	}

	// Traced run: per-layer metrics.
	res.spans = r.traced
	if err := r.perLayer(res, set, setP, plain, tracedP, live, samp); err != nil {
		return nil, err
	}
	return res, perr
}

// The measured seconds split into the saturated rounds (satShare
// percent, in satRounds rounds; ingest_eps pools them: all their
// events ÷ all their time) and the paced phase (pacedShare percent,
// longer when its percentiles need more samples).
const (
	satShare   = 55
	satRounds  = 10
	pacedShare = 40
)

// liveCounters are the live engine's cumulative counters at the end of
// the run.
type liveCounters struct {
	stats                          engine.Stats
	blocked, submitted, late, lost uint64
	submitToAnalyzeP99ms           float64
	submitToAnalyzeSamples         uint64
	itemLookups, itemProbes        uint64
	pairLookups, pairProbes        uint64
	an                             core.Stats
	monitorEvents                  uint64
}

func (r *runner) liveEngineCounters() (liveCounters, error) {
	var lc liveCounters
	st, err := r.sys.eng.Stats()
	if err != nil {
		return lc, err
	}
	lc.stats = st
	for _, d := range st.Devices {
		lc.itemLookups += d.ItemIndex.Lookups
		lc.itemProbes += d.ItemIndex.Probes
		lc.pairLookups += d.PairIndex.Lookups
		lc.pairProbes += d.PairIndex.Probes
	}
	lc.an = st.TotalAnalyzer()
	lc.monitorEvents = st.TotalMonitor().Events
	lc.blocked = r.registrySum(engine.MetricBlocked)
	lc.submitted = r.registrySum(engine.MetricSubmitted)
	lc.late = r.registrySum(engine.MetricReorderLate)
	lc.lost = r.registrySum(engine.MetricReorderLost)
	p99, n, err := histogramP99(r.sys.eng.Metrics(), engine.MetricSubmitLatency)
	if err != nil {
		return lc, err
	}
	lc.submitToAnalyzeP99ms, lc.submitToAnalyzeSamples = p99*1e3, n
	return lc, nil
}

// tracedEnough reports whether the traced paced phase holds enough
// samples for every per-layer percentile taken from it.
func (r *runner) tracedEnough(p pacedResult) bool {
	need := samplesFor(99)
	if p.batches < need {
		return false
	}
	switch {
	case r.w.ingest == ingestHTTP:
		if len(p.reads) < samplesFor(90) || len(r.sse.deliveries(p.from, time.Now())) < need {
			return false
		}
	case r.w.observer == observeSync:
		return len(p.reads) >= samplesFor(90)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.wakeLat) >= need
}
