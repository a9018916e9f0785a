package main

import (
	"math"
	"time"
)

// sum of xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// toMS converts nanosecond durations to milliseconds.
func toMS(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v / 1e6
	}
	return out
}

// perLayer fills the traced run's metrics from its spans, the live
// engine's counters, the sampler and the standalone replays. plain is
// the untraced paced phase (the base for CPU, allocation and the
// ledger), tp the traced one.
func (r *runner) perLayer(res *result, set func(string, float64), setP func(string, []float64, float64),
	plain, tp pacedResult, lc liveCounters, samp *sampler) error {
	t := r.traced
	evs := replayPrefix(r.streams, replayEvents)

	// monitor: standalone HandleEvent replay.
	mon, err := replayMonitor(evs)
	if err != nil {
		return err
	}
	set("monitor.ns_per_event", mon.nsPerEvent)
	set("monitor.extents_per_tx", mon.extentsPerTx)
	set("monitor.cap_split_ratio", mon.capSplitRatio)
	set("monitor.alloc_bytes_per_event", mon.allocPerEvent)

	// core: standalone Process replay; ratios from the live engine.
	nsTx, nsEv, err := replayCore(mon, r.w.capacity)
	if err != nil {
		return err
	}
	mon.txs = nil
	set("core.process_ns_per_tx", nsTx)
	set("core.process_ns_per_event", nsEv)
	set("core.pair_touches_per_event", ratio(float64(lc.an.PairTouches), float64(lc.monitorEvents)))
	set("core.item_mean_probe", ratio(float64(lc.itemProbes), float64(lc.itemLookups)))
	set("core.pair_mean_probe", ratio(float64(lc.pairProbes), float64(lc.pairLookups)))
	set("core.pair_eviction_ratio", ratio(float64(lc.an.PairEvictions), float64(lc.an.PairTouches)))

	// engine: the benchmark's own calls into the engine, over every
	// traced phase; 0 where the workload does not make the call.
	spent := func(names ...string) []float64 { return t.durations(t.epoch, time.Now(), names...) }
	var submitNs float64
	if live := t.durations(tp.from, tp.to, "SubmitBatch"); len(live) > 0 {
		submitNs = sum(live) / float64(len(live)*batchEvents)
	}
	set("engine.submit_ns_per_event", submitNs)
	set("engine.submit_blocked_ratio", ratio(float64(lc.blocked), float64(lc.submitted)))
	set("engine.backlog_max_events", samp.gauges["backlog"])
	set("engine.submit_to_analyze_p99_ms", lc.submitToAnalyzeP99ms)
	n := int(lc.submitToAnalyzeSamples)
	res.Pctls["engine.submit_to_analyze_p99_ms"] = pctl{Value: lc.submitToAnalyzeP99ms, Samples: n, Beyond: n - int(math.Ceil(0.99*float64(n)))}
	set("engine.epoch_wake_p99_ms", 0)
	if r.w.observer != observeSync {
		r.mu.Lock()
		wake := r.wakeLat
		r.mu.Unlock()
		setP("engine.epoch_wake_p99_ms", wake, 99)
	}
	set("engine.stats_query_ns", median(spent("Stats")))
	set("engine.reorder_late_ratio", ratio(float64(lc.late), float64(lc.submitted)))
	set("engine.reorder_lost", float64(lc.lost))
	set("engine.merged_read_ns", median(spent("MergedSnapshot")))
	set("engine.top_rules_ns", median(spent("MergedTopRules")))

	// realtime: loopback round trips on http-sparse; the handler on a
	// recorder for every workload.
	for _, n := range []string{"realtime.ingest_rtt_p50_ms", "realtime.ingest_rtt_p99_ms", "realtime.read_rtt_p90_ms",
		"realtime.sse_delivery_p99_ms", "realtime.ingest_ns_per_event", "realtime.sse_frames_per_epoch", "realtime.sse_frame_bytes"} {
		set(n, 0)
	}
	if r.w.ingest == ingestHTTP {
		post := t.durations(tp.from, tp.to, "POST /v1/devices/{id}/events")
		setP("realtime.ingest_rtt_p50_ms", toMS(post), 50)
		setP("realtime.ingest_rtt_p99_ms", toMS(post), 99)
		set("realtime.ingest_ns_per_event", sum(post)/float64(len(post)*batchEvents))
		setP("realtime.read_rtt_p90_ms", toMS(t.durations(tp.from, tp.to, "GET /v1/rules", "GET /v1/snapshot")), 90)
		setP("realtime.sse_delivery_p99_ms", r.sse.deliveries(tp.from, tp.to), 99)
		frames := r.sse.framesIn(tp.from, tp.to)
		set("realtime.sse_frames_per_epoch", ratio(float64(len(frames)), float64(tp.epochs)))
		var b float64
		for _, f := range frames {
			b += float64(f.bytes)
		}
		set("realtime.sse_frame_bytes", ratio(b, float64(len(frames))))
	}
	hNs, hBytes, err := replayHandler(r.w, r.ids, r.streams)
	if err != nil {
		return err
	}
	set("realtime.handler_ns_per_event", hNs)
	set("realtime.ingest_bytes_per_event", hBytes)

	// fleet: sync rounds from the standalone replay; failures,
	// full_required answers, aggregator reads and sync age from the
	// live run on fleet-sync.
	r.mu.Lock()
	failedRounds := r.failures["sync rounds"]
	fullRequired := r.fullRequired
	r.mu.Unlock()
	for _, n := range []string{"fleet.sync_round_p50_ms", "fleet.sync_round_p99_ms", "fleet.sync_bytes_per_round",
		"fleet.delta_section_ratio", "fleet.agg_read_p90_ms", "fleet.max_sync_age_ms"} {
		set(n, 0)
	}
	set("fleet.full_required_total", float64(fullRequired))
	set("fleet.sync_failed_rounds", float64(failedRounds))
	var syncNsPerEvent float64
	if r.w.observer == observeSync {
		fr, err := replayFleet(r.w, r.ids, r.streams)
		if err != nil {
			return err
		}
		setP("fleet.sync_round_p50_ms", fr.rounds, 50)
		setP("fleet.sync_round_p99_ms", fr.rounds, 99)
		set("fleet.sync_bytes_per_round", ratio(float64(fr.bytes), float64(len(fr.rounds))))
		set("fleet.delta_section_ratio", ratio(float64(fr.deltas), float64(fr.sections)))
		setP("fleet.agg_read_p90_ms", toMS(t.durations(tp.from, tp.to, "GET aggregator /v1/rules", "GET aggregator /v1/snapshot")), 90)
		set("fleet.max_sync_age_ms", samp.gauges["sync_age_ms"])
		// One live round carries what the paced phase submits in a
		// sync interval.
		syncNsPerEvent = 1e6 * sum(fr.rounds) / float64(len(fr.rounds)) / (r.w.pacedEPS * r.w.syncEvery.Seconds())
	}

	// runtime, over the untraced paced phase.
	set("runtime.alloc_bytes_per_event", float64(plain.rt1.allocBytes-plain.rt0.allocBytes)/float64(plain.events))
	set("runtime.gc_cpu_fraction", ratio(plain.rt1.gcCPU-plain.rt0.gcCPU, plain.rt1.totalCPU-plain.rt0.totalCPU))
	set("runtime.goroutines_max", float64(samp.goroutines))

	// bench: the run's own validity.
	setP("bench.late_p99_ms", plain.late, 99)
	cpuPlain := float64(plain.cpu.Nanoseconds()) / float64(plain.events)
	cpuTraced := float64(tp.cpu.Nanoseconds()) / float64(tp.events)
	set("bench.trace_overhead_pct", 100*(cpuTraced-cpuPlain)/cpuPlain)
	// The ledger sums the standalone cost of each layer on the
	// workload's path and compares it with the CPU the whole process
	// spent per event (generator and observers included).
	layers := mon.nsPerEvent + nsEv
	switch {
	case r.w.ingest == ingestHTTP:
		layers += hNs
	default:
		layers += submitNs
	}
	layers += syncNsPerEvent
	set("bench.ledger_unexplained_pct", 100*(1-layers/cpuPlain))
	return nil
}
