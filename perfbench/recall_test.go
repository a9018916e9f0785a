package main

import (
	"testing"

	"daccor/internal/analysis"
	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/monitor"
)

// exactRecall counts one pool cycle and multiplies it; it must equal
// counting the whole stream event by event, whether the stream ends on
// a cycle boundary or inside a cycle.
func TestCycleRecallMatchesStream(t *testing.T) {
	w, _ := workloadByName("hot-p2")
	w.poolEvents = 600
	streams, err := makeStreams(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []uint64{600 * 3, 600*3 + 77} {
		freqs := map[blktrace.Pair]int{}
		m, err := monitor.New(monitor.Config{Window: monitor.StaticWindow(window)}, func(tx monitor.Transaction) {
			for a := 0; a < len(tx.Extents); a++ {
				for b := a + 1; b < len(tx.Extents); b++ {
					freqs[blktrace.MakePair(tx.Extents[a], tx.Extents[b])]++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < sub; k++ {
			if err := m.HandleEvent(streams[0].event(int64(k))); err != nil {
				t.Fatal(err)
			}
		}
		// A snapshot of exactly the frequent pairs recalls all of them;
		// one of half of them recalls their share.
		var snap core.Snapshot
		for p, f := range freqs {
			if f >= support {
				snap.Pairs = append(snap.Pairs, core.PairCount{Pair: p, Count: uint32(f)})
			}
		}
		got, err := exactRecall(streams, []uint64{sub}, snap)
		if err != nil {
			t.Fatal(err)
		}
		want := analysis.WeightedRecall(snap.PairSet(), freqs, support)
		half := core.Snapshot{Pairs: snap.Pairs[:len(snap.Pairs)/2]}
		got2, err := exactRecall(streams, []uint64{sub}, half)
		if err != nil {
			t.Fatal(err)
		}
		want2 := analysis.WeightedRecall(half.PairSet(), freqs, support)
		if got != want || got2 != want2 {
			t.Fatalf("sub %d: recall %v/%v want %v/%v", sub, got, got2, want, want2)
		}
	}
}
