package main

import (
	"fmt"
	"math/rand"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/fleet"
	"daccor/internal/monitor"
	"daccor/internal/msr"
)

// Engine configuration shared by every workload: the daemon's table
// size, a static window so event-time spacing alone shapes the
// transactions, the paper's transaction cap, and the support the
// paper reports recall at.
const (
	daemonC      = 32 * 1024
	window       = 100 * time.Microsecond
	txCap        = monitor.DefaultMaxRequests
	support      = 5
	confidence   = 0.5
	topK         = 10
	batchEvents  = 256
	firstEventNs = int64(time.Second)
)

// ingestPath and observerKind name the mechanisms a workload drives;
// see README.md for what each exercises.
type ingestPath int

const (
	ingestInProcess ingestPath = iota // engine.Device.SubmitBatch
	ingestHTTP                        // pkg/client.SubmitEvents → POST /v1/devices/{id}/events
)

type observerKind int

const (
	observeEpoch observerKind = iota // WaitMergedEpoch, then Stats
	observeSSE                       // /v1/watch frames matched to Stats-then-MergedEpoch samples
	observeSync                      // Stats, then fleet.SyncClient.SyncNow
)

// workload is one named input mix and the path it takes through the
// system. Every field is a constant of the benchmark; only the seed
// varies between runs.
type workload struct {
	name       string
	devices    int
	partitions int
	// capacity is C, the synopsis entries per tier and device.
	capacity int
	// poolEvents is one device's event pool. Each device replays its
	// pool in cycles separated by a gap wider than the window, so the
	// synopsis sees a steady working set and memory stays bounded
	// however long the run is.
	poolEvents int
	// meanGap is the mean event-time spacing (exponential), which with
	// the static window sets the transaction shape.
	meanGap time.Duration
	// displace is the share of events swapped with their predecessor
	// inside one transaction (never the transaction's first event), so
	// the reorder buffer has inversions to repair while the monitor's
	// transactions stay the same whether or not it repairs them.
	displace float64
	// maxPairs bounds the distinct pairs of one pool cycle; 0 = no
	// bound. hot-p2 uses it to stay where P>1 ≡ P=1 is defined: no
	// partition slice ever evicts.
	maxPairs int
	// pacedEPS is the paced phase's offered event rate, about a tenth
	// of the workload's saturated ingest_eps on a 2-vCPU host (see
	// README.md for why not half).
	pacedEPS float64
	// readsPerSec is the paced phase's read rate.
	readsPerSec float64
	ingest      ingestPath
	observer    observerKind
	// syncEvery is the fleet sync round interval (observeSync only):
	// the sync client's default, as charactld runs it.
	syncEvery time.Duration
	profiles  []string
	// byNameOnly marks a workload that runs when named but is not one
	// of the benchmark's workloads in BENCHMARK.json (see README.md).
	byNameOnly bool
}

var workloads = []workload{
	{
		// Each device's pool forms about 30 to 42 Ki distinct pairs,
		// more than C: the analyzer evicts and pair_recall falls below
		// 1. A merged read re-exports all eight full tables (about
		// 0.4 to 0.6 s), hence one read a second.
		name: "engine-dense", devices: 8, partitions: 1, capacity: daemonC,
		poolEvents: 12 * 1024, meanGap: 10 * time.Microsecond,
		pacedEPS: 100_000, readsPerSec: 1,
		ingest: ingestInProcess, observer: observeEpoch,
		profiles: []string{"wdev", "src2", "rsrch", "stg", "hm"},
	},
	{
		name: "http-sparse", devices: 8, partitions: 1, capacity: daemonC,
		poolEvents: 256, meanGap: 100 * time.Microsecond,
		pacedEPS: 30_000, readsPerSec: 10,
		ingest: ingestHTTP, observer: observeSSE,
		profiles: []string{"wdev", "src2", "rsrch", "stg", "hm"},
	},
	{
		// C = 4 Ki: 64 devices at the daemon's 32 Ki would hold about
		// 1 GiB of synopsis tables, while each device's working set here
		// is a few hundred entries.
		name: "fleet-sync", devices: 64, partitions: 1, capacity: 4 * 1024,
		poolEvents: 128, meanGap: 100 * time.Microsecond,
		pacedEPS: 100_000, readsPerSec: 10,
		ingest: ingestInProcess, observer: observeSync, syncEvery: fleet.DefaultSyncInterval,
		profiles: []string{"wdev", "src2", "rsrch", "stg", "hm"},
	},
	{
		name: "hot-p2", devices: 1, partitions: 2, capacity: daemonC,
		poolEvents: 4 * 1024, meanGap: 10 * time.Microsecond, displace: 0.05,
		maxPairs: 24 * 1024,
		pacedEPS: 150_000, readsPerSec: 10,
		ingest: ingestInProcess, observer: observeEpoch,
		profiles:   []string{"wdev"},
		byNameOnly: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// stream is one device's input: a pool of events replayed in cycles.
type stream struct {
	id    string
	pool  []blktrace.Event // Time relative to the cycle start
	cycle int64            // event-time length of one cycle, gap included
	next  int64            // events handed out so far
	buf   []blktrace.Event
}

// event returns the i-th event of the device's unbounded stream.
func (s *stream) event(i int64) blktrace.Event {
	n := int64(len(s.pool))
	ev := s.pool[i%n]
	ev.Time += firstEventNs + (i/n)*s.cycle
	return ev
}

// batch returns the next n events of the stream. The slice is reused
// by the following call; every ingest path copies or encodes it before
// returning.
func (s *stream) batch(n int) []blktrace.Event {
	s.buf = s.buf[:0]
	for k := 0; k < n; k++ {
		s.buf = append(s.buf, s.event(s.next))
		s.next++
	}
	return s.buf
}

// makeStreams generates every device's pool from the internal/msr
// profiles: device i uses profile i mod 5 with its own seed, events
// are re-timed with exponential gaps of the workload's mean, and the
// displaced share is swapped inside its transaction.
func makeStreams(w workload, seed int64) ([]*stream, error) {
	out := make([]*stream, w.devices)
	for i := range out {
		p, err := msr.ProfileByName(w.profiles[i%len(w.profiles)])
		if err != nil {
			return nil, err
		}
		devSeed := seed*1_000_003 + int64(i)*7919
		gen, err := p.Generate(w.poolEvents, devSeed)
		if err != nil {
			return nil, err
		}
		pool := gen.Trace.Events
		if len(pool) > w.poolEvents {
			pool = pool[:w.poolEvents]
		}
		rng := rand.New(rand.NewSource(devSeed ^ 0x5eed))
		var t int64
		for k := range pool {
			pool[k].Time = t
			t += int64(rng.ExpFloat64()*float64(w.meanGap)) + 1
		}
		if w.displace > 0 {
			displace(pool, w.displace, rng)
		}
		if w.maxPairs > 0 {
			if n := distinctPairs(pool); n > w.maxPairs {
				return nil, fmt.Errorf("device %d: pool holds %d distinct pairs, above the %d a partition slice holds without eviction", i, n, w.maxPairs)
			}
		}
		out[i] = &stream{
			id:    fmt.Sprintf("dev%02d", i),
			pool:  pool,
			cycle: pool[len(pool)-1].Time + 2*int64(window),
		}
	}
	return out, nil
}

// txPositions returns each event's position inside its transaction
// when the pool is read in timestamp order by a monitor with the
// benchmark's static window and cap.
func txPositions(pool []blktrace.Event) []int {
	pos := make([]int, len(pool))
	var start int64
	n := 0
	for i, ev := range pool {
		if n > 0 && (ev.Time-start > int64(window) || n >= txCap) {
			n = 0
		}
		if n == 0 {
			start = ev.Time
		}
		pos[i] = n
		n++
	}
	return pos
}

// displace swaps about share of the events with their predecessor.
// Only pairs inside one transaction whose earlier member is not the
// transaction's first event are swapped: the monitor clamps the late
// event into the same transaction, so the transactions, and with them
// the synopsis, are identical whether or not the reorder buffer
// repairs the inversion.
func displace(pool []blktrace.Event, share float64, rng *rand.Rand) {
	pos := txPositions(pool)
	for i := 1; i < len(pool); i++ {
		if pos[i] >= 2 && rng.Float64() < share {
			pool[i-1], pool[i] = pool[i], pool[i-1]
			i++ // swaps never overlap
		}
	}
}

// distinctPairs counts the distinct pairs one cycle of the pool forms.
func distinctPairs(pool []blktrace.Event) int {
	seen := make(map[blktrace.Pair]struct{})
	m, err := monitor.New(monitor.Config{Window: monitor.StaticWindow(window)}, func(tx monitor.Transaction) {
		for a := 0; a < len(tx.Extents); a++ {
			for b := a + 1; b < len(tx.Extents); b++ {
				seen[blktrace.MakePair(tx.Extents[a], tx.Extents[b])] = struct{}{}
			}
		}
	})
	if err != nil {
		panic(err) // static config: a bug, not an input error
	}
	for _, ev := range pool {
		_ = m.HandleEvent(ev)
	}
	m.Flush()
	return len(seen)
}
