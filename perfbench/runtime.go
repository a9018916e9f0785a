package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostTicks reads the machine-wide CPU tick counters: all ticks and
// the ticks stolen by the hypervisor (0, 0 where /proc/stat is absent).
// The stolen share during a phase says how much of its noise came from
// other tenants of the host.
func hostTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtStats is a reading of the Go runtime counters the benchmark uses.
type rtStats struct {
	allocBytes uint64  // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds the runtime accounts
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// sampler records the run's peaks every period: the live heap (as of
// the last GC), the goroutine count, and whatever extra gauges the
// workload registers.
type sampler struct {
	mu         sync.Mutex
	heapMax    uint64
	goroutines int
	gauges     map[string]float64 // name → maximum
	extra      map[string]func() float64

	stop chan struct{}
	done chan struct{}
}

func startSampler(period time.Duration, extra map[string]func() float64) *sampler {
	s := &sampler{gauges: make(map[string]float64), extra: extra, stop: make(chan struct{}), done: make(chan struct{})}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			metrics.Read(live)
			g := runtime.NumGoroutine()
			vals := make(map[string]float64, len(s.extra))
			for k, fn := range s.extra {
				vals[k] = fn()
			}
			s.mu.Lock()
			s.heapMax = max(s.heapMax, live[0].Value.Uint64())
			s.goroutines = max(s.goroutines, g)
			for k, v := range vals {
				s.gauges[k] = max(s.gauges[k], v)
			}
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for it.
func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}
