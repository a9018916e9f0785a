package main

import (
	"encoding/json"
	"os"
	"testing"
)

// declared is the part of BENCHMARK.json the benchmark must honour.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json lists exactly the workloads not marked byNameOnly,
// and every metric it declares is one the benchmark emits, with the
// same unit.
func TestDeclaredMatchesBenchmark(t *testing.T) {
	d := readDeclared(t)
	declared := map[string]bool{}
	for _, dw := range d.Workloads {
		w, err := workloadByName(dw.Name)
		if err != nil {
			t.Error(err)
		} else if w.byNameOnly {
			t.Errorf("BENCHMARK.json declares %s, which is marked byNameOnly", w.name)
		}
		declared[dw.Name] = true
	}
	for _, w := range workloads {
		if !w.byNameOnly && !declared[w.name] {
			t.Errorf("workload %s is missing from BENCHMARK.json", w.name)
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the benchmark emits %d", len(d.PerLayer), len(perLayer))
	}
	for _, m := range d.PerLayer {
		if u := unitOrEmpty(perLayer, m.Name); u != m.Unit {
			t.Errorf("per-layer %s: declared unit %q, emitted %q", m.Name, m.Unit, u)
		}
	}
	gated := 0
	for _, m := range endToEnd {
		if !m.printOnly {
			gated++
		}
	}
	if len(d.EndToEnd) != gated {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the result line carries %d", len(d.EndToEnd), gated)
	}
	for _, m := range d.EndToEnd {
		if u := unitOrEmpty(endToEnd, m.Name); u != m.Unit {
			t.Errorf("end-to-end %s: declared unit %q, emitted %q", m.Name, m.Unit, u)
		}
	}
}

func unitOrEmpty(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// tiny shrinks a workload so a run takes seconds: smaller pools, and
// reads and batches fast enough that every percentile collects its
// samples quickly. The code paths are the workload's own.
func tiny(w workload) workload {
	w.poolEvents = min(w.poolEvents, 512)
	w.readsPerSec = 200
	w.pacedEPS = max(w.pacedEPS, 100_000)
	return w
}

// At a tiny size, every workload runs in both modes, passes its output
// checks, and emits every metric of the mode with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(config{w: tiny(w), seed: 7, seconds: 1, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: output checks failed: %+v", w.name, traced, res.Checks)
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", w.name, traced, res.Attempted)
			}
			for _, d := range res.reported() {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.name, traced, d.name)
				} else if m.Unit != d.unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, traced, d.name, m.Unit, d.unit)
				}
			}
			if !traced {
				if v := res.Metrics["monitor.extents_per_tx"]; v.Unit != "" {
					t.Errorf("untraced run emitted a per-layer metric")
				}
				continue
			}
			// The workload split the benchmark is built on: dense
			// workloads fill transactions to the cap, sparse ones hold
			// about two extents.
			ext := res.Metrics["monitor.extents_per_tx"].Value
			if w.name == "http-sparse" && (ext < 1.5 || ext > 2.5) {
				t.Errorf("%s: %.2f extents per transaction, want about 2", w.name, ext)
			}
			if (w.name == "engine-dense" || w.name == "hot-p2") && ext < 6.5 {
				t.Errorf("%s: %.2f extents per transaction, want near the cap of %d", w.name, ext, txCap)
			}
		}
	}
}
