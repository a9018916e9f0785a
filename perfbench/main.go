// Command perfbench is the repository's benchmark: one workload per
// run, driven against the real engine, realtime, fleet and pkg/client
// code in this process, with inputs generated from internal/msr
// profiles and a seed. It prints every end-to-end metric by name and
// unit, checks the outputs, and ends with one JSON result line. With
// -trace 1 it records spans around its own calls into the program,
// replays the inputs through the standalone layer APIs, and reports
// the per-layer metrics instead. See README.md.
//
//	go run . -workload engine-dense -seed 1 -seconds 10 -trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	w := flag.String("workload", "", "workload name: engine-dense, http-sparse, fleet-sync or hot-p2")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds (saturated + paced phases)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build/results", "directory for the run record and spans")
	flag.Parse()
	wl, err := workloadByName(*w)
	if err == nil && *seconds < 1 {
		err = errors.New("-seconds must be >= 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(config{w: wl, seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Provenance = provenance(".")
	if err := res.save(*out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// config is one run's parameters.
type config struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run records.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Provenance map[string]any    `json:"provenance"`
	Params     map[string]any    `json:"params"`
	Correct    bool              `json:"correct"`
	Checks     []check           `json:"checks"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Attempts   map[string]int    `json:"attempts_by_kind"`
	Failures   map[string]int    `json:"failures_by_kind"`
	SyncErrors []string          `json:"sync_errors"`
	Metrics    map[string]metric `json:"metrics"`
	Pctls      map[string]pctl   `json:"percentiles"`
	ErrorRate  metric            `json:"error_rate"`
	Extra      map[string]any    `json:"extra,omitempty"`
	spans      *tracer
}

// reported lists the metrics of the result line for this mode, in
// print order.
func (r *result) reported() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	for _, d := range r.reported() {
		m := r.Metrics[d.name]
		line := fmt.Sprintf("%-34s %14.6g %s", d.name, m.Value, m.Unit)
		if p, ok := r.Pctls[d.name]; ok && p.Refused != "" {
			line = fmt.Sprintf("%-34s %14s %s  (refused: %s)", d.name, "-", m.Unit, p.Refused)
		} else if ok {
			line += fmt.Sprintf("  (n=%d, %d beyond)", p.Samples, p.Beyond)
		}
		fmt.Fprintln(w, line)
	}
	if !r.Trace {
		fmt.Fprintf(w, "%-34s %14.6g %s  (%d failed of %d attempted)\n", "error_rate", r.ErrorRate.Value, r.ErrorRate.Unit, r.Failed, r.Attempted)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "check %-66s %s\n", c.Name, status)
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, d := range r.reported() {
		if !d.printOnly {
			line.Metrics[d.name] = r.Metrics[d.name]
		}
	}
	b, _ := json.Marshal(line) // plain floats and strings: cannot fail
	fmt.Fprintln(w, string(b))
}

// save writes the run record (and, traced, the spans) under dir.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, trace))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if r.spans != nil {
		return r.spans.write(base + ".spans.jsonl")
	}
	return nil
}

// provenance records where the numbers came from: the host's CPUs,
// the scheduler width, the toolchain, and the source that was built.
func provenance(root string) map[string]any {
	p := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	p["git_commit"] = "unavailable (not a git checkout)"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			p["git_commit"] = strings.TrimSpace(string(out))
		}
	}
	if sum, err := sourceDigest(root); err == nil {
		p["source_sha256"] = sum
	}
	return p
}

// sourceDigest hashes every Go source and module file under root, so a
// run outside a git checkout can still be tied to the code it built.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}
