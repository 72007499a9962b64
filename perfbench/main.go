// Command perfbench is the repository's benchmark: it runs one named
// workload through the public Go surfaces and the colab-serve binary,
// checks every result it produces, and prints every end-to-end metric
// (or, with -trace 1, every per-layer metric) by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 45 --trace 0
//
// With -steady N it instead runs the workload N times, one process per
// seed, and prints each metric's median, quartiles and spread against the
// bound BENCHMARK.json gives it. README.md in this directory describes the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string
	serveBin string
	workDir  string
	steady   int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 45, "measurement time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.serveBin, "serve-bin", "", "colab-serve binary")
	fs.StringVar(&o.workDir, "work-dir", "", "scratch directory for journals and traces (default <root>/.bench_build/perfbench)")
	fs.IntVar(&o.steady, "steady", 0, "run the workload this many times with successive seeds and report spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	if o.workDir == "" {
		o.workDir = filepath.Join(o.root, ".bench_build", "perfbench")
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.steady > 0 {
		if err := steady(o, trace, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	r, err := runWorkload(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := r.print(stdout, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, o options) (*result, error) {
	switch o.workload {
	case wlPaperSweep, wlBigMachine:
		b, golden := paperSweep(), true
		if o.workload == wlBigMachine {
			b, golden = bigMachine(), false
		}
		if o.trace {
			return runBatchTraced(ctx, o, b, golden)
		}
		return runBatch(ctx, o, b, golden)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames, ", "))
}

// result is what one run measured and checked.
type result struct {
	metrics   map[string]float64
	notes     map[string]string
	lines     []string
	attempted int
	failed    int
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), notes: make(map[string]string)}
}

func (r *result) set(name string, v float64, note string) {
	r.metrics[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// setLatency sets <prefix>_p50_ms and <prefix>_p95_ms from samples in ms.
// The note records the sample count and the highest percentile with at
// least minBeyond samples beyond it, so an under-sampled p95 shows.
func (r *result) setLatency(prefix string, samples []float64, what string) {
	note := fmt.Sprintf("%s; n=%d, highest percentile with %d beyond: p%g", what, len(samples), minBeyond, tail(len(samples)))
	r.set(prefix+"_p50_ms", median(samples), note)
	r.set(prefix+"_p95_ms", percentile(samples, 95), note)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report and, last, the JSON result with
// exactly the metrics of defs. Per-layer metrics a workload does not
// exercise read zero; an end-to-end metric must be measured.
func (r *result) print(w io.Writer, defs []metricDef) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	out := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric, len(defs))}
	finite := true
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && d.Bound > 0 {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A metric with no samples, or a zero divisor, cannot be
			// reported; the run is reported as incorrect.
			r.notes[d.Name] = fmt.Sprintf("%v, reported as 0: not measurable", v)
			v, finite = 0, false
		}
		out.Metrics[d.Name] = jsonMetric{v, d.Unit}
		fmt.Fprintf(w, "%-36s %16s %-6s %s\n", d.Name, strconv.FormatFloat(v, 'g', 6, 64), d.Unit, r.notes[d.Name])
	}
	out.Correct = r.failed == 0 && r.attempted > 0 && finite
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

// rssEvery is how often sampleRSS reads the resident set size.
const rssEvery = 2 * time.Millisecond

// sampleRSS reads this process's resident set size from /proc/self/statm
// every rssEvery until stop is called. stop waits for the sampler to end
// and returns the highest size it read, in MB.
func sampleRSS() (stop func() (float64, error)) {
	done := make(chan struct{})
	out := make(chan error, 1)
	var peak int
	read := func() error {
		data, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			return err
		}
		f := strings.Fields(string(data))
		if len(f) < 2 {
			return fmt.Errorf("/proc/self/statm: %q", data)
		}
		pages, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("/proc/self/statm: %w", err)
		}
		peak = max(peak, pages)
		return nil
	}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if err := read(); err != nil {
				out <- err
				return
			}
			select {
			case <-done:
				out <- read()
				return
			case <-t.C:
			}
		}
	}()
	return func() (float64, error) {
		close(done)
		err := <-out
		return float64(peak*os.Getpagesize()) / (1 << 20), err
	}
}

// writeSpans writes a traced run's spans, held in memory until now, as one
// JSON file in the work directory.
func writeSpans(o options, spans []span) error {
	path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	b, err := json.Marshal(map[string]any{"workload": o.workload, "seed": o.seed, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
