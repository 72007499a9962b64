package main

import "regexp"

// metricDef is one metric as BENCHMARK.json declares it. Bound is zero for
// per-layer metrics, which have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names; workloadNames are in BENCHMARK.json's order.
const (
	wlPaperSweep = "paper-sweep"
	wlBigMachine = "big-machine"
)

var workloadNames = []string{wlPaperSweep, wlBigMachine}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"cells_per_s", "1/s", "higher", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p95_ms", "ms", "lower", 0.25},
	{"served_cells_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// tracedPolicies are the policies whose scheduler hooks get named
// per-layer metrics; machines are the shapes with a per-machine PickNext
// cost (the paper's four and the two big machines).
var (
	tracedPolicies = []string{"linux", "wash", "colab"}
	tracedMachines = []string{"2B2S", "2B4S", "4B2S", "4B4S", "32B32M64S", "2x32B32M64S"}
)

// profilePackages maps a profile.share.* suffix to the package path
// prefixes whose flat CPU samples it sums.
var profilePackages = []struct {
	name     string
	prefixes []string
}{
	{"sim", []string{"colab/internal/sim."}},
	{"kernel", []string{"colab/internal/kernel."}},
	{"cpu", []string{"colab/internal/cpu."}},
	{"task", []string{"colab/internal/task."}},
	{"sched", []string{"colab/internal/sched/"}},
	{"runtime", []string{"runtime.", "runtime/", "internal/runtime/"}},
}

// perLayer are the metrics a traced run prints, for every workload; a
// layer a workload does not exercise reports zero.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{Name: "experiment.cells", Unit: "count", Better: "higher"},
		{Name: "experiment.mix_runs", Unit: "count", Better: "lower"},
		{Name: "experiment.baseline_runs", Unit: "count", Better: "lower"},
		{Name: "experiment.baseline_share", Unit: "ratio", Better: "lower"},
		{Name: "experiment.journal_records", Unit: "count", Better: "higher"},
		{Name: "experiment.journal_record_s", Unit: "s", Better: "lower"},
		{Name: "workload.builds", Unit: "count", Better: "lower"},
		{Name: "workload.build_s", Unit: "s", Better: "lower"},
		{Name: "workload.build_share", Unit: "ratio", Better: "lower"},
		{Name: "kernel.runs", Unit: "count", Better: "lower"},
		{Name: "kernel.setup_s", Unit: "s", Better: "lower"},
		{Name: "kernel.run_s", Unit: "s", Better: "lower"},
		{Name: "kernel.self_s", Unit: "s", Better: "lower"},
		{Name: "kernel.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "kernel.dispatches", Unit: "count", Better: "lower"},
		{Name: "kernel.migrations", Unit: "count", Better: "lower"},
		{Name: "kernel.preemptions", Unit: "count", Better: "lower"},
		{Name: "kernel.cross_domain_hops", Unit: "count", Better: "lower"},
	}
	for _, p := range profilePackages {
		d = append(d, metricDef{Name: "profile.share." + p.name, Unit: "ratio", Better: "lower"})
	}
	for _, p := range tracedPolicies {
		pre := "sched." + p + "."
		d = append(d,
			metricDef{Name: pre + "picknext_calls", Unit: "count", Better: "lower"},
			metricDef{Name: pre + "picknext_ns", Unit: "ns", Better: "lower"})
		for _, m := range tracedMachines {
			d = append(d, metricDef{Name: pre + "picknext_ns." + m, Unit: "ns", Better: "lower"})
		}
		d = append(d,
			metricDef{Name: pre + "enqueue_calls", Unit: "count", Better: "lower"},
			metricDef{Name: pre + "enqueue_ns", Unit: "ns", Better: "lower"},
			metricDef{Name: pre + "wakeup_preempt_ns", Unit: "ns", Better: "lower"},
			metricDef{Name: pre + "hook_share", Unit: "ratio", Better: "lower"},
			metricDef{Name: pre + "idle_pick_ratio", Unit: "ratio", Better: "lower"})
	}
	return append(d,
		metricDef{Name: "sched.colab.pull_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "runtime.allocs_per_event", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "perfmodel.train_s", Unit: "s", Better: "lower"},
		metricDef{Name: "serve.requests", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.cells", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.rejected", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.seed_invariant_share", Unit: "ratio", Better: "higher"},
		metricDef{Name: "serve.miss_cell_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.hit_req_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.stream_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	)
}

// Limits BENCHMARK.json must respect.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
