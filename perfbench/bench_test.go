package main

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	colab "colab"
	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/policy"
	"colab/internal/workload"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := tail(c.n); got != c.want {
			t.Errorf("tail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileHarrellDavis(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := percentile(xs, 50); math.Abs(got-3) > 1e-12 {
		t.Errorf("median of a symmetric sample = %g, want 3", got)
	}
	p75, p95 := percentile(xs, 75), percentile(xs, 95)
	if !(3 < p75 && p75 < p95 && p95 < 5) {
		t.Errorf("p75 %g and p95 %g not increasing inside (3, 5)", p75, p95)
	}
	if got := percentile([]float64{7, 7, 7}, 95); math.Abs(got-7) > 1e-12 {
		t.Errorf("p95 of a constant sample = %g, want 7", got)
	}
	// Against a known value: uniform ranks 1..1000 put p95 near 950.5.
	var u []float64
	for i := 1; i <= 1000; i++ {
		u = append(u, float64(i))
	}
	if got := percentile(u, 95); math.Abs(got-950.5) > 0.5 {
		t.Errorf("p95 of 1..1000 = %g, want about 950.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMetricNamesAndCounts(t *testing.T) {
	if len(endToEnd) > maxEndToEnd || len(perLayer) > maxPerLayer {
		t.Fatalf("%d end-to-end and %d per-layer metrics, limits %d and %d", len(endToEnd), len(perLayer), maxEndToEnd, maxPerLayer)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricNameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer %s has a bound", d.Name)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric lists
// the benchmark prints in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%v\n%v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer")
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

// hideGovernor exposes only kernel.Scheduler: the way a careless decorator
// would hide a wrapped policy's DVFS governor from the kernel.
type hideGovernor struct{ kernel.Scheduler }

func runOn(t *testing.T, cfg cpu.Config, wrap func(kernel.Scheduler) kernel.Scheduler) *kernel.Result {
	t.Helper()
	spec, err := workload.ResolveSpec("Sync-1")
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := policy.New(policy.COLABDVFS, policy.Context{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(cfg, wrap(s), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDecoratorKeepsDVFSGovernor checks that the timing decorator is a
// DVFS governor exactly when the wrapped policy is, and that a decorated
// colab-dvfs run on 2B2M2S returns the same Result as an undecorated one.
func TestDecoratorKeepsDVFSGovernor(t *testing.T) {
	for _, name := range []string{policy.Linux, policy.COLAB, policy.COLABDVFS, policy.EAS} {
		s, err := policy.New(name, policy.Context{})
		if err != nil {
			t.Fatal(err)
		}
		_, inner := s.(kernel.DVFSGovernor)
		_, outer := timed(s, &hookStats{}).(kernel.DVFSGovernor)
		if inner != outer {
			t.Errorf("%s: policy governs DVFS %v, decorator %v", name, inner, outer)
		}
	}
	st := &hookStats{}
	plain := runOn(t, cpu.Config2B2M2S, func(s kernel.Scheduler) kernel.Scheduler { return s })
	traced := runOn(t, cpu.Config2B2M2S, func(s kernel.Scheduler) kernel.Scheduler { return timed(s, st) })
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("decorated colab-dvfs result differs from the undecorated one")
	}
	if st.oppCalls == 0 || st.pickCalls == 0 || st.enqCalls == 0 {
		t.Errorf("decorator saw %d SelectOPP, %d PickNext, %d Enqueue calls", st.oppCalls, st.pickCalls, st.enqCalls)
	}
	// The comparison can fail: hiding the governor changes the run.
	hidden := runOn(t, cpu.Config2B2M2S, func(s kernel.Scheduler) kernel.Scheduler { return hideGovernor{s} })
	if reflect.DeepEqual(plain, hidden) {
		t.Errorf("an ungoverned colab-dvfs run matches the governed one; the check above proves nothing")
	}
}

// TestReplayMatchesExperiment checks that the traced replay reproduces
// colab.Experiment's scores bit for bit, closed and open workloads alike.
func TestReplayMatchesExperiment(t *testing.T) {
	model, err := train(1, new([]float64))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Sync-1", "batch-backfill", "ferret:2*3@arrive=poisson(4ms)"}
	cfgs := []colab.Config{colab.Config2B2S, colab.Config2B2M2S}
	pols := []string{policy.Linux, policy.COLAB, policy.GTS}
	res, err := colab.NewExperiment(colab.WithWorkloads(names...), colab.WithMachines(cfgs...),
		colab.WithPolicies(pols...), colab.WithSeeds(2), colab.WithSpeedupModel(model)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]replayCell, len(res.Cells))
	for i, c := range res.Cells {
		cfg, _ := cpu.ConfigByName(c.Run.Machine)
		plan[i] = replayCell{c.Run.Workload, cfg, c.Run.Policy, c.Run.Seed}
	}
	rp := &replayer{pctx: policy.Context{Speedup: model.ThreadPredictor()}, origin: time.Now()}
	scores, tot, err := rp.replay(context.Background(), plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bad := mismatches(res.Cells, scores); bad != 0 {
		t.Errorf("%d of %d replayed cells differ from the experiment", bad, len(plan))
	}
	if tot.cells != len(plan) || tot.mixRuns != 2*len(plan) || tot.baselineRuns == 0 || tot.events == 0 {
		t.Errorf("replay totals: %d cells, %d mix runs, %d baselines, %d events", tot.cells, tot.mixRuns, tot.baselineRuns, tot.events)
	}
}

// TestParseTopSumsFlatTime reads `go tool pprof -top -unit=ms` rows and
// attributes them to packages.
func TestParseTopSumsFlatTime(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Duration: 1s, Total samples = 620ms (61.80%)
Showing nodes accounting for 620ms, 100% of 620ms total
      flat  flat%   sum%        cum   cum%
     400ms 64.52% 64.52%      400ms 64.52%  colab/internal/sim.(*Engine).Step
     100ms 16.13% 80.65%      100ms 16.13%  colab/internal/sched/colab.(*Scheduler).PickNext (inline)
      60ms  9.68% 90.32%       60ms  9.68%  runtime.mallocgc
      60ms  9.68%   100%       60ms  9.68%  sort.Float64s
         0     0%   100%      620ms   100%  main.main
`)
	flat, total, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if total != 620 || flat["colab/internal/sched/colab.(*Scheduler).PickNext"] != 100 {
		t.Fatalf("parsed %v, total %g", flat, total)
	}
	got := packageShares(flat, total)
	for name, want := range map[string]float64{"profile.share.sim": 400.0 / 620, "profile.share.sched": 100.0 / 620,
		"profile.share.runtime": 60.0 / 620, "profile.share.kernel": 0} {
		if math.Abs(got[name]-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
	if _, _, err := parseTop([]byte("      flat  flat%\n 12 bad\n")); err == nil {
		t.Error("a malformed row parsed")
	}
}
