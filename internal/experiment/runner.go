// Package experiment is the evaluation harness: it reproduces the paper's
// 312-simulation matrix (26 Table 4 workloads x 4 hardware configs x 3
// schedulers, each averaged over big-first and little-first core orders),
// the Figure 4 single-program study, the Figure 8/9 regroupings, and the
// design-choice ablations.
package experiment

import (
	"context"
	"fmt"
	"sync"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/metrics"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// Scheduler kinds the harness can instantiate: aliases of the registry's
// built-in policy names (internal/policy), kept so existing call sites read
// naturally. Custom registered policies work everywhere these do.
const (
	SchedLinux = policy.Linux
	SchedWASH  = policy.WASH
	SchedCOLAB = policy.COLAB
	SchedGTS   = policy.GTS
	SchedEAS   = policy.EAS
	// SchedCOLABDVFS is COLAB with its native DVFS governor and per-tier
	// trained speedup models (tri-gear extension; identical to SchedCOLAB
	// on fixed-frequency machines apart from the per-tier predictions).
	SchedCOLABDVFS = policy.COLABDVFS
	// Ablation variants of COLAB (DESIGN.md §4).
	SchedCOLABNoScale = policy.COLABNoScale // scale-slice fairness off
	SchedCOLABLocal   = policy.COLABLocal   // biased-global selector off
	SchedCOLABFlat    = policy.COLABFlat    // hierarchical allocator off
	SchedCOLABNoPull  = policy.COLABNoPull  // big-pulls-little off
	SchedCOLABOracle  = policy.COLABOracle  // ground-truth speedup predictor
)

// PaperSchedulers are the three schedulers of the paper's evaluation.
func PaperSchedulers() []string { return []string{SchedLinux, SchedWASH, SchedCOLAB} }

// AblationSchedulers are the extension comparison points.
func AblationSchedulers() []string {
	return []string{SchedCOLAB, SchedCOLABNoScale, SchedCOLABLocal, SchedCOLABFlat, SchedCOLABNoPull, SchedCOLABOracle, SchedGTS, SchedEAS}
}

// Runner executes and memoises simulations. It is safe for concurrent use.
// Every matrix-shaped entry point, down to a single ScenarioScore, is one
// Batch run on the runner's cell Cache, and every simulation it runs goes
// through simulate.
type Runner struct {
	// Speedup is the online predictor given to the AMP-aware schedulers.
	// Defaults to the lazily trained standard model.
	Speedup func(*task.Thread) float64
	// TierSpeedup is the per-tier predictor SchedCOLABDVFS uses. When nil,
	// the lazily trained tri-gear tiered model (perfmodel.DefaultTriGear)
	// is substituted on first use.
	TierSpeedup func(*task.Thread, int) float64
	// TierSpeedupTiers is the palette TierSpeedup was trained for; policies
	// use it to disable per-tier predictions on machines the model does not
	// cover instead of mispredicting through wrong tier indices.
	TierSpeedupTiers []cpu.Tier
	// Seed drives workload generation. Two core orders of the same seed
	// form one experiment.
	Seed uint64
	// Params forwards kernel costs.
	Params kernel.Params
	// Workers bounds run parallelism (0 = GOMAXPROCS).
	Workers int

	mu        sync.Mutex
	baselines map[string]sim.Time
	cache     *Cache
}

// NewRunner returns a Runner using the standard trained speedup model.
func NewRunner(seed uint64) (*Runner, error) {
	model, err := perfmodel.Default()
	if err != nil {
		return nil, fmt.Errorf("experiment: training default speedup model: %w", err)
	}
	return &Runner{
		Speedup:   model.ThreadPredictor(),
		Seed:      seed,
		baselines: make(map[string]sim.Time),
		cache:     NewCache(),
	}, nil
}

// NewScheduler instantiates a policy by kind through the registry, wiring
// in the runner's speedup predictors. Unknown kinds error with the full
// registered-policy list.
func (r *Runner) NewScheduler(kind string) (kernel.Scheduler, error) {
	return policy.New(kind, policy.Context{
		Speedup:          r.Speedup,
		TierSpeedup:      r.TierSpeedup,
		TierSpeedupTiers: r.TierSpeedupTiers,
	})
}

// batch returns the specs x cfgs x kinds sweep at the runner's seed, run
// by the runner itself on its cell cache.
func (r *Runner) batch(specs []workload.Spec, cfgs []cpu.Config, kinds []string) *Batch {
	return &Batch{
		Scenarios:        specs,
		Configs:          cfgs,
		Policies:         kinds,
		Seeds:            []uint64{r.Seed},
		Params:           r.Params,
		Workers:          r.Workers,
		Speedup:          r.Speedup,
		TierSpeedup:      r.TierSpeedup,
		TierSpeedupTiers: r.TierSpeedupTiers,
		Cache:            r.cache,
		runners:          map[uint64]*Runner{r.Seed: r},
	}
}

// simulate is the package's one way to run a simulation: w on the machine
// layout under sched — a registry kind (string) or a ready
// kernel.Scheduler — honouring ctx, with every scheduling event handed to a
// non-nil tracer.
func (r *Runner) simulate(ctx context.Context, layout cpu.Config, sched any, w *task.Workload, tracer func(kernel.TraceEvent)) (*kernel.Result, error) {
	s, ok := sched.(kernel.Scheduler)
	if !ok {
		var err error
		if s, err = r.NewScheduler(sched.(string)); err != nil {
			return nil, err
		}
	}
	m, err := kernel.NewMachine(layout, s, w, r.Params)
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		m.SetTracer(tracer)
	}
	return m.RunContext(ctx)
}

// ---------------------------------------------------------------------------
// Baselines: each app of a scenario alone on the all-big variant.

// specAlone rebuilds the scenario and isolates app appIdx, preserving the
// exact thread programs/profiles the app has inside the mix. The isolated
// app runs closed (arrival cleared): the baseline is the app alone with
// the machine to itself from time zero, which open-system turnarounds —
// measured from each app's own arrival — are compared against.
func specAlone(spec workload.Spec, appIdx int, seed uint64) (*task.Workload, error) {
	// The closed build strips arrival shaping without touching program
	// content (machine-dependent load generators like util need no
	// capacity here), so the isolated app runs the mix's exact programs.
	w, err := spec.Closed().Build(seed)
	if err != nil {
		return nil, err
	}
	if appIdx < 0 || appIdx >= len(w.Apps) {
		return nil, fmt.Errorf("experiment: app index %d out of range for %s", appIdx, spec.Name)
	}
	app := w.Apps[appIdx]
	app.Arrival = 0
	return &task.Workload{Name: spec.Name + "/" + app.Name, Apps: []*task.App{app}}, nil
}

// alone returns the turnaround of the one app build returns, run alone
// under Linux on an all-big machine of the given core count, memoised under
// key.
func (r *Runner) alone(ctx context.Context, key string, cores int, build func() (*task.Workload, error)) (sim.Time, error) {
	r.mu.Lock()
	v, ok := r.baselines[key]
	r.mu.Unlock()
	if ok {
		return v, nil
	}
	w, err := build()
	if err != nil {
		return 0, err
	}
	res, err := r.simulate(ctx, cpu.NewSymmetric(cpu.Big, cores), SchedLinux, w, nil)
	if err != nil {
		return 0, err
	}
	v = res.Apps[0].Turnaround
	r.mu.Lock()
	r.baselines[key] = v
	r.mu.Unlock()
	return v, nil
}

// bases returns the big-only-alone turnaround of every app of spec on a
// machine of the given core count. Each is memoised under its BaselineKey —
// the CellKey of the baseline run itself, so arrival variants of one mix
// share their baselines and every shard derives the same key independently.
func (r *Runner) bases(ctx context.Context, spec workload.Spec, cores int) ([]sim.Time, error) {
	out := make([]sim.Time, spec.NumApps())
	for i := range out {
		b, err := r.alone(ctx, BaselineKey(spec, i, cores, r.Seed, r.Params), cores,
			func() (*task.Workload, error) { return specAlone(spec, i, r.Seed) })
		if err != nil {
			return nil, fmt.Errorf("experiment: baseline %s app %d: %w", spec.Name, i, err)
		}
		out[i] = b
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Mix experiments.

// ScenarioScore returns the auto-baselined H_ANTT / H_STP of one
// (scenario, config, scheduler) cell, averaged over the two core orders,
// memoised in the runner's cell Cache. Open-system scenarios score each app's
// turnaround from its own arrival time.
func (r *Runner) ScenarioScore(ctx context.Context, spec workload.Spec, cfg cpu.Config, kind string) (metrics.MixScore, error) {
	cells, err := r.batch([]workload.Spec{spec}, []cpu.Config{cfg}, []string{kind}).Run(ctx)
	if err != nil {
		return metrics.MixScore{}, err
	}
	return cells[0].Score, nil
}

// BaselineKey is the content address of one big-only-alone baseline: the
// CellKey of the closed scenario under linux on the symmetric big machine,
// suffixed with the app index. Cells of different grammar spellings (and
// of different arrival variants) of one scenario resolve to the same
// baseline keys, which is what lets shards and the serve cache dedup the
// shared baseline work.
func BaselineKey(spec workload.Spec, appIdx, cores int, seed uint64, params kernel.Params) string {
	k := NewCellKey(spec.Closed(), SchedLinux, cpu.NewSymmetric(cpu.Big, cores), seed, params)
	return fmt.Sprintf("%s|app=%d", k, appIdx)
}

// specScore simulates one cell: both core orders, scored against the
// (cached) big-only-alone baselines. It keeps no memo of its own — Batch.Run
// consults the journal and the cell Cache before calling it. A non-nil
// tracer receives every scheduling event of the two mix runs (baseline runs
// are not traced).
func (r *Runner) specScore(ctx context.Context, spec workload.Spec, cfg cpu.Config, kind string, tracer func(bigFirst bool, ev kernel.TraceEvent)) (metrics.MixScore, error) {
	bases, err := r.bases(ctx, spec, cfg.NumCores())
	if err != nil {
		return metrics.MixScore{}, err
	}
	var total metrics.MixScore
	orders := []bool{true, false} // big-first, little-first (§5.1)
	for _, bigFirst := range orders {
		variant := cfg.Ordered(bigFirst)
		w, err := spec.BuildFor(r.Seed, variant.AggregateCapacity())
		if err != nil {
			return metrics.MixScore{}, err
		}
		var tr func(kernel.TraceEvent)
		if tracer != nil {
			bf := bigFirst
			tr = func(ev kernel.TraceEvent) { tracer(bf, ev) }
		}
		res, err := r.simulate(ctx, variant, kind, w, tr)
		if err != nil {
			return metrics.MixScore{}, fmt.Errorf("experiment: %s on %s under %s: %w", spec.Name, variant.Name, kind, err)
		}
		score, err := metrics.Score(res, func(i int, _ kernel.AppResult) sim.Time { return bases[i] })
		if err != nil {
			return metrics.MixScore{}, err
		}
		total.HANTT += score.HANTT / float64(len(orders))
		total.HSTP += score.HSTP / float64(len(orders))
	}
	return total, nil
}

// Cell is one (workload, config, scheduler) outcome normalised to Linux.
type Cell struct {
	Workload string
	Class    workload.Class
	Config   string
	Sched    string
	Raw      metrics.MixScore
	Norm     metrics.MixScore // relative to Linux on the same workload+config
}

// ScenarioMatrix evaluates the given scenario specs x configs x
// schedulers as one Batch run and returns one Cell per combination, in
// cross-product order, with Cell.Workload the scenario name and Cell.Class
// its @class= label. Linux joins the run as the normalisation reference;
// Linux cells carry Norm = {1, 1}.
func (r *Runner) ScenarioMatrix(ctx context.Context, specs []workload.Spec, cfgs []cpu.Config, kinds []string) ([]Cell, error) {
	all := []string{SchedLinux}
	at := map[string]int{SchedLinux: 0}
	for _, k := range kinds {
		if _, ok := at[k]; !ok {
			at[k] = len(all)
			all = append(all, k)
		}
	}
	res, err := r.batch(specs, cfgs, all).Run(ctx)
	if err != nil {
		return nil, err
	}
	// res is in cross-product order, policies innermost: each run of
	// len(all) cells is one (spec, config) row, Linux first.
	var cells []Cell
	for n := 0; n < len(res); n += len(all) {
		row := res[n : n+len(all)]
		spec := specs[n/len(all)/len(cfgs)]
		for _, k := range kinds {
			raw := row[at[k]].Score
			cells = append(cells, Cell{
				Workload: spec.Name,
				Class:    spec.Class,
				Config:   row[0].Key.Config,
				Sched:    k,
				Raw:      raw,
				Norm:     metrics.Normalized(raw, row[0].Score),
			})
		}
	}
	return cells, nil
}

// RunMatrix is ScenarioMatrix for Table 4 compositions, with Cell.Class
// the composition's class.
func (r *Runner) RunMatrix(ctx context.Context, comps []workload.Composition, cfgs []cpu.Config, kinds []string) ([]Cell, error) {
	specs := make([]workload.Spec, len(comps))
	for i, c := range comps {
		specs[i] = c.Spec()
	}
	cells, err := r.ScenarioMatrix(ctx, specs, cfgs, kinds)
	if err != nil {
		return nil, err
	}
	// Composition.Spec carries no @class= label: the label is part of the
	// canonical form, so adding it would change every cell's CellKey.
	for i := range cells {
		cells[i].Class = comps[i/(len(cfgs)*len(kinds))].Class
	}
	return cells, nil
}

// ---------------------------------------------------------------------------
// Single-program experiments (Figure 4).

// SingleScore is one benchmark's H_NTT under one scheduler.
type SingleScore struct {
	Bench string
	Sched string
	HNTT  float64
}

// SingleProgram evaluates one benchmark alone on cfg under kind, averaged
// over core orders, returning H_NTT.
func (r *Runner) SingleProgram(ctx context.Context, bench string, threads int, cfg cpu.Config, kind string) (SingleScore, error) {
	build := func() (*task.Workload, error) { return workload.SingleProgram(bench, threads, r.Seed) }
	n := cfg.NumCores()
	base, err := r.alone(ctx, fmt.Sprintf("single|%s|%d|%d|%d", bench, threads, n, r.Seed), n, build)
	if err != nil {
		return SingleScore{}, err
	}
	var hntt float64
	orders := []bool{true, false}
	for _, bigFirst := range orders {
		variant := cfg.Ordered(bigFirst)
		w, err := build()
		if err != nil {
			return SingleScore{}, err
		}
		res, err := r.simulate(ctx, variant, kind, w, nil)
		if err != nil {
			return SingleScore{}, fmt.Errorf("experiment: single %s on %s under %s: %w", bench, variant.Name, kind, err)
		}
		hntt += metrics.HNTT(res.Apps[0].Turnaround, base) / float64(len(orders))
	}
	return SingleScore{Bench: bench, Sched: kind, HNTT: hntt}, nil
}
