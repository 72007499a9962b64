package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/kernel"
	"colab/internal/metrics"
	"colab/internal/policy"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// span is one timed call into a layer, made from the benchmark's own code.
// Spans of one cell share its plan index; Parent names the enclosing span.
type span struct {
	Pass   int    `json:"pass"`
	Cell   int    `json:"cell"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// replayCell is one cell to replay: its sweep coordinates.
type replayCell struct {
	workload string
	cfg      cpu.Config
	policy   string
	seed     uint64
}

// layerTotals are the per-layer counts and times of one or more traced
// passes. Times are summed over workers.
type layerTotals struct {
	cells, mixRuns, baselineRuns, builds, journalRecords, kernelRuns int
	cellNS, baselineNS, buildNS, setupNS, runNS, journalNS           int64
	events, dispatches, migrations, preemptions, hops                uint64
	hooks                                                            map[string]*hookStats // by policy
	runNSByPolicy                                                    map[string]int64
	pickByMachine                                                    map[string]*hookStats // by policy|machine, mix runs only
	spans                                                            []span
}

func newLayerTotals() *layerTotals {
	return &layerTotals{
		hooks:         make(map[string]*hookStats),
		runNSByPolicy: make(map[string]int64),
		pickByMachine: make(map[string]*hookStats),
	}
}

func (l *layerTotals) merge(o *layerTotals) {
	l.cells += o.cells
	l.mixRuns += o.mixRuns
	l.baselineRuns += o.baselineRuns
	l.builds += o.builds
	l.journalRecords += o.journalRecords
	l.kernelRuns += o.kernelRuns
	l.cellNS += o.cellNS
	l.baselineNS += o.baselineNS
	l.buildNS += o.buildNS
	l.setupNS += o.setupNS
	l.runNS += o.runNS
	l.journalNS += o.journalNS
	l.events += o.events
	l.dispatches += o.dispatches
	l.migrations += o.migrations
	l.preemptions += o.preemptions
	l.hops += o.hops
	for k, v := range o.hooks {
		hookEntry(l.hooks, k).add(*v)
	}
	for k, v := range o.runNSByPolicy {
		l.runNSByPolicy[k] += v
	}
	for k, v := range o.pickByMachine {
		hookEntry(l.pickByMachine, k).add(*v)
	}
	l.spans = append(l.spans, o.spans...)
}

func hookEntry(m map[string]*hookStats, k string) *hookStats {
	h, ok := m[k]
	if !ok {
		h = &hookStats{}
		m[k] = h
	}
	return h
}

// replayer re-executes planned cells the way experiment.Runner does, with
// exported functions only, timing each layer call:
//
//	workload.ResolveSpec -> Spec.Closed().Build per baseline app (memoised
//	by experiment.BaselineKey) -> Spec.BuildFor per core order ->
//	kernel.NewMachine -> Machine.RunContext -> metrics.Score
//
// and appends each cell to a checkpoint journal as the batch does. Every
// scheduler is wrapped in a timing decorator.
type replayer struct {
	pctx    policy.Context
	params  kernel.Params
	journal *experiment.Journal
	origin  time.Time
	pass    int

	mu    sync.Mutex
	bases map[string]*baseEntry
}

// baseEntry is one memoised baseline. The first worker to need it computes
// it; others wait, so the set of baseline runs, and every simulated count,
// is the same on every pass.
type baseEntry struct {
	done chan struct{}
	v    sim.Time
	err  error
}

// replay runs cells over workers goroutines and returns their scores in
// plan order together with the merged layer totals.
func (r *replayer) replay(ctx context.Context, cells []replayCell, workers int) ([]metrics.MixScore, *layerTotals, error) {
	r.bases = make(map[string]*baseEntry)
	scores := make([]metrics.MixScore, len(cells))
	locals := make([]*layerTotals, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		locals[w] = newLayerTotals()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) || ctx.Err() != nil {
					return
				}
				s, err := r.cell(ctx, locals[w], w, i, cells[i])
				if err != nil {
					errs[w] = err
					return
				}
				scores[i] = s
			}
		}(w)
	}
	wg.Wait()
	tot := newLayerTotals()
	for w, l := range locals {
		if errs[w] != nil {
			return nil, nil, errs[w]
		}
		tot.merge(l)
	}
	return scores, tot, nil
}

func (r *replayer) since() int64 { return int64(time.Since(r.origin)) }

func (r *replayer) record(l *layerTotals, w, cell int, name, parent string, start int64) int64 {
	end := r.since()
	l.spans = append(l.spans, span{Pass: r.pass, Cell: cell, Name: name, Parent: parent, Worker: w, Start: start, End: end})
	return end - start
}

// cell replays one cell; it mirrors experiment.Runner.specScore.
func (r *replayer) cell(ctx context.Context, l *layerTotals, w, idx int, c replayCell) (metrics.MixScore, error) {
	cellStart := r.since()
	t := r.since()
	spec, err := workload.ResolveSpec(c.workload)
	r.record(l, w, idx, "workload.resolve", "cell", t)
	if err != nil {
		return metrics.MixScore{}, err
	}
	n := c.cfg.NumCores()
	bases := make([]sim.Time, spec.NumApps())
	for i := range bases {
		if bases[i], err = r.baseline(ctx, l, w, idx, spec, i, n, c.seed); err != nil {
			return metrics.MixScore{}, err
		}
	}
	var total metrics.MixScore
	for _, bigFirst := range []bool{true, false} {
		variant := c.cfg.Ordered(bigFirst)
		t = r.since()
		wl, err := spec.BuildFor(c.seed, variant.AggregateCapacity())
		l.buildNS += r.record(l, w, idx, "workload.build", "cell", t)
		l.builds++
		if err != nil {
			return metrics.MixScore{}, err
		}
		res, err := r.run(ctx, l, w, idx, variant, c.policy, wl, c.cfg.Name, "cell")
		if err != nil {
			return metrics.MixScore{}, err
		}
		l.mixRuns++
		t = r.since()
		score, err := metrics.Score(res, func(i int, _ kernel.AppResult) sim.Time { return bases[i] })
		r.record(l, w, idx, "metrics.score", "cell", t)
		if err != nil {
			return metrics.MixScore{}, err
		}
		total.HANTT += score.HANTT / 2
		total.HSTP += score.HSTP / 2
	}
	if r.journal != nil {
		t = r.since()
		err := r.journal.Record(experiment.NewCellKey(spec, c.policy, c.cfg, c.seed, r.params), total)
		l.journalNS += r.record(l, w, idx, "experiment.journal_record", "cell", t)
		l.journalRecords++
		if err != nil {
			return metrics.MixScore{}, err
		}
	}
	l.cellNS += r.record(l, w, idx, "cell", "", cellStart)
	l.cells++
	return total, nil
}

// baseline returns the big-only-alone turnaround of app i, computing it
// once per experiment.BaselineKey: the app is isolated from a closed build
// of the whole scenario, exactly as the runner does.
func (r *replayer) baseline(ctx context.Context, l *layerTotals, w, idx int, spec workload.Spec, i, n int, seed uint64) (sim.Time, error) {
	key := experiment.BaselineKey(spec, i, n, seed, r.params)
	r.mu.Lock()
	e, ok := r.bases[key]
	if !ok {
		e = &baseEntry{done: make(chan struct{})}
		r.bases[key] = e
	}
	r.mu.Unlock()
	if ok {
		t := r.since()
		<-e.done
		r.record(l, w, idx, "experiment.baseline_wait", "cell", t)
		return e.v, e.err
	}
	defer close(e.done)
	t := r.since()
	e.v, e.err = r.computeBaseline(ctx, l, w, idx, spec, i, n, seed)
	l.baselineNS += r.record(l, w, idx, "experiment.baseline", "cell", t)
	l.baselineRuns++
	return e.v, e.err
}

func (r *replayer) computeBaseline(ctx context.Context, l *layerTotals, w, idx int, spec workload.Spec, i, n int, seed uint64) (sim.Time, error) {
	t := r.since()
	full, err := spec.Closed().Build(seed)
	l.buildNS += r.record(l, w, idx, "workload.build", "experiment.baseline", t)
	l.builds++
	if err != nil {
		return 0, err
	}
	if i >= len(full.Apps) {
		return 0, fmt.Errorf("baseline: app index %d out of range for %s", i, spec.Name)
	}
	app := full.Apps[i]
	app.Arrival = 0
	alone := &task.Workload{Name: spec.Name + "/" + app.Name, Apps: []*task.App{app}}
	res, err := r.run(ctx, l, w, idx, cpu.NewSymmetric(cpu.Big, n), policy.Linux, alone, "", "experiment.baseline")
	if err != nil {
		return 0, fmt.Errorf("baseline %s app %d: %w", spec.Name, i, err)
	}
	return res.Apps[0].Turnaround, nil
}

// run instantiates the policy, builds the machine and runs it, recording
// the kernel counts. machine names the cell's machine for mix runs and is
// empty for baselines.
func (r *replayer) run(ctx context.Context, l *layerTotals, w, idx int, cfg cpu.Config, kind string, wl *task.Workload, machine, parent string) (*kernel.Result, error) {
	t := r.since()
	s, err := policy.New(kind, r.pctx)
	if err != nil {
		return nil, err
	}
	st := &hookStats{}
	m, err := kernel.NewMachine(cfg, timed(s, st), wl, r.params)
	l.setupNS += r.record(l, w, idx, "kernel.setup", parent, t)
	if err != nil {
		return nil, err
	}
	t = r.since()
	res, err := m.RunContext(ctx)
	runNS := r.record(l, w, idx, "kernel.run", parent, t)
	if err != nil {
		return nil, err
	}
	l.runNS += runNS
	l.kernelRuns++
	l.runNSByPolicy[kind] += runNS
	hookEntry(l.hooks, kind).add(*st)
	if machine != "" {
		hookEntry(l.pickByMachine, kind+"|"+machine).add(*st)
	}
	l.events += res.Events
	l.migrations += uint64(res.TotalMigrations)
	l.preemptions += uint64(res.TotalPreemptions)
	for _, c := range res.Cores {
		l.dispatches += uint64(c.Dispatches)
	}
	for _, th := range res.Threads {
		l.hops += uint64(th.CrossDomainHops)
	}
	return res, nil
}

// layerMetrics turns the totals of passes traced passes into per-pass
// per-layer metrics. workers is the replay's parallelism and wall the
// summed wall time of the traced passes.
func layerMetrics(out map[string]float64, l *layerTotals, passes, workers int, wall time.Duration) {
	p := float64(passes)
	sec := func(ns int64) float64 { return float64(ns) / 1e9 / p }
	share := func(ns int64) float64 {
		if l.cellNS == 0 {
			return 0
		}
		return float64(ns) / float64(l.cellNS)
	}
	out["experiment.cells"] = float64(l.cells) / p
	out["experiment.mix_runs"] = float64(l.mixRuns) / p
	out["experiment.baseline_runs"] = float64(l.baselineRuns) / p
	out["experiment.baseline_share"] = share(l.baselineNS)
	out["experiment.journal_records"] = float64(l.journalRecords) / p
	out["experiment.journal_record_s"] = sec(l.journalNS)
	out["workload.builds"] = float64(l.builds) / p
	out["workload.build_s"] = sec(l.buildNS)
	out["workload.build_share"] = share(l.buildNS)
	var hookNS uint64
	for _, h := range l.hooks {
		hookNS += h.totalNS()
	}
	out["kernel.runs"] = float64(l.kernelRuns) / p
	out["kernel.setup_s"] = sec(l.setupNS)
	out["kernel.run_s"] = sec(l.runNS)
	out["kernel.self_s"] = sec(l.runNS - int64(hookNS))
	if l.events > 0 {
		out["kernel.ns_per_event"] = float64(l.runNS) / float64(l.events)
	}
	out["sim.events"] = float64(l.events) / p
	out["kernel.dispatches"] = float64(l.dispatches) / p
	out["kernel.migrations"] = float64(l.migrations) / p
	out["kernel.preemptions"] = float64(l.preemptions) / p
	out["kernel.cross_domain_hops"] = float64(l.hops) / p
	perCall := func(ns, calls uint64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(ns) / float64(calls)
	}
	for _, pol := range tracedPolicies {
		h := hookEntry(l.hooks, pol)
		pre := "sched." + pol + "."
		out[pre+"picknext_calls"] = float64(h.pickCalls) / p
		out[pre+"picknext_ns"] = perCall(h.pickNS, h.pickCalls)
		for _, m := range tracedMachines {
			hm := hookEntry(l.pickByMachine, pol+"|"+m)
			out[pre+"picknext_ns."+m] = perCall(hm.pickNS, hm.pickCalls)
		}
		out[pre+"enqueue_calls"] = float64(h.enqCalls) / p
		out[pre+"enqueue_ns"] = perCall(h.enqNS, h.enqCalls)
		out[pre+"wakeup_preempt_ns"] = perCall(h.wakeNS, h.wakeCalls)
		if run := l.runNSByPolicy[pol]; run > 0 {
			out[pre+"hook_share"] = float64(h.totalNS()) / float64(run)
		}
		out[pre+"idle_pick_ratio"] = perCall(h.pickIdle, h.pickCalls)
	}
	c := hookEntry(l.hooks, policy.COLAB)
	out["sched.colab.pull_ratio"] = perCall(c.pickPull, c.pickCalls-c.pickIdle)
	if wall > 0 {
		out["trace.coverage"] = float64(l.cellNS) / (float64(workers) * float64(wall))
	}
}
