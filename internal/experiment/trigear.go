package experiment

import (
	"context"
	"fmt"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/metrics"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// TriGearWorkloads are the representative per-class compositions the
// tri-gear extension table evaluates (one per Table 4 class).
func TriGearWorkloads() []string {
	return []string{"Sync-2", "NSync-2", "Comm-2", "Comp-2", "Rand-7"}
}

// TriGearSchedulers are the policies the tri-gear table compares: the five
// PR-1 policies plus COLAB with its native DVFS governor and per-tier
// trained speedup models.
func TriGearSchedulers() []string {
	return []string{SchedLinux, SchedWASH, SchedCOLAB, SchedCOLABDVFS, SchedGTS, SchedEAS}
}

// nominalResidency is the fraction of machine busy time spent at the
// nominal (top) operating point — 1.0 for any fixed-frequency policy, lower
// the more a DVFS governor caps cores.
func nominalResidency(res *kernel.Result) float64 {
	var busy, nom sim.Time
	for _, c := range res.Cores {
		for i, b := range c.BusyByOPP {
			busy += b
			if i == len(c.BusyByOPP)-1 {
				nom += b
			}
		}
	}
	if busy == 0 {
		return 1
	}
	return float64(nom) / float64(busy)
}

// TriGearTable is the multi-tier extension study: the six TriGearSchedulers
// (the five PR-1 policies plus COLAB with its native DVFS governor) on the
// 2B2M2S DynamIQ-style machine (two big, two medium, two little cores,
// every tier with a DVFS ladder). H_ANTT / H_STP come from one
// ScenarioMatrix run, averaged over the two core orders and normalised to
// Linux like the paper tables; the energy, EDP and frequency-residency
// columns come from one extra big-first run per cell and exercise the
// per-OPP power model (EAS and colab-dvfs program the ladders; every other
// policy runs fixed at nominal).
func (r *Runner) TriGearTable(ctx context.Context) (*Table, error) {
	cfg := cpu.Config2B2M2S
	kinds := TriGearSchedulers()
	t := &Table{
		Title:  fmt.Sprintf("Tri-gear extension: policies on %s (normalised to Linux)", cfg.Name),
		Header: []string{"sched", "H_ANTT", "H_STP", "energy", "EDP", "f@nom"},
	}
	var comps []workload.Composition
	for _, idx := range TriGearWorkloads() {
		comp, ok := workload.CompositionByIndex(idx)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown workload %s", idx)
		}
		comps = append(comps, comp)
	}
	cells, err := r.RunMatrix(ctx, comps, []cpu.Config{cfg}, kinds)
	if err != nil {
		return nil, err
	}
	perSched := map[string]struct {
		antt, stp, e, edp, fnom []float64
	}{}
	// cells hold one row of kinds per workload; kinds lead with Linux, so
	// each row's energy reference is set before any other policy reads it.
	var ref [2]float64 // Linux {energy, EDP} of the current workload
	for i, c := range cells {
		comp := comps[i/len(kinds)]
		w, err := comp.Build(r.Seed)
		if err != nil {
			return nil, err
		}
		res, err := r.simulate(ctx, cfg.Ordered(true), c.Sched, w, nil)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s on %s under %s: %w", comp.Index, cfg.Name, c.Sched, err)
		}
		e, edp := res.TotalEnergyJ(), res.EnergyDelayProduct()
		if c.Sched == SchedLinux {
			if e <= 0 || edp <= 0 {
				return nil, fmt.Errorf("experiment: missing linux energy reference for %s", comp.Index)
			}
			ref = [2]float64{e, edp}
		}
		agg := perSched[c.Sched]
		agg.antt = append(agg.antt, c.Norm.HANTT)
		agg.stp = append(agg.stp, c.Norm.HSTP)
		agg.e = append(agg.e, e/ref[0])
		agg.edp = append(agg.edp, edp/ref[1])
		agg.fnom = append(agg.fnom, nominalResidency(res))
		perSched[c.Sched] = agg
	}
	for _, kind := range kinds {
		agg := perSched[kind]
		t.AddRow(kind,
			f3(mathx.GeoMean(agg.antt)), f3(mathx.GeoMean(agg.stp)),
			f3(mathx.GeoMean(agg.e)), f3(mathx.GeoMean(agg.edp)),
			f3(mathx.Mean(agg.fnom)))
	}
	t.Notes = append(t.Notes,
		"machine: 2 big (A57-like, OPPs 1.2/1.6/2.0 GHz) + 2 medium (A72-like, 1.0/1.3/1.6 GHz) + 2 little (A53-like, 0.6/0.9/1.2 GHz)",
		"geomean over one representative workload per class; H_ANTT/energy/EDP lower is better, H_STP higher is better",
		"f@nom: fraction of busy time at the nominal operating point (mean over workloads; 1.0 = fixed frequency)",
		"colab-dvfs: COLAB's native label-driven governor with per-tier trained speedup models",
		"the paper evaluates two-tier machines only; this table is the multi-tier extension")
	return t, nil
}

// ---------------------------------------------------------------------------
// OPP sweep: the frequency-scaling scenario.

// fixedOPPSched pins every DVFS-capable core at one ladder index (clamped
// per core), turning any policy into its fixed-frequency variant at an
// arbitrary operating point.
type fixedOPPSched struct {
	kernel.Scheduler
	idx int
}

// SelectOPP implements kernel.DVFSGovernor.
func (f fixedOPPSched) SelectOPP(*kernel.Core, *task.Thread) int { return f.idx }

// OPPSweepTable sweeps the tri-gear machine's frequency ladders under
// COLAB: every core pinned at ladder step 0, 1, ... up to nominal, plus the
// native governor. Scores are normalised to the nominal (fixed-frequency)
// run; energy is absolute joules. The sweep quantifies what the governor is
// trading: pinning low saves energy but stretches turnaround, the governor
// recovers the turnaround while keeping most of the savings.
func (r *Runner) OPPSweepTable(ctx context.Context) (*Table, error) {
	cfg := cpu.Config2B2M2S
	const idx = "Rand-7"
	comp, ok := workload.CompositionByIndex(idx)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown workload %s", idx)
	}
	bases, err := r.bases(ctx, comp.Spec(), cfg.NumCores())
	if err != nil {
		return nil, err
	}
	maxOPPs := 0
	for _, tier := range cfg.Tiers() {
		if n := len(tier.Ladder()); n > maxOPPs {
			maxOPPs = n
		}
	}
	type row struct {
		name  string
		score metrics.MixScore
		e     float64
		edp   float64
		fnom  float64
	}
	// sched is a registry kind or a ready (pinned) scheduler, as simulate
	// takes it.
	eval := func(name string, sched any) (row, error) {
		w, err := comp.Build(r.Seed)
		if err != nil {
			return row{}, err
		}
		res, err := r.simulate(ctx, cfg, sched, w, nil)
		if err != nil {
			return row{}, fmt.Errorf("experiment: OPP sweep %s: %w", name, err)
		}
		score, err := metrics.Score(res, func(i int, _ kernel.AppResult) sim.Time { return bases[i] })
		if err != nil {
			return row{}, err
		}
		return row{name, score, res.TotalEnergyJ(), res.EnergyDelayProduct(), nominalResidency(res)}, nil
	}
	var rows []row
	for opp := 0; opp < maxOPPs; opp++ {
		name := fmt.Sprintf("colab @OPP%d", opp)
		if opp == maxOPPs-1 {
			name = "colab @nominal"
		}
		s, err := r.NewScheduler(SchedCOLAB)
		if err != nil {
			return nil, err
		}
		rw, err := eval(name, fixedOPPSched{s, opp})
		if err != nil {
			return nil, err
		}
		rows = append(rows, rw)
	}
	govRow, err := eval("colab-dvfs (governor)", SchedCOLABDVFS)
	if err != nil {
		return nil, err
	}
	rows = append(rows, govRow)
	ref := rows[maxOPPs-1] // nominal fixed-frequency reference
	t := &Table{
		Title:  fmt.Sprintf("OPP sweep: COLAB across the %s frequency ladders on %s", idx, cfg.Name),
		Header: []string{"variant", "H_ANTT", "H_STP", "energy(J)", "EDP(Js)", "f@nom"},
	}
	for _, rw := range rows {
		norm := metrics.Normalized(rw.score, ref.score)
		t.AddRow(rw.name, f3(norm.HANTT), f3(norm.HSTP), f3(rw.e), f3(rw.edp), f3(rw.fnom))
	}
	t.Notes = append(t.Notes,
		"H_ANTT/H_STP normalised to the nominal fixed-frequency run; energy and EDP are absolute",
		"@OPPk pins every core at ladder step k (clamped per tier); the governor picks per-dispatch")
	return t, nil
}
