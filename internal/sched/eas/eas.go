// Package eas implements a Linux Energy-Aware-Scheduling-like policy, the
// modern mainline answer to asymmetric placement and a natural extra
// comparison point for the energy extension. On wake-up it packs work onto
// the cheapest tier that still has spare capacity — slower tiers cost less
// energy per unit of work, so they fill first; load spills up the tier
// ladder only when the cheap clusters saturate or the thread's tracked
// utilisation does not fit them. Below placement it is plain CFS.
//
// On machines whose tiers expose DVFS ladders the policy doubles as a
// schedutil-like frequency governor: at each dispatch it programs the
// lowest operating point whose capacity covers the incoming thread's
// utilisation plus headroom, trading performance for energy exactly as
// mainline EAS + schedutil do. Fixed-frequency machines (the paper's gem5
// setup) never invoke the governor.
//
// EAS optimises energy, not bottlenecks or asymmetric fairness (Table 1
// has no row for it; it post-dates the paper) — expect lower energy than
// CFS on light load and weaker turnaround than COLAB on contended mixes.
//
// In pipeline terms EAS decomposes into all four stages: a utilisation-
// sampling labeler ("eas.labeler", publishes Hint.Util), an energy-aware
// wake-up allocator ("eas.allocator"), an up-migration-suppressing selector
// ("eas.selector") and the schedutil-like governor ("eas.governor"). New
// composes the canonical four.
package eas

import (
	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
)

// Options configure the EAS policy.
type Options struct {
	CFS cfs.Options
	// Interval is the utilisation-sampling period.
	Interval sim.Time
	// LittleCapacity is the utilisation above which a thread no longer
	// "fits" a base-tier core and is up-placed (EAS's fits_capacity rule,
	// expressed as a runnable-time fraction). Middle tiers interpolate
	// their fit threshold between this value and 1 by relative capacity.
	LittleCapacity float64
	// LoadDecay is the EWMA retention of per-interval utilisation.
	LoadDecay float64
	// FreqHeadroom is the schedutil-style margin the DVFS governor keeps
	// above the tracked utilisation when picking an operating point
	// (mainline uses 1.25).
	FreqHeadroom float64
	// Power drives the energy cost comparison between clusters.
	Power cpu.PowerModel
}

func (o Options) withDefaults() Options {
	if o.Interval == 0 {
		o.Interval = 10 * sim.Millisecond
	}
	if o.LittleCapacity == 0 {
		o.LittleCapacity = 0.8
	}
	if o.LoadDecay == 0 {
		o.LoadDecay = 0.5
	}
	if o.FreqHeadroom == 0 {
		o.FreqHeadroom = 1.25
	}
	if o.Power == (cpu.PowerModel{}) {
		o.Power = cpu.DefaultPower
	}
	return o
}

// New returns the EAS policy: the canonical four-stage composition.
func New(opts Options) kernel.Scheduler {
	opts = opts.withDefaults()
	s, err := kernel.NewPipeline("eas", NewLabeler(opts), NewAllocator(opts), NewSelector(opts), NewGovernor(opts))
	if err != nil {
		panic(err) // both mandatory stages are supplied above
	}
	return s
}

// utilOf reads a thread's tracked utilisation from the hint board; unknown
// threads report the modest-start default.
func utilOf(pc *kernel.PipelineContext, t *task.Thread) float64 {
	return pc.Hints().Get(t).Util
}

// fitThresholds computes, per tier, the utilisation up to which a thread
// fits that tier: LittleCapacity on the base tier, 1 on the top, linear
// interpolation by relative capacity in between.
func fitThresholds(tiers []cpu.Tier, littleCapacity float64) []float64 {
	out := make([]float64, len(tiers))
	capLo := tiers[0].Capacity
	capHi := tiers[len(tiers)-1].Capacity
	for k, t := range tiers {
		switch {
		case k == len(tiers)-1 || capHi <= capLo:
			out[k] = 1 // the top tier fits everything
		case k == 0:
			out[k] = littleCapacity
		default:
			// Interpolate the fit threshold towards 1 as capacity
			// approaches the top tier's.
			frac := (capHi - t.Capacity) / (capHi - capLo)
			out[k] = 1 - (1-littleCapacity)*frac
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Labeler: utilisation sampling.

type info struct {
	lastExec sim.Time
	lastRdy  sim.Time
}

// LabelerStage samples every thread's runnable-time fraction each Interval
// and publishes the EWMA as Hint.Util — the signal the EAS allocator and
// governor (and any hybrid pipeline) consume.
type LabelerStage struct {
	opts    Options
	pc      *kernel.PipelineContext
	threads map[*task.Thread]*info
	lastAt  sim.Time
}

// NewLabeler returns the EAS utilisation-sampling labeler stage.
func NewLabeler(opts Options) *LabelerStage {
	return &LabelerStage{opts: opts.withDefaults()}
}

// Name implements kernel.Stage.
func (l *LabelerStage) Name() string { return "eas.labeler" }

// Start implements kernel.Stage.
func (l *LabelerStage) Start(pc *kernel.PipelineContext) {
	l.pc = pc
	l.threads = make(map[*task.Thread]*info)
	l.lastAt = 0
	pc.Machine().Engine().After(l.opts.Interval, l.sample)
}

// Admit implements kernel.Labeler. New threads keep the modest default
// utilisation (kernel.NeutralUtil) so they begin on the cheap tiers, the
// energy-first default.
func (l *LabelerStage) Admit(t *task.Thread) {
	l.threads[t] = &info{}
}

// ThreadDone implements kernel.Labeler.
func (l *LabelerStage) ThreadDone(t *task.Thread) {
	delete(l.threads, t)
}

func (l *LabelerStage) sample() {
	m := l.pc.Machine()
	if m.Done() {
		return
	}
	defer m.Engine().After(l.opts.Interval, l.sample)
	now := m.Now()
	wall := float64(now - l.lastAt)
	l.lastAt = now
	if wall <= 0 {
		return
	}
	for t, in := range l.threads {
		inst := (float64(t.SumExec-in.lastExec) + float64(t.ReadyTime-in.lastRdy)) / wall
		in.lastExec = t.SumExec
		in.lastRdy = t.ReadyTime
		if inst > 1 {
			inst = 1
		}
		h := l.pc.Hints().Get(t)
		h.Util = l.opts.LoadDecay*h.Util + (1-l.opts.LoadDecay)*inst
	}
}

// ---------------------------------------------------------------------------
// Allocator: energy-aware wake-up placement.

// AllocatorStage implements the EAS wake-up placement. Candidate order:
// idle cores of the cheapest tier the thread fits, up the ladder (cheapest
// J per unit work first), then idle cores of the tiers it does not fit from
// the fastest down (closest to fitting first), then the least-loaded
// allowed core. Below core choice the placement rules are plain CFS.
type AllocatorStage struct {
	*cfs.AllocatorStage
	opts      Options
	pc        *kernel.PipelineContext
	fitThresh []float64
}

// NewAllocator returns the EAS allocator stage.
func NewAllocator(opts Options) *AllocatorStage {
	opts = opts.withDefaults()
	return &AllocatorStage{AllocatorStage: cfs.NewAllocator(opts.CFS), opts: opts}
}

// Name implements kernel.Stage.
func (a *AllocatorStage) Name() string { return "eas.allocator" }

// Start implements kernel.Stage.
func (a *AllocatorStage) Start(pc *kernel.PipelineContext) {
	a.AllocatorStage.Start(pc)
	a.pc = pc
	a.fitThresh = fitThresholds(pc.Machine().Tiers(), a.opts.LittleCapacity)
}

// Enqueue implements kernel.Allocator.
func (a *AllocatorStage) Enqueue(t *task.Thread, wakeup bool) int {
	core := a.pickCore(t)
	a.Place(t, core, wakeup)
	return core
}

func (a *AllocatorStage) pickCore(t *task.Thread) int {
	util := utilOf(a.pc, t)
	m := a.pc.Machine()
	q := a.pc.Queues()
	cores := m.Cores()
	scan := func(ids []int) int {
		for _, id := range ids {
			if t.AllowedOn(id) && cores[id].IsIdle() && q.Len(id) == 0 {
				return id
			}
		}
		return -1
	}
	// Pass 1: idle cores of fitting tiers, cheapest first.
	for tier := 0; tier < m.NumTiers(); tier++ {
		if util <= a.fitThresh[tier] {
			if id := scan(m.TierCoreIDs(tier)); id >= 0 {
				return id
			}
		}
	}
	// Oversized thread with no fitting core free: an idle slow core is
	// still better than queueing behind a busy fast one. Closest-to-
	// fitting (fastest) tiers first.
	for tier := m.NumTiers() - 1; tier >= 0; tier-- {
		if util > a.fitThresh[tier] {
			if id := scan(m.TierCoreIDs(tier)); id >= 0 {
				return id
			}
		}
	}
	// Pass 2: all busy — fall back to CFS least-loaded placement.
	return a.LeastLoadedAllowed(t)
}

// ---------------------------------------------------------------------------
// Selector: suppress up-migration while cheap clusters have headroom.

// SelectorStage implements the EAS selection rule. Base-tier cores behave
// exactly like CFS. Upper-tier cores serve their own cluster's queues but
// pull work from the cheaper tiers only when none of their cores is idle —
// EAS suppresses up-migration while the cheap clusters still have headroom.
type SelectorStage struct {
	*cfs.SelectorStage
	pc       *kernel.PipelineContext
	tierSets [][]uint64 // per tier, its cores as a kernel.QueueSet
}

// NewSelector returns the EAS selector stage.
func NewSelector(opts Options) *SelectorStage {
	opts = opts.withDefaults()
	return &SelectorStage{SelectorStage: cfs.NewSelector(opts.CFS)}
}

// Name implements kernel.Stage.
func (s *SelectorStage) Name() string { return "eas.selector" }

// Start implements kernel.Stage.
func (s *SelectorStage) Start(pc *kernel.PipelineContext) {
	s.SelectorStage.Start(pc)
	s.pc = pc
	s.tierSets = pc.TierQueueSets()
}

// PickNext implements kernel.Selector.
func (s *SelectorStage) PickNext(c *kernel.Core) *task.Thread {
	if c.Kind == 0 {
		return s.SelectorStage.PickNext(c)
	}
	m := s.pc.Machine()
	if t := s.PopLocal(c.ID); t != nil {
		return t
	}
	if t := s.StealInto(c.ID, s.tierSets[c.Kind]); t != nil {
		return t
	}
	for tier := 0; tier < int(c.Kind); tier++ {
		for _, id := range m.TierCoreIDs(tier) {
			if m.Cores()[id].IsIdle() {
				return nil // an idle cheaper core will pick the queued work up
			}
		}
	}
	for tier := int(c.Kind) - 1; tier >= 0; tier-- {
		if t := s.StealInto(c.ID, s.tierSets[tier]); t != nil {
			return t
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Governor: schedutil.

// GovernorStage is the schedutil-like DVFS stage: it programs the lowest
// operating point whose frequency covers the incoming thread's utilisation
// plus headroom at the tier's nominal capacity.
type GovernorStage struct {
	opts Options
	pc   *kernel.PipelineContext
}

// NewGovernor returns the EAS governor stage.
func NewGovernor(opts Options) *GovernorStage {
	return &GovernorStage{opts: opts.withDefaults()}
}

// Name implements kernel.Stage.
func (g *GovernorStage) Name() string { return "eas.governor" }

// Start implements kernel.Stage.
func (g *GovernorStage) Start(pc *kernel.PipelineContext) { g.pc = pc }

// SelectOPP implements kernel.Governor.
func (g *GovernorStage) SelectOPP(c *kernel.Core, t *task.Thread) int {
	target := utilOf(g.pc, t) * g.opts.FreqHeadroom * float64(c.Tier.FreqMHz)
	ladder := c.Tier.Ladder()
	for i, f := range ladder {
		if float64(f) >= target {
			return i
		}
	}
	return len(ladder) - 1
}

var (
	_ kernel.Labeler   = (*LabelerStage)(nil)
	_ kernel.Allocator = (*AllocatorStage)(nil)
	_ kernel.Selector  = (*SelectorStage)(nil)
	_ kernel.Governor  = (*GovernorStage)(nil)
)
