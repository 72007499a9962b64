package colab

import (
	"fmt"
	"sort"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/sim"
	"colab/internal/task"
)

// The COLAB stage decomposition. The three collaborating heuristics (plus
// the governor) communicate exclusively through the pipeline hint board:
// the labeler publishes Label / TargetTier / Pred / TierPred / Crit /
// LastBlame, the allocator reads TargetTier, the selector reads Crit and
// the predictions, the governor reads Label and LastBlame. Swapping any
// stage for another policy's (or dropping the labeler, leaving neutral
// hints) yields a well-defined hybrid — the ablation axis the paper argues
// along, now first-class.

// ---------------------------------------------------------------------------
// Multi-factor labeler (§3.2): periodically refresh the runtime models and
// re-tag every live thread with a target tier.

// LabelerStage is the COLAB multi-factor labeler as a pipeline stage.
type LabelerStage struct {
	opts    Options
	pc      *kernel.PipelineContext
	threads map[*task.Thread]struct{}
	// useTierPred reports whether TierSpeedup applies to this machine
	// (set in Start after the palette check).
	useTierPred bool
}

// NewLabeler returns the COLAB labeler stage.
func NewLabeler(opts Options) *LabelerStage {
	return &LabelerStage{opts: opts.withDefaults(), threads: make(map[*task.Thread]struct{})}
}

// Name implements kernel.Stage.
func (l *LabelerStage) Name() string { return "colab.labeler" }

// Start implements kernel.Stage.
func (l *LabelerStage) Start(pc *kernel.PipelineContext) {
	l.pc = pc
	l.threads = make(map[*task.Thread]struct{})
	l.useTierPred = l.opts.TierSpeedup != nil &&
		(l.opts.TierSpeedupTiers == nil || paletteMatches(l.opts.TierSpeedupTiers, pc.Machine().Tiers()))
	pc.Machine().Engine().After(l.opts.Interval, l.label)
}

// Admit implements kernel.Labeler. The fresh thread keeps the board's
// neutral hint (free label, no target tier, neutral prediction).
func (l *LabelerStage) Admit(t *task.Thread) {
	l.threads[t] = struct{}{}
}

// ThreadDone implements kernel.Labeler.
func (l *LabelerStage) ThreadDone(t *task.Thread) {
	delete(l.threads, t)
}

func (l *LabelerStage) label() {
	m := l.pc.Machine()
	if m.Done() {
		return
	}
	defer m.Engine().After(l.opts.Interval, l.label)
	if len(l.threads) == 0 {
		return
	}
	// Iterate in thread-ID order: map order would randomise the float
	// summation behind the thresholds and break run-to-run determinism.
	threads := make([]*task.Thread, 0, len(l.threads))
	for t := range l.threads {
		threads = append(threads, t)
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i].ID < threads[j].ID })
	preds := make([]float64, 0, len(threads))
	blames := make([]float64, 0, len(threads))
	nt := m.NumTiers()
	board := l.pc.Hints()
	for _, t := range threads {
		h := board.Get(t)
		h.Pred = l.opts.Speedup(t)
		if l.useTierPred {
			if h.TierPred == nil {
				h.TierPred = make([]float64, nt)
			}
			h.TierPred[0] = 1
			for tier := 1; tier < nt; tier++ {
				h.TierPred[tier] = l.opts.TierSpeedup(t, tier)
			}
		}
		intervalBlame := float64(t.BlockBlame - h.LastBlame)
		h.LastBlame = t.BlockBlame
		h.Crit = l.opts.BlameDecay*h.Crit + (1-l.opts.BlameDecay)*intervalBlame
		t.IntervalCounters = cpu.Vec{}
		preds = append(preds, h.Pred)
		blames = append(blames, h.Crit)
	}
	pMean, pStd := mathx.Mean(preds), mathx.Std(preds)
	bMean := mathx.Mean(blames)
	// Degenerate distributions (all threads alike) must not label everyone
	// big: require a real margin above the mean.
	highThresh := pMean + mathx.Clamp(l.opts.HighSpeedupZ*pStd, 0.02*pMean, 1)
	lowThresh := pMean
	top := m.TopTier()
	for _, t := range threads {
		h := board.Get(t)
		switch {
		case h.Pred >= highThresh:
			h.Label, h.TargetTier = int(LabelBig), top
		case h.Pred < lowThresh && h.Crit <= 0.5*bMean:
			h.Label, h.TargetTier = int(LabelLittle), 0
		case nt > 2 && h.Crit <= 0.5*bMean:
			// Tier-ranked middle band: non-critical threads between the
			// thresholds are spread over the middle tiers by predicted
			// speedup. Critical ones keep full freedom (stay free).
			h.Label = int(LabelMid)
			h.TargetTier = middleTier(nt, h.Pred, lowThresh, highThresh)
		default:
			h.Label, h.TargetTier = int(LabelFree), -1
		}
	}
}

// Labels returns a snapshot of the current label of every live thread.
func (l *LabelerStage) Labels() map[*task.Thread]Label {
	out := make(map[*task.Thread]Label, len(l.threads))
	for t := range l.threads {
		out[t] = Label(l.pc.Hints().Get(t).Label)
	}
	return out
}

// TargetTiers returns a snapshot of every live thread's allocation target
// tier (-1 = free).
func (l *LabelerStage) TargetTiers() map[*task.Thread]int {
	out := make(map[*task.Thread]int, len(l.threads))
	for t := range l.threads {
		out[t] = l.pc.Hints().Get(t).TargetTier
	}
	return out
}

// ---------------------------------------------------------------------------
// Hierarchical round-robin core allocator (Alg. 1: _core_alloctor_).

// AllocatorStage places waking threads by the labeler's target tier:
// round-robin within the labelled tier's cluster, or across all cores for
// free (untagged) threads.
type AllocatorStage struct {
	opts Options
	pc   *kernel.PipelineContext

	// tierIDs[k] holds the allocation targets for tier k: the tier's own
	// cores when the cluster is populated, all cores otherwise.
	tierIDs [][]int
	allIDs  []int
	rrTier  []int
	rrAll   int

	// Topology-aware targets (populated only when the machine topology is
	// active): domTierIDs[d][k] is the tier-k cores of LLC domain d, with a
	// matching round-robin counter, so a labelled thread is placed on its
	// home domain's slice of the tier band; domIDs[d]/rrDom[d] serve free
	// threads the same way. Empty intersections fall back tier-wide.
	topoActive bool
	domTierIDs [][][]int
	rrDomTier  [][]int
	domIDs     [][]int
	rrDom      []int
}

// NewAllocator returns the COLAB allocator stage.
func NewAllocator(opts Options) *AllocatorStage {
	return &AllocatorStage{opts: opts.withDefaults()}
}

// Name implements kernel.Stage.
func (a *AllocatorStage) Name() string { return "colab.allocator" }

// Start implements kernel.Stage.
func (a *AllocatorStage) Start(pc *kernel.PipelineContext) {
	a.pc = pc
	m := pc.Machine()
	a.allIDs = a.allIDs[:0]
	for i := range m.Cores() {
		a.allIDs = append(a.allIDs, i)
	}
	nt := m.NumTiers()
	a.tierIDs = make([][]int, nt)
	a.rrTier = make([]int, nt)
	for tier := 0; tier < nt; tier++ {
		ids := m.TierCoreIDs(tier)
		if len(ids) == 0 {
			ids = a.allIDs // unpopulated cluster: fall back to everything
		}
		a.tierIDs[tier] = ids
	}
	a.rrAll = 0
	a.topoActive = m.TopoActive()
	a.domTierIDs, a.rrDomTier, a.domIDs, a.rrDom = nil, nil, nil, nil
	if a.topoActive {
		nd := m.NumDomains()
		a.domTierIDs = make([][][]int, nd)
		a.rrDomTier = make([][]int, nd)
		a.domIDs = make([][]int, nd)
		a.rrDom = make([]int, nd)
		for d := 0; d < nd; d++ {
			a.domIDs[d] = m.DomainCoreIDs(d)
			a.domTierIDs[d] = make([][]int, nt)
			a.rrDomTier[d] = make([]int, nt)
			for _, id := range a.domIDs[d] {
				tier := int(m.Cores()[id].Kind)
				a.domTierIDs[d][tier] = append(a.domTierIDs[d][tier], id)
			}
		}
	}
}

// Enqueue implements kernel.Allocator. On an active topology the
// hierarchical round-robin narrows each step to the thread's home LLC
// domain: labelled threads rotate over the home domain's slice of the
// target tier (tier-wide when the domain has no such cores), free threads
// rotate over the home domain instead of the whole machine.
func (a *AllocatorStage) Enqueue(t *task.Thread, wakeup bool) int {
	var core int
	switch {
	case a.opts.FlatAllocator:
		core = a.rr(a.allIDs, &a.rrAll)
	case a.topoActive:
		d := t.HomeDomain
		if tier := a.pc.Hints().Get(t).TargetTier; tier >= 0 && tier < len(a.tierIDs) {
			if ids := a.domTierIDs[d][tier]; len(ids) > 0 {
				core = a.rr(ids, &a.rrDomTier[d][tier])
			} else {
				core = a.rr(a.tierIDs[tier], &a.rrTier[tier])
			}
		} else {
			core = a.rr(a.domIDs[d], &a.rrDom[d])
		}
	default:
		if tier := a.pc.Hints().Get(t).TargetTier; tier >= 0 && tier < len(a.tierIDs) {
			core = a.rr(a.tierIDs[tier], &a.rrTier[tier])
		} else {
			core = a.rr(a.allIDs, &a.rrAll)
		}
	}
	a.pc.Queues().Push(core, t)
	return core
}

func (a *AllocatorStage) rr(ids []int, ctr *int) int {
	core := ids[*ctr%len(ids)]
	*ctr++
	return core
}

// ---------------------------------------------------------------------------
// Tier-ranked global thread selector (Alg. 1: _thread_selector_).

// SelectorStage always runs the most blocking (most critical) thread: the
// local queue first, then the same-tier cluster, then the remaining tiers
// from the top of the machine down; an empty core may pull a thread running
// on a lower-tier core. It also owns COLAB's scale-slice fairness hooks.
type SelectorStage struct {
	opts Options
	pc   *kernel.PipelineContext

	// stealOrder[k] lists, for a core of tier k, the other tiers to scan
	// in selection order: the core's own tier first, then the remaining
	// tiers from the top of the machine down.
	stealOrder [][]int
	// tierSets[k] is tier k's cores as a kernel.QueueSet, so the sweep
	// visits only the tier's non-empty queues.
	tierSets [][]uint64
}

// NewSelector returns the COLAB selector stage.
func NewSelector(opts Options) *SelectorStage {
	return &SelectorStage{opts: opts.withDefaults()}
}

// Name implements kernel.Stage.
func (s *SelectorStage) Name() string { return "colab.selector" }

// Start implements kernel.Stage.
func (s *SelectorStage) Start(pc *kernel.PipelineContext) {
	s.pc = pc
	nt := pc.Machine().NumTiers()
	s.stealOrder = make([][]int, nt)
	s.tierSets = pc.TierQueueSets()
	for tier := 0; tier < nt; tier++ {
		order := []int{tier}
		for other := nt - 1; other >= 0; other-- {
			if other != tier {
				order = append(order, other)
			}
		}
		s.stealOrder[tier] = order
	}
}

// PickNext implements kernel.Selector.
func (s *SelectorStage) PickNext(c *kernel.Core) *task.Thread {
	if t := s.takeMaxBlame(c.ID, c.ID); t != nil {
		return t
	}
	if s.opts.LocalOnlySelector {
		return nil
	}
	for _, tier := range s.stealOrder[int(c.Kind)] {
		if best := s.scanMaxBlame(s.tierSets[tier], c); best != nil {
			if !s.pc.Queues().Remove(best) {
				panic(fmt.Sprintf("colab: scanned thread %v vanished from the queues", best))
			}
			return best
		}
	}
	if int(c.Kind) > 0 && !s.opts.DisablePull {
		if t := s.pullFromLower(c); t != nil {
			return t // still Running on the lower core; the kernel migrates it
		}
	}
	return nil
}

// takeMaxBlame pops the most blocking thread allowed on core from queue q.
// The scan is an index loop over the insertion-ordered queue (not an Each
// closure) so the per-dispatch criticality sweep does not allocate.
func (s *SelectorStage) takeMaxBlame(q, core int) *task.Thread {
	qs := s.pc.Queues()
	var best *task.Thread
	for i, n := 0, qs.Len(q); i < n; i++ {
		t := qs.Thread(q, i)
		if !t.AllowedOn(core) {
			continue
		}
		if best == nil || s.moreCritical(t, best) {
			best = t
		}
	}
	if best == nil {
		return nil
	}
	if !qs.Remove(best) {
		panic(fmt.Sprintf("colab: thread %v not found in cpu%d queue", best, q))
	}
	return best
}

// scanMaxBlame finds (without removing) the most blocking stealable thread
// across the queues of set's cores, allocation-free like takeMaxBlame.
// Only non-empty queues are visited, in ascending core order — the order
// the full tier walk visited threads in. moreCritical is not transitive
// (its fairness window), so the winner depends on that visit order, and
// the scan must stay linear and order-preserving rather than become a heap
// or index.
func (s *SelectorStage) scanMaxBlame(set []uint64, c *kernel.Core) *task.Thread {
	qs := s.pc.Queues()
	var best *task.Thread
	for id := qs.NextQueued(set, 0); id >= 0; id = qs.NextQueued(set, id+1) {
		if id == c.ID {
			continue
		}
		for i, n := 0, qs.Len(id); i < n; i++ {
			t := qs.Thread(id, i)
			if !t.AllowedOn(c.ID) {
				continue
			}
			if best == nil || s.moreCritical(t, best) {
				best = t
			}
		}
	}
	return best
}

// moreCritical orders candidates: higher blocking blame first (bottleneck
// acceleration), then higher predicted speedup (only meaningful when an
// upper-tier core selects — the §3.1 "empty big core" exception), then
// lower vruntime.
//
// Blame priority only applies within a vruntime fairness window: a thread
// that is more than FairnessWindow of (scaled) runtime ahead of a candidate
// loses to it regardless of blame. This is the selector's side of "keeping
// the whole workload in equal progress without penalizing any individual
// application" (§3.1): in overloaded systems unbounded blame priority would
// starve low-blame applications.
func (s *SelectorStage) moreCritical(a, b *task.Thread) bool {
	ha, hb := s.pc.Hints().Get(a), s.pc.Hints().Get(b)
	dv := a.VRuntime - b.VRuntime
	if dv > s.opts.FairnessWindow || dv < -s.opts.FairnessWindow {
		return dv < 0
	}
	if ha.Crit != hb.Crit {
		return ha.Crit > hb.Crit
	}
	if ha.Pred != hb.Pred {
		return ha.Pred > hb.Pred
	}
	return a.VRuntime < b.VRuntime
}

// pullFromLower selects the most critical thread currently running on a
// strictly lower tier for migration onto the idle core c. Lower tiers
// never pull from higher ones.
func (s *SelectorStage) pullFromLower(c *kernel.Core) *task.Thread {
	var best *task.Thread
	m := s.pc.Machine()
	cores := m.Cores()
	for tier := 0; tier < int(c.Kind); tier++ {
		for _, id := range m.TierCoreIDs(tier) {
			t := cores[id].Current
			if t == nil || t.State != task.Running || !t.AllowedOn(c.ID) {
				continue
			}
			if best == nil || s.moreCritical(t, best) {
				best = t
			}
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Scale-slice fairness (§3.2 / §4.1).

// tierScale is the tier-relative predicted speedup of t on c: 1 on the base
// tier and, in two-anchor mode, the big prediction interpolated through
// Tier.RelSpeedup in between. With a per-tier trained model (TierSpeedup)
// the labeler's published per-tier prediction is used directly instead.
func (s *SelectorStage) tierScale(c *kernel.Core, t *task.Thread) float64 {
	if c.Kind == 0 {
		return 1
	}
	h := s.pc.Hints().Get(t)
	if h.TierPred != nil {
		if sc := h.TierPred[c.Kind]; sc > 1 {
			return sc
		}
		return 1
	}
	return c.Tier.RelSpeedup(h.Pred)
}

// TimeSlice implements kernel.Selector. On upper-tier cores the slice
// shrinks by the tier-relative predicted speedup so selection triggers
// proportionally more often.
func (s *SelectorStage) TimeSlice(c *kernel.Core, t *task.Thread) sim.Time {
	nr := s.pc.Queues().Len(c.ID) + 1
	slice := s.opts.TargetLatency / sim.Time(nr)
	if slice < s.opts.MinGranularity {
		slice = s.opts.MinGranularity
	}
	if c.Kind > 0 && !s.opts.DisableScaleSlice {
		if sc := s.tierScale(c, t); sc > 1 {
			slice = sim.Time(float64(slice) / sc)
		}
		if min := s.opts.MinGranularity / 2; slice < min {
			slice = min
		}
	}
	return slice
}

// VRuntimeScale implements kernel.Selector: upper-tier cores charge
// vruntime at the tier-relative predicted speedup so equal vruntime means
// equal progress.
func (s *SelectorStage) VRuntimeScale(c *kernel.Core, t *task.Thread) float64 {
	if c.Kind > 0 && !s.opts.DisableScaleSlice {
		if sc := s.tierScale(c, t); sc > 1 {
			return sc
		}
	}
	return 1
}

// WakeupPreempt implements kernel.Selector: the CFS granularity check,
// relaxed for woken threads that are more critical than the running one.
func (s *SelectorStage) WakeupPreempt(c *kernel.Core, t *task.Thread) bool {
	cur := c.Current
	if cur == nil {
		return false
	}
	vdiff := cur.VRuntime - t.VRuntime
	if vdiff > s.opts.WakeupGranularity {
		return true
	}
	return s.pc.Hints().Get(t).Crit > s.pc.Hints().Get(cur).Crit && vdiff > s.opts.WakeupGranularity/4
}

var (
	_ kernel.Labeler   = (*LabelerStage)(nil)
	_ kernel.Allocator = (*AllocatorStage)(nil)
	_ kernel.Selector  = (*SelectorStage)(nil)
)
