package kernel

import (
	"fmt"
	"math/bits"
	"strings"

	"colab/internal/sim"
	"colab/internal/task"
)

// This file is the generic policy-pipeline driver: it decomposes the
// Scheduler contract into four pluggable stages — a Labeler (the periodic
// multi-factor tagging pass), an Allocator (core allocation on enqueue), a
// Selector (thread selection plus the fairness hooks tied to it) and a
// Governor (per-dispatch DVFS) — and adapts any stage combination back into
// a Scheduler. Stages communicate through two pieces of shared state owned
// by the driver: the per-core RunQueues every allocator pushes into and
// every selector pops from, and the HintBoard of per-thread scheduling
// hints labelers publish and the other stages read. Cross-policy hybrids
// (say COLAB's labeler feeding the CFS selector) compose exactly because
// those two channels, plus the kernel-owned thread fields (affinity,
// vruntime), are the only coupling between stages.

// Stage is the contract shared by all pipeline stages.
type Stage interface {
	// Name is the stage's registry address, e.g. "colab.labeler".
	Name() string
	// Start installs the stage on a machine (via the shared pipeline
	// context) before any thread is admitted.
	Start(pc *PipelineContext)
}

// Labeler is the periodic labeling stage (~ the paper's multi-factor
// labeler added to __sched__schedule). It observes threads, refreshes the
// runtime models and publishes per-thread Hints; it may also steer thread
// affinity (WASH/GTS style) through PipelineContext.Requeue.
type Labeler interface {
	Stage
	// Admit introduces a thread (state New) prior to its first Enqueue.
	Admit(t *task.Thread)
	// ThreadDone notifies the stage a thread retired.
	ThreadDone(t *task.Thread)
}

// Allocator is the core-allocation stage (~ select_task_rq_fair): it places
// a ready thread into some core's run queue (PipelineContext.Queues) and
// returns that core's index.
type Allocator interface {
	Stage
	Enqueue(t *task.Thread, wakeup bool) int
}

// Selector is the thread-selection stage (~ pick_next_task_fair) together
// with the fairness hooks inseparable from selection order: slice length,
// vruntime scaling and wake-up preemption.
type Selector interface {
	Stage
	PickNext(c *Core) *task.Thread
	TimeSlice(c *Core, t *task.Thread) sim.Time
	VRuntimeScale(c *Core, t *task.Thread) float64
	WakeupPreempt(c *Core, t *task.Thread) bool
}

// Governor is the DVFS stage: it picks the operating point the kernel
// programs before each dispatch. A pipeline without a governor stage runs
// every core at its nominal point, exactly like a Scheduler that does not
// implement DVFSGovernor.
type Governor interface {
	Stage
	SelectOPP(c *Core, t *task.Thread) int
}

// ---------------------------------------------------------------------------
// Shared per-thread hints.

// Neutral hint defaults, matching the per-policy defaults the monolithic
// schedulers used for threads they had not yet observed.
const (
	// NeutralPred is the speedup prediction assumed before the first
	// labeling pass.
	NeutralPred = 1.5
	// NeutralUtil is the utilisation assumed before the first sampling pass
	// (threads start on the cheap tiers, the energy-first default).
	NeutralUtil = 0.4
)

// Hint is the per-thread blackboard entry labelers publish and the other
// stages read. Every field is optional: stages must tolerate the neutral
// defaults for threads no labeler has tagged yet (or when no labeler runs
// at all).
type Hint struct {
	// Label is the labeler's tag (colab.Label semantics for the built-in
	// COLAB stages; free = 0).
	Label int
	// TargetTier is the tier the allocator should steer to; -1 = free.
	TargetTier int
	// Pred is the predicted big-vs-little speedup.
	Pred float64
	// TierPred, when non-nil, holds per-tier speedup predictions indexed by
	// tier (entry 0 is 1 by definition).
	TierPred []float64
	// Crit is the criticality score (blocking-blame EWMA for the built-in
	// labelers).
	Crit float64
	// LastBlame is the thread's accumulated BlockBlame at the last labeling
	// pass; a live BlockBlame above it means fresh criticality the labeler
	// has not folded in yet.
	LastBlame sim.Time
	// Util is the tracked runnable-time fraction (EAS-style utilisation).
	Util float64
}

func newHint() *Hint {
	return &Hint{TargetTier: -1, Pred: NeutralPred, Util: NeutralUtil}
}

// HintBoard holds the live threads' hints. The pipeline driver creates an
// entry at Admit and drops it at ThreadDone; Get materialises entries for
// unknown threads so stages can always read (and labelers always write)
// through it.
type HintBoard struct {
	hints map[*task.Thread]*Hint
}

// NewHintBoard returns an empty board.
func NewHintBoard() *HintBoard {
	return &HintBoard{hints: make(map[*task.Thread]*Hint)}
}

// Get returns t's hint, materialising a neutral one if absent.
func (b *HintBoard) Get(t *task.Thread) *Hint {
	h := b.hints[t]
	if h == nil {
		h = newHint()
		b.hints[t] = h
	}
	return h
}

// Drop forgets t's hint.
func (b *HintBoard) Drop(t *task.Thread) { delete(b.hints, t) }

// ---------------------------------------------------------------------------
// Shared run queues.

// rqEntry snapshots the vruntime at push time; (vr, seq) is a total order
// reproducing the CFS red-black-tree timeline ordering (seq breaks vruntime
// ties in insertion order).
type rqEntry struct {
	t   *task.Thread
	vr  sim.Time
	seq uint64
}

// RunQueues is the pipeline's shared per-core ready-queue state: the
// allocator pushes, the selector pops. Entries keep insertion order (the
// order COLAB-style criticality scans walk) while (vruntime, push-sequence)
// gives CFS-style timeline ordering for PopMin/StealMax.
//
// An occupancy bitset tracks which queues are non-empty, so an idle core's
// cross-queue scan (COLAB's tier sweep, the CFS idle-balance steal) costs
// one word per 64 queues plus one visit per non-empty queue: NextQueued
// walks a caller's QueueSet intersected with it in ascending queue order.
// The bitset is a plain []uint64 rather than a task.Mask because Mask's
// Set/Clear copy the spilled words on write and would allocate on the
// dispatch path.
type RunQueues struct {
	qs    [][]rqEntry
	seqs  []uint64
	minVR []sim.Time
	where map[*task.Thread]int
	occ   []uint64 // bit i of occ[i/64] set iff qs[i] is non-empty
}

// NewRunQueues returns empty queues for n cores.
func NewRunQueues(n int) *RunQueues {
	return &RunQueues{
		qs:    make([][]rqEntry, n),
		seqs:  make([]uint64, n),
		minVR: make([]sim.Time, n),
		where: make(map[*task.Thread]int, 16),
		occ:   make([]uint64, queueWords(n)),
	}
}

func queueWords(n int) int { return (n + 63) / 64 }

// QueueSet returns a bitset over n queues with the listed queue indices
// set, in the layout NextQueued reads. Stages build their scan sets (all
// cores, one tier's cores) once at Start.
func QueueSet(n int, ids []int) []uint64 {
	set := make([]uint64, queueWords(n))
	for _, id := range ids {
		set[id>>6] |= 1 << (id & 63)
	}
	return set
}

// NextQueued returns the smallest queue index >= from that is in set (a
// QueueSet over this RunQueues' queues) and non-empty, or -1 when there is
// none. The loop
//
//	for i := q.NextQueued(set, 0); i >= 0; i = q.NextQueued(set, i+1)
//
// visits exactly the non-empty queues of set in ascending order, skipping
// empty ones a word at a time.
func (q *RunQueues) NextQueued(set []uint64, from int) int {
	w := from >> 6
	if w >= len(q.occ) {
		return -1
	}
	word := set[w] & q.occ[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		if w++; w >= len(q.occ) {
			return -1
		}
		word = set[w] & q.occ[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// NumQueues returns the number of per-core queues.
func (q *RunQueues) NumQueues() int { return len(q.qs) }

// Len returns the number of threads queued (not running) on core.
func (q *RunQueues) Len(core int) int { return len(q.qs[core]) }

// MinVR returns the monotone vruntime floor of core's queue (the largest
// vruntime ever popped from its timeline; CFS placement rules build on it).
func (q *RunQueues) MinVR(core int) sim.Time { return q.minVR[core] }

// Push appends t to core's queue. Double-queueing a thread is a bug in the
// calling allocator.
func (q *RunQueues) Push(core int, t *task.Thread) {
	if at, dup := q.where[t]; dup {
		panic(fmt.Sprintf("kernel: thread %v enqueued on cpu%d while queued on cpu%d", t, core, at))
	}
	q.seqs[core]++
	q.qs[core] = append(q.qs[core], rqEntry{t: t, vr: t.VRuntime, seq: q.seqs[core]})
	q.where[t] = core
	q.occ[core>>6] |= 1 << (core & 63)
}

func entryLess(a, b rqEntry) bool {
	if a.vr != b.vr {
		return a.vr < b.vr
	}
	return a.seq < b.seq
}

func (q *RunQueues) removeAt(core, i int) *task.Thread {
	es := q.qs[core]
	t := es[i].t
	q.qs[core] = append(es[:i], es[i+1:]...)
	if len(q.qs[core]) == 0 {
		q.occ[core>>6] &^= 1 << (core & 63)
	}
	delete(q.where, t)
	return t
}

// PopMin removes and returns the thread with the smallest (vruntime, push
// order) on core that satisfies allow — the CFS leftmost — advancing the
// queue's vruntime floor. A nil allow admits everything; selectors pass the
// picking core's affinity check so that a hybrid pipeline whose allocator
// queues affinity-blind (COLAB treats queues as bags and enforces affinity
// at selection) never dispatches a thread onto a forbidden core. It returns
// nil when no queued thread qualifies.
func (q *RunQueues) PopMin(core int, allow func(*task.Thread) bool) *task.Thread {
	es := q.qs[core]
	best := -1
	for i, e := range es {
		if allow != nil && !allow(e.t) {
			continue
		}
		if best < 0 || entryLess(e, es[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	if es[best].vr > q.minVR[core] {
		q.minVR[core] = es[best].vr
	}
	return q.removeAt(core, best)
}

// StealMax removes and returns the thread with the largest (vruntime, push
// order) on core that satisfies allow — the CFS rightmost steal — or nil.
// (Walking the timeline right-to-left until allow passes selects exactly
// the maximum over the allowed entries, so one linear scan suffices.)
func (q *RunQueues) StealMax(core int, allow func(*task.Thread) bool) *task.Thread {
	es := q.qs[core]
	best := -1
	for i, e := range es {
		if !allow(e.t) {
			continue
		}
		if best < 0 || entryLess(es[best], e) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return q.removeAt(core, best)
}

// PopMinAllowed is PopMin with the filter fixed to "may run on core dest":
// the selector hot path, closure-free so steady-state dispatch does not
// allocate a predicate per pick.
func (q *RunQueues) PopMinAllowed(core, dest int) *task.Thread {
	es := q.qs[core]
	best := -1
	for i := range es {
		if !es[i].t.AllowedOn(dest) {
			continue
		}
		if best < 0 || entryLess(es[i], es[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	if es[best].vr > q.minVR[core] {
		q.minVR[core] = es[best].vr
	}
	return q.removeAt(core, best)
}

// StealMaxAllowed is StealMax with the filter fixed to "may run on core
// dest": the idle-balance hot path, closure-free like PopMinAllowed.
func (q *RunQueues) StealMaxAllowed(core, dest int) *task.Thread {
	es := q.qs[core]
	best := -1
	for i := range es {
		if !es[i].t.AllowedOn(dest) {
			continue
		}
		if best < 0 || entryLess(es[best], es[i]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return q.removeAt(core, best)
}

// Thread returns the i'th queued thread on core in insertion order
// (0 <= i < Len(core)) — the closure-free counterpart of Each for scans
// that must not allocate (COLAB's criticality sweeps).
func (q *RunQueues) Thread(core, i int) *task.Thread { return q.qs[core][i].t }

// Remove deletes t from whichever queue holds it, reporting whether it was
// queued. The vruntime floor is untouched (matching CFS dequeue).
func (q *RunQueues) Remove(t *task.Thread) bool {
	core, ok := q.where[t]
	if !ok {
		return false
	}
	for i, e := range q.qs[core] {
		if e.t == t {
			q.removeAt(core, i)
			return true
		}
	}
	panic(fmt.Sprintf("kernel: queue index desynced for thread %v", t))
}

// QueuedOn returns the core whose queue currently holds t, or -1.
func (q *RunQueues) QueuedOn(t *task.Thread) int {
	core, ok := q.where[t]
	if !ok {
		return -1
	}
	return core
}

// Each calls fn for every thread queued on core, in insertion order.
func (q *RunQueues) Each(core int, fn func(*task.Thread)) {
	for _, e := range q.qs[core] {
		fn(e.t)
	}
}

// ---------------------------------------------------------------------------
// Pipeline context and driver.

// PipelineContext is the shared state a pipeline's stages operate on. The
// driver builds one per Start; monolithic policies that embed stages build
// their own through NewPipelineContext.
type PipelineContext struct {
	m       *Machine
	queues  *RunQueues
	hints   *HintBoard
	requeue func(*task.Thread)
}

// NewPipelineContext wires a context for stages embedded outside the
// generic driver. queues may be nil when the embedding policy owns its own
// queue structure; requeue may be nil when no labeler steers affinity.
func NewPipelineContext(m *Machine, q *RunQueues, h *HintBoard, requeue func(*task.Thread)) *PipelineContext {
	if h == nil {
		h = NewHintBoard()
	}
	return &PipelineContext{m: m, queues: q, hints: h, requeue: requeue}
}

// Machine returns the machine under simulation.
func (pc *PipelineContext) Machine() *Machine { return pc.m }

// Queues returns the shared per-core run queues.
func (pc *PipelineContext) Queues() *RunQueues { return pc.queues }

// Hints returns the shared per-thread hint board.
func (pc *PipelineContext) Hints() *HintBoard { return pc.hints }

// TierQueueSets returns, per tier, the tier's cores as a QueueSet over the
// shared queues: the scan sets of selectors that sweep tier by tier.
func (pc *PipelineContext) TierQueueSets() [][]uint64 {
	sets := make([][]uint64, pc.m.NumTiers())
	for tier := range sets {
		sets[tier] = QueueSet(pc.queues.NumQueues(), pc.m.TierCoreIDs(tier))
	}
	return sets
}

// Requeue re-places t after an affinity change: if t waits in a queue its
// new mask forbids, it is dequeued, re-enqueued through the pipeline's
// allocator and the chosen core is kicked — the effect sched_setaffinity
// has on a waiting task.
func (pc *PipelineContext) Requeue(t *task.Thread) {
	if pc.requeue != nil {
		pc.requeue(t)
	}
}

// Pipeline adapts a stage combination into a Scheduler. Allocator and
// selector are mandatory (they carry the mechanical scheduling base);
// labeler and governor are optional refinements.
type Pipeline struct {
	name  string
	lab   Labeler
	alloc Allocator
	sel   Selector
	gov   Governor
	pc    *PipelineContext
}

// governedPipeline adds the DVFSGovernor extension when (and only when) a
// governor stage is present, so a governor-less pipeline is
// indistinguishable from a Scheduler without the hook.
type governedPipeline struct{ *Pipeline }

// SelectOPP implements DVFSGovernor.
func (p *governedPipeline) SelectOPP(c *Core, t *task.Thread) int { return p.gov.SelectOPP(c, t) }

// NewPipeline builds a Scheduler from a stage combination. lab and gov may
// be nil; name defaults to the stage names joined with "+".
func NewPipeline(name string, lab Labeler, alloc Allocator, sel Selector, gov Governor) (Scheduler, error) {
	if alloc == nil {
		return nil, fmt.Errorf("kernel: pipeline %q needs an allocator stage", name)
	}
	if sel == nil {
		return nil, fmt.Errorf("kernel: pipeline %q needs a selector stage", name)
	}
	if name == "" {
		var parts []string
		for _, s := range []Stage{lab, alloc, sel, gov} {
			if s != nil {
				parts = append(parts, s.Name())
			}
		}
		name = strings.Join(parts, "+")
	}
	p := &Pipeline{name: name, lab: lab, alloc: alloc, sel: sel, gov: gov}
	if gov != nil {
		return &governedPipeline{p}, nil
	}
	return p, nil
}

// Name implements Scheduler.
func (p *Pipeline) Name() string { return p.name }

// Context returns the pipeline's shared state (nil before Start), for
// diagnostics and tests.
func (p *Pipeline) Context() *PipelineContext { return p.pc }

// Start implements Scheduler: it builds the shared state and starts the
// stages in slot order (labeler first, so its periodic pass is scheduled
// ahead of any same-time machine events, exactly as the monolithic
// policies' Start did).
func (p *Pipeline) Start(m *Machine) {
	q := NewRunQueues(len(m.Cores()))
	pc := NewPipelineContext(m, q, NewHintBoard(), nil)
	pc.requeue = func(t *task.Thread) {
		if core := q.QueuedOn(t); core >= 0 && !t.AllowedOn(core) {
			q.Remove(t)
			m.Kick(p.alloc.Enqueue(t, false))
		}
	}
	p.pc = pc
	if p.lab != nil {
		p.lab.Start(pc)
	}
	p.alloc.Start(pc)
	p.sel.Start(pc)
	if p.gov != nil {
		p.gov.Start(pc)
	}
}

// Admit implements Scheduler.
func (p *Pipeline) Admit(t *task.Thread) {
	p.pc.hints.Get(t) // materialise the neutral hint for the thread's lifetime
	if p.lab != nil {
		p.lab.Admit(t)
	}
}

// ThreadDone implements Scheduler.
func (p *Pipeline) ThreadDone(t *task.Thread) {
	if p.lab != nil {
		p.lab.ThreadDone(t)
	}
	p.pc.hints.Drop(t)
}

// Enqueue implements Scheduler.
func (p *Pipeline) Enqueue(t *task.Thread, wakeup bool) int { return p.alloc.Enqueue(t, wakeup) }

// PickNext implements Scheduler.
func (p *Pipeline) PickNext(c *Core) *task.Thread { return p.sel.PickNext(c) }

// TimeSlice implements Scheduler.
func (p *Pipeline) TimeSlice(c *Core, t *task.Thread) sim.Time { return p.sel.TimeSlice(c, t) }

// VRuntimeScale implements Scheduler.
func (p *Pipeline) VRuntimeScale(c *Core, t *task.Thread) float64 { return p.sel.VRuntimeScale(c, t) }

// WakeupPreempt implements Scheduler.
func (p *Pipeline) WakeupPreempt(c *Core, t *task.Thread) bool { return p.sel.WakeupPreempt(c, t) }

var (
	_ Scheduler    = (*Pipeline)(nil)
	_ DVFSGovernor = (*governedPipeline)(nil)
)
