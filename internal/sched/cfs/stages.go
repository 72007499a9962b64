package cfs

import (
	"colab/internal/kernel"
	"colab/internal/sim"
	"colab/internal/task"
)

// The CFS stage decomposition: the least-loaded wake-up placement becomes
// the pipeline allocator and the vruntime-timeline selection (leftmost pop,
// rightmost idle-balance steal, granularity-guarded preemption) becomes the
// pipeline selector, both operating on the pipeline's shared RunQueues
// instead of the monolithic Policy's red-black trees. (vruntime, push
// order) scans over the shared queues reproduce the tree's timeline
// ordering exactly — the golden corpus holds the two implementations to
// bit-identical schedules. CFS has no labeler and no governor.

// AllocatorStage is the CFS core-allocation stage: least-loaded placement
// among allowed cores (asymmetry-blind) with sleeper vruntime credit on
// wake-up. Registered as "linux.allocator"; WASH and GTS alias it, since
// below their affinity masks allocation is plain CFS.
type AllocatorStage struct {
	opts Options
	pc   *kernel.PipelineContext
}

// NewAllocator returns the CFS allocator stage.
func NewAllocator(opts Options) *AllocatorStage {
	return &AllocatorStage{opts: opts.withDefaults()}
}

// Name implements kernel.Stage.
func (a *AllocatorStage) Name() string { return "linux.allocator" }

// Start implements kernel.Stage.
func (a *AllocatorStage) Start(pc *kernel.PipelineContext) { a.pc = pc }

// Enqueue implements kernel.Allocator.
func (a *AllocatorStage) Enqueue(t *task.Thread, wakeup bool) int {
	core := a.leastLoadedAllowed(t)
	a.Place(t, core, wakeup)
	return core
}

// leastLoadedAllowed picks the allowed core with the smallest load (queued
// plus running threads), breaking ties by core index. With an unsatisfiable
// mask it falls back to all cores rather than wedging the thread.
func (a *AllocatorStage) leastLoadedAllowed(t *task.Thread) int {
	q, cores := a.pc.Queues(), a.pc.Machine().Cores()
	best, bestLoad := -1, int(^uint(0)>>1)
	for i := 0; i < q.NumQueues(); i++ {
		if !t.AllowedOn(i) {
			continue
		}
		l := q.Len(i)
		if cores[i].Current != nil {
			l++
		}
		if l < bestLoad {
			best, bestLoad = i, l
		}
	}
	if best < 0 {
		t.Affinity = task.MaskAll()
		return a.leastLoadedAllowed(t)
	}
	return best
}

// Place inserts t into core's run queue, applying the CFS vruntime
// placement rules (sleeper credit against the queue's vruntime floor).
// Exported for allocator stages that do their own core selection but keep
// CFS placement (EAS).
func (a *AllocatorStage) Place(t *task.Thread, core int, wakeup bool) {
	q := a.pc.Queues()
	floor := q.MinVR(core)
	if wakeup {
		floor -= a.opts.SleeperCredit
	}
	if t.VRuntime < floor {
		t.VRuntime = floor
	}
	q.Push(core, t)
}

// LeastLoadedAllowed exposes the CFS fallback placement for embedding
// stages.
func (a *AllocatorStage) LeastLoadedAllowed(t *task.Thread) int { return a.leastLoadedAllowed(t) }

// SelectorStage is the CFS thread-selection stage: leftmost of the local
// timeline, else idle-balance steal of the least-entitled allowed thread
// from the busiest queue, plus the CFS slice/preemption rules. Registered
// as "linux.selector"; WASH and GTS alias it.
type SelectorStage struct {
	opts    Options
	pc      *kernel.PipelineContext
	allSet  []uint64 // every core, as a kernel.QueueSet
	scratch []int    // reused steal-order buffer (hot path: no per-call alloc)
}

// NewSelector returns the CFS selector stage.
func NewSelector(opts Options) *SelectorStage {
	return &SelectorStage{opts: opts.withDefaults()}
}

// Name implements kernel.Stage.
func (s *SelectorStage) Name() string { return "linux.selector" }

// Start implements kernel.Stage.
func (s *SelectorStage) Start(pc *kernel.PipelineContext) {
	s.pc = pc
	n := pc.Queues().NumQueues()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	s.allSet = kernel.QueueSet(n, all)
}

// PickNext implements kernel.Selector: the local timeline first, else the
// idle-balance steal over every other queue.
func (s *SelectorStage) PickNext(c *kernel.Core) *task.Thread {
	if t := s.PopLocal(c.ID); t != nil {
		return t
	}
	return s.StealInto(c.ID, s.allSet)
}

// PopLocal removes and returns the leftmost thread of core's own queue
// that may run there, nil otherwise. The affinity filter never engages in
// the canonical compositions (their allocators only queue allowed threads,
// and labeler affinity changes requeue through PipelineContext.Requeue);
// it protects hybrids whose allocator queues affinity-blind, COLAB-style.
// Exported for selector stages with custom stealing rules.
func (s *SelectorStage) PopLocal(core int) *task.Thread {
	return s.pc.Queues().PopMinAllowed(core, core)
}

// StealInto steals the least-entitled thread runnable on core from the
// busiest of the source queues in from (a kernel.QueueSet), nil when
// nothing is stealable. On an active topology the idle balance is
// LLC-aware: nearer domains are searched first (cheapest migration),
// busiest-first within one distance band. Exported for selector stages
// with custom stealing rules (EAS).
func (s *SelectorStage) StealInto(core int, from []uint64) *task.Thread {
	q := s.pc.Queues()
	m := s.pc.Machine()
	topoActive := m.TopoActive()
	order := s.scratch[:0]
	for i := q.NextQueued(from, 0); i >= 0; i = q.NextQueued(from, i+1) {
		if i != core {
			order = append(order, i)
		}
	}
	// Stable insertion sort so queues of equal rank keep ascending order
	// (identical to sort.Slice on the small slices it small-sorts) without
	// allocating a comparator per call. Flat machines rank busiest-first;
	// an active topology ranks nearest-domain-first, then busiest.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && s.stealBefore(q, m, core, order[j], order[j-1], topoActive); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	s.scratch = order
	for _, i := range order {
		if t := q.StealMaxAllowed(i, core); t != nil {
			return t
		}
	}
	return nil
}

// stealBefore ranks steal source a strictly ahead of b for the idle core.
func (s *SelectorStage) stealBefore(q *kernel.RunQueues, m *kernel.Machine, core, a, b int, topoActive bool) bool {
	if topoActive {
		da := m.DomainDistance(m.DomainOf(core), m.DomainOf(a))
		db := m.DomainDistance(m.DomainOf(core), m.DomainOf(b))
		if da != db {
			return da < db
		}
	}
	return q.Len(a) > q.Len(b)
}

// nrRunning is the number of runnable threads associated with core (queued
// plus running), minimum 1, for slice computation.
func (s *SelectorStage) nrRunning(c *kernel.Core) int {
	n := s.pc.Queues().Len(c.ID)
	if c.Current != nil {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// TimeSlice implements kernel.Selector: target latency divided by the
// number of runnable threads, floored at the minimum granularity.
func (s *SelectorStage) TimeSlice(c *kernel.Core, t *task.Thread) sim.Time {
	slice := s.opts.TargetLatency / sim.Time(s.nrRunning(c))
	if slice < s.opts.MinGranularity {
		slice = s.opts.MinGranularity
	}
	return slice
}

// VRuntimeScale implements kernel.Selector: CFS charges wall-clock time.
func (s *SelectorStage) VRuntimeScale(c *kernel.Core, t *task.Thread) float64 { return 1 }

// WakeupPreempt implements kernel.Selector: preempt when the woken thread
// is behind the running one by more than the wake-up granularity.
func (s *SelectorStage) WakeupPreempt(c *kernel.Core, t *task.Thread) bool {
	cur := c.Current
	if cur == nil {
		return false
	}
	return cur.VRuntime-t.VRuntime > s.opts.WakeupGranularity
}

var (
	_ kernel.Allocator = (*AllocatorStage)(nil)
	_ kernel.Selector  = (*SelectorStage)(nil)
)
