package main

import (
	"time"

	"colab/internal/kernel"
	"colab/internal/task"
)

// hookStats accumulates the cost of one scheduler's decision hooks. A
// machine runs on one goroutine, so each machine gets its own hookStats
// and no synchronisation is needed until the run is merged.
type hookStats struct {
	pickCalls, pickNS, pickIdle, pickPull uint64
	enqCalls, enqNS                       uint64
	wakeCalls, wakeNS                     uint64
	oppCalls, oppNS                       uint64
}

func (h *hookStats) add(o hookStats) {
	h.pickCalls += o.pickCalls
	h.pickNS += o.pickNS
	h.pickIdle += o.pickIdle
	h.pickPull += o.pickPull
	h.enqCalls += o.enqCalls
	h.enqNS += o.enqNS
	h.wakeCalls += o.wakeCalls
	h.wakeNS += o.wakeNS
	h.oppCalls += o.oppCalls
	h.oppNS += o.oppNS
}

// totalNS is the time spent inside the timed hooks.
func (h *hookStats) totalNS() uint64 { return h.pickNS + h.enqNS + h.wakeNS + h.oppNS }

// timedScheduler forwards every kernel.Scheduler hook to the wrapped
// policy and times the decision hooks (PickNext, Enqueue, WakeupPreempt).
// The bookkeeping hooks are forwarded untimed through the embedded
// interface.
type timedScheduler struct {
	kernel.Scheduler
	st *hookStats
}

func (s *timedScheduler) PickNext(c *kernel.Core) *task.Thread {
	t0 := time.Now()
	t := s.Scheduler.PickNext(c)
	s.st.pickNS += uint64(time.Since(t0))
	s.st.pickCalls++
	switch {
	case t == nil:
		s.st.pickIdle++
	case t.State == task.Running:
		// A thread running elsewhere: COLAB's big-pulls-little preemption.
		s.st.pickPull++
	}
	return t
}

func (s *timedScheduler) Enqueue(t *task.Thread, wakeup bool) int {
	t0 := time.Now()
	c := s.Scheduler.Enqueue(t, wakeup)
	s.st.enqNS += uint64(time.Since(t0))
	s.st.enqCalls++
	return c
}

func (s *timedScheduler) WakeupPreempt(c *kernel.Core, t *task.Thread) bool {
	t0 := time.Now()
	p := s.Scheduler.WakeupPreempt(c, t)
	s.st.wakeNS += uint64(time.Since(t0))
	s.st.wakeCalls++
	return p
}

// timedGovernor is timedScheduler for a policy that also governs DVFS. The
// kernel type-asserts kernel.DVFSGovernor on the scheduler it is given, so
// the decorator must implement it exactly when the wrapped policy does:
// otherwise a traced colab-dvfs would silently run ungoverned.
type timedGovernor struct {
	*timedScheduler
	gov kernel.DVFSGovernor
}

func (g timedGovernor) SelectOPP(c *kernel.Core, t *task.Thread) int {
	t0 := time.Now()
	o := g.gov.SelectOPP(c, t)
	g.st.oppNS += uint64(time.Since(t0))
	g.st.oppCalls++
	return o
}

// timed wraps s so that its hooks are counted and timed into st.
func timed(s kernel.Scheduler, st *hookStats) kernel.Scheduler {
	ts := &timedScheduler{Scheduler: s, st: st}
	if g, ok := s.(kernel.DVFSGovernor); ok {
		return timedGovernor{ts, g}
	}
	return ts
}
