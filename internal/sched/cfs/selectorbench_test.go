package cfs_test

import (
	"fmt"
	"testing"

	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/sim"
	"colab/internal/task"
)

// The CFS timeline the selector stages dispatch from is kernel.RunQueues:
// per core, an insertion-ordered slice scanned linearly for the leftmost
// (vruntime, push order) allowed thread. docs/TUNING.md records why a
// linear scan beat the red-black tree the original CFS monolith kept.

// scanEntry is one thread on the reference timeline, keyed like
// RunQueues by (vruntime at push, push order).
type scanEntry struct {
	t   *task.Thread
	vr  sim.Time
	seq uint64
}

func (a scanEntry) before(b scanEntry) bool {
	return a.vr < b.vr || (a.vr == b.vr && a.seq < b.seq)
}

// scanQueue is the reference timeline: a plain slice searched
// exhaustively for the least or greatest allowed key.
type scanQueue struct {
	entries []scanEntry
	seq     uint64
}

func (q *scanQueue) push(t *task.Thread) {
	q.seq++
	q.entries = append(q.entries, scanEntry{t: t, vr: t.VRuntime, seq: q.seq})
}

// take removes and returns the allowed thread with the least key, or with
// the greatest when max is set; nil when none is allowed on dest.
func (q *scanQueue) take(dest int, max bool) *task.Thread {
	best := -1
	for i, e := range q.entries {
		if !e.t.AllowedOn(dest) {
			continue
		}
		if best < 0 || e.before(q.entries[best]) != max {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	t := q.entries[best].t
	q.entries = append(q.entries[:best], q.entries[best+1:]...)
	return t
}

// RunQueues must pop and steal exactly what the brute-force scan picks
// under random mixed traffic, pinned threads included.
func TestLinearTimelineMatchesScanOracle(t *testing.T) {
	rng := mathx.NewRNG(7)
	lin := kernel.NewRunQueues(1)
	ref := &scanQueue{}
	for id := 0; id < 2000; id++ {
		switch op := rng.IntN(4); {
		case op <= 1 || len(ref.entries) == 0: // push a fresh thread
			th := &task.Thread{ID: id, VRuntime: sim.Time(rng.IntN(50))}
			th.Affinity = task.MaskAll()
			if rng.IntN(8) == 0 {
				th.Affinity = task.MaskOf([]int{1}) // not allowed on core 0
			}
			lin.Push(0, th)
			ref.push(th)
		case op == 2:
			if a, b := lin.PopMinAllowed(0, 0), ref.take(0, false); a != b {
				t.Fatalf("PopMin diverged: linear %v, oracle %v", a, b)
			}
		default:
			if a, b := lin.StealMaxAllowed(0, 0), ref.take(0, true); a != b {
				t.Fatalf("StealMax diverged: linear %v, oracle %v", a, b)
			}
		}
	}
}

// BenchmarkSelectorLinear times one dispatch cycle (pop leftmost allowed
// + push back with advanced vruntime) across per-queue depths. A
// saturated 128-core machine with ~512 runnable threads holds ~4 threads
// per queue; depth 64+ only occurs when a single queue absorbs an entire
// machine's backlog.
func BenchmarkSelectorLinear(b *testing.B) {
	for _, depth := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			q := kernel.NewRunQueues(1)
			for i := 0; i < depth; i++ {
				q.Push(0, &task.Thread{ID: i, VRuntime: sim.Time(i * 1000), Affinity: task.MaskAll()})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := q.PopMinAllowed(0, 0)
				t.VRuntime += sim.Time(1000 * depth)
				q.Push(0, t)
			}
		})
	}
}
