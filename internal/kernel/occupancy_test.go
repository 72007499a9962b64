package kernel

import (
	"testing"

	"colab/internal/mathx"
	"colab/internal/sim"
	"colab/internal/task"
)

// checkOccupancy asserts the RunQueues occupancy invariant: bit i is set
// iff queue i is non-empty, no bit beyond the last queue is set, and
// NextQueued over set enumerates exactly set's non-empty queues in
// ascending order.
func checkOccupancy(t *testing.T, q *RunQueues, set []uint64, step int, op string) {
	t.Helper()
	for i := 0; i < q.NumQueues(); i++ {
		bit := q.occ[i>>6]&(1<<(i&63)) != 0
		if bit != (q.Len(i) > 0) {
			t.Fatalf("step %d (%s): queue %d has %d threads but occupancy bit %v", step, op, i, q.Len(i), bit)
		}
	}
	if n := q.NumQueues(); n&63 != 0 && q.occ[len(q.occ)-1]>>(n&63) != 0 {
		t.Fatalf("step %d (%s): occupancy bits set past queue %d", step, op, n-1)
	}
	var want, got []int
	for i := 0; i < q.NumQueues(); i++ {
		if set[i>>6]&(1<<(i&63)) != 0 && q.Len(i) > 0 {
			want = append(want, i)
		}
	}
	for i := q.NextQueued(set, 0); i >= 0; i = q.NextQueued(set, i+1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("step %d (%s): NextQueued visits %v, want %v", step, op, got, want)
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("step %d (%s): NextQueued visits %v, want %v", step, op, got, want)
		}
	}
}

// TestRunQueueOccupancyInvariant drives seeded random Push / Remove /
// PopMin / StealMax / PopMinAllowed / StealMaxAllowed sequences over 200
// queues (four bitset words, the last one partial) and checks the
// occupancy invariant after every step.
func TestRunQueueOccupancyInvariant(t *testing.T) {
	const nq, nthreads, steps = 200, 96, 4000
	for seed := uint64(1); seed <= 8; seed++ {
		rng := mathx.NewRNG(seed)
		q := NewRunQueues(nq)
		var ids []int
		for i := 0; i < nq; i++ {
			if rng.IntN(3) == 0 {
				ids = append(ids, i)
			}
		}
		set := QueueSet(nq, ids)
		threads := make([]*task.Thread, nthreads)
		for i := range threads {
			th := &task.Thread{ID: i, VRuntime: sim.Time(rng.IntN(50)), Affinity: task.MaskAll()}
			if i%2 == 1 {
				// Sparse masks spanning every word, so the filtered pops
				// and steals both hit and miss.
				var cores []int
				for k := 0; k < 8; k++ {
					cores = append(cores, rng.IntN(nq))
				}
				th.Affinity = task.MaskOf(cores)
			}
			threads[i] = th
		}
		allow := func(dest int) func(*task.Thread) bool {
			return func(th *task.Thread) bool { return th.AllowedOn(dest) }
		}
		for step := 0; step < steps; step++ {
			core, dest := rng.IntN(nq), rng.IntN(nq)
			// Bias towards few busy queues so queues drain and refill.
			if rng.IntN(2) == 0 {
				core = rng.IntN(8) * 25
			}
			var op string
			switch rng.IntN(7) {
			case 0, 1:
				op = "Push"
				th := threads[rng.IntN(nthreads)]
				if q.QueuedOn(th) >= 0 {
					continue
				}
				th.VRuntime += sim.Time(rng.IntN(10))
				q.Push(core, th)
			case 2:
				op = "Remove"
				q.Remove(threads[rng.IntN(nthreads)])
			case 3:
				op = "PopMinAllowed"
				q.PopMinAllowed(core, dest)
			case 4:
				op = "StealMaxAllowed"
				q.StealMaxAllowed(core, dest)
			case 5:
				op = "PopMin"
				if rng.IntN(2) == 0 {
					q.PopMin(core, nil)
				} else {
					q.PopMin(core, allow(dest))
				}
			case 6:
				op = "StealMax"
				q.StealMax(core, allow(dest))
			}
			checkOccupancy(t, q, set, step, op)
		}
	}
}

// TestNextQueuedBounds pins the edges of the bitset walk: a start index in
// or past the last partial word, and queue counts on word boundaries.
func TestNextQueuedBounds(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 200} {
		q := NewRunQueues(n)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		set := QueueSet(n, all)
		if got := q.NextQueued(set, 0); got != -1 {
			t.Fatalf("n=%d: empty queues: NextQueued = %d, want -1", n, got)
		}
		last := n - 1
		q.Push(last, &task.Thread{ID: 1, Affinity: task.MaskAll()})
		if got := q.NextQueued(set, 0); got != last {
			t.Fatalf("n=%d: NextQueued(0) = %d, want %d", n, got, last)
		}
		if got := q.NextQueued(set, last); got != last {
			t.Fatalf("n=%d: NextQueued(%d) = %d, want %d", n, last, got, last)
		}
		if got := q.NextQueued(set, n); got != -1 {
			t.Fatalf("n=%d: NextQueued past the end = %d, want -1", n, got)
		}
		if got := q.NextQueued(QueueSet(n, nil), 0); got != -1 {
			t.Fatalf("n=%d: empty set: NextQueued = %d, want -1", n, got)
		}
	}
}
