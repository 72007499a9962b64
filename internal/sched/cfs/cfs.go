// Package cfs re-implements the Linux Completely Fair Scheduler on the
// simulated kernel: per-core run queues ordered by virtual runtime,
// least-loaded wake-up placement, sleeper credit, idle-time stealing and
// wake-up preemption with a granularity guard.
//
// CFS is both the paper's Linux baseline and the mechanical base layer the
// affinity-only policies (WASH, GTS) drive: they adjust thread affinity
// masks every labeling interval and leave allocation/selection to CFS.
//
// The policy is the composition of its two pipeline stages (AllocatorStage
// and SelectorStage in stages.go) over the pipeline's shared RunQueues.
// The original monolithic implementation kept each core's timeline in a
// red-black tree; the golden corpus proved the stage decomposition
// bit-identical, and a linear-vs-rbtree dispatch benchmark showed the linear
// shared queues faster (and allocation-free) at every realistic per-queue
// depth, so the monolith was collapsed onto the stages (docs/TUNING.md
// records the numbers).
package cfs

import (
	"colab/internal/kernel"
	"colab/internal/sim"
)

// Options tune the CFS latency targets (Linux defaults scaled to the
// simulated machine).
type Options struct {
	// TargetLatency is the scheduling period every runnable thread should
	// run once within (Linux sched_latency_ns, default 6 ms).
	TargetLatency sim.Time
	// MinGranularity floors the per-thread slice (default 750 us).
	MinGranularity sim.Time
	// WakeupGranularity guards wake-up preemption (default 1 ms).
	WakeupGranularity sim.Time
	// SleeperCredit caps how much vruntime credit a waking sleeper gets
	// (default TargetLatency/2, as in place_entity).
	SleeperCredit sim.Time
}

func (o Options) withDefaults() Options {
	if o.TargetLatency == 0 {
		o.TargetLatency = 6 * sim.Millisecond
	}
	if o.MinGranularity == 0 {
		o.MinGranularity = 750 * sim.Microsecond
	}
	if o.WakeupGranularity == 0 {
		o.WakeupGranularity = sim.Millisecond
	}
	if o.SleeperCredit == 0 {
		o.SleeperCredit = o.TargetLatency / 2
	}
	return o
}

// Policy is the CFS scheduling policy: the allocator and selector stages
// composed into a pipeline named "linux".
type Policy struct {
	kernel.Scheduler
	opts Options
}

// New returns a CFS policy.
func New(opts Options) *Policy {
	opts = opts.withDefaults()
	s, err := kernel.NewPipeline("linux", nil, NewAllocator(opts), NewSelector(opts), nil)
	if err != nil {
		panic(err) // both mandatory stages are supplied above
	}
	return &Policy{Scheduler: s, opts: opts}
}

// Options returns the effective options.
func (p *Policy) Options() Options { return p.opts }

var _ kernel.Scheduler = (*Policy)(nil)
