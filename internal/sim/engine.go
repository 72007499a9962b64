// Package sim is a deterministic discrete-event simulation engine. It stands
// in for gem5's event-driven core: the kernel model, the cores and the
// periodic scheduler machinery all advance by scheduling callbacks on a
// single virtual clock.
package sim

import "fmt"

// Time is simulated time in nanoseconds.
type Time int64

// Convenient durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time with a readable unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time in milliseconds as a float.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Event is a scheduled callback. Events are single-shot; cancelling an event
// that already fired is a no-op.
//
// Handle lifetime: the engine recycles Event objects through an internal
// freelist so steady-state scheduling does not allocate. A handle returned
// by At/After is valid until its callback fires or it is cancelled; after
// either, the holder must drop the handle — the same object may be reissued
// for a later, unrelated scheduling, and a stale Cancel would then kill
// that event.
type Event struct {
	at       Time
	fn       func()
	canceled bool
}

// At returns the time the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

// slot is one event-queue entry. The (at, seq) key sits inline so sifting
// compares keys without dereferencing events; seq is the schedule order,
// which breaks timestamp ties first-in first-out.
type slot struct {
	at  Time
	seq uint64
	ev  *Event
}

func (a slot) before(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is the event loop. The zero value is not usable; call NewEngine.
//
// Pending events sit in a 4-ary min-heap keyed by (time, schedule order).
// The key is a total order, so events fire in exactly that order whatever
// the heap's shape: earliest first, ties first-scheduled first. A 4-ary
// heap is half as deep as a binary one and each sift-down compares four
// adjacent slots, which suits the deep queues of 128- and 256-core runs.
type Engine struct {
	now     Time
	seq     uint64
	queue   []slot   // 4-ary min-heap: the children of i are 4i+1 .. 4i+4
	free    []*Event // fired/collected events awaiting reuse
	stopped bool
	// Processed counts fired (non-cancelled) events, for tests and stats.
	Processed uint64
	// PostStep, when set, runs after every event handler returns — the
	// machine is in a consistent between-events state there. Used by
	// validation harnesses (kernel.CheckInvariants); nil in production.
	PostStep func()
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn at absolute time t (>= Now) and returns a cancellable
// handle. Scheduling in the past panics: it would silently corrupt
// causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
		*ev = Event{at: t, fn: fn}
	} else {
		ev = &Event{at: t, fn: fn}
	}
	e.push(slot{at: t, seq: e.seq, ev: ev})
	e.seq++
	return ev
}

// push adds s to the heap, sifting it up past every later-keyed parent.
func (e *Engine) push(s slot) {
	q := append(e.queue, s)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
	e.queue = q
}

// pop removes and returns the earliest-keyed event: the last slot moves
// to the root and sifts down past every earlier-keyed child.
func (e *Engine) pop() *Event {
	q := e.queue
	top := q[0].ev
	n := len(q) - 1
	last := q[n]
	q[n] = slot{} // drop the event pointer from the dead tail
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			best := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if q[j].before(q[best]) {
					best = j
				}
			}
			if !q[best].before(last) {
				break
			}
			q[i] = q[best]
			i = best
		}
		q[i] = last
	}
	e.queue = q
	return top
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel deactivates ev. Safe to call on nil, already-cancelled or
// already-fired events.
func (e *Engine) Cancel(ev *Event) {
	if ev != nil {
		ev.canceled = true
	}
}

// Stop makes the current Run call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// recycle returns a popped event to the freelist, dropping its closure so
// captured state does not outlive the event.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Step fires the next pending event. It reports whether an event fired
// (false when the queue is empty).
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.Processed++
		ev.fn()
		if e.PostStep != nil {
			e.PostStep()
		}
		e.recycle(ev)
		return true
	}
	return false
}

// Run fires events until the queue drains, Stop is called, or the event
// budget maxEvents is exhausted (0 means unlimited). It returns the number
// of events fired.
func (e *Engine) Run(maxEvents uint64) uint64 {
	e.stopped = false
	var fired uint64
	for !e.stopped {
		if maxEvents > 0 && fired >= maxEvents {
			break
		}
		if !e.Step() {
			break
		}
		fired++
	}
	return fired
}

// RunUntil fires events with timestamps <= deadline, leaving later events
// queued, and advances the clock to deadline.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.ev.canceled {
			e.recycle(e.pop())
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.queue) }
