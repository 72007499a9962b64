package sim

import (
	"testing"

	"colab/internal/mathx"
)

// orderModel is the reference the engine is checked against: every
// scheduled event with its (at, seq) key, where seq is the schedule order.
// The engine must fire the pending, uncancelled event of least (at, seq)
// each time — earliest first, ties first-scheduled first.
type orderModel struct {
	t       *testing.T
	e       *Engine
	data    []byte
	pos     int
	seq     uint64
	pending []*modelEvent // scheduled, neither fired nor cancelled, in seq order
	fired   []uint64      // seqs in firing order
}

type modelEvent struct {
	at  Time
	seq uint64
	h   *Event
}

// next consumes one input byte (zero once the input is exhausted).
func (m *orderModel) next() byte {
	if m.pos >= len(m.data) {
		return 0
	}
	b := m.data[m.pos]
	m.pos++
	return b
}

// schedule adds an event delay ns from now. Small delays make equal
// timestamps common, so the FIFO tie-break is exercised constantly.
func (m *orderModel) schedule(delay Time) {
	me := &modelEvent{at: m.e.Now() + delay, seq: m.seq}
	m.seq++
	me.h = m.e.At(me.at, func() { m.fire(me) })
	m.pending = append(m.pending, me)
}

// cancel cancels the k'th pending event (a live handle: cancelling a fired
// or cancelled handle is out of contract, since handles are recycled).
func (m *orderModel) cancel(k int) {
	if len(m.pending) == 0 {
		return
	}
	k %= len(m.pending)
	m.e.Cancel(m.pending[k].h)
	m.pending = append(m.pending[:k], m.pending[k+1:]...)
}

// earliest returns the index of the pending event of least (at, seq).
func (m *orderModel) earliest() int {
	best := -1
	for i, p := range m.pending {
		if best < 0 || p.at < m.pending[best].at || (p.at == m.pending[best].at && p.seq < m.pending[best].seq) {
			best = i
		}
	}
	return best
}

// fire is every event's handler: it checks the event is the reference's
// next one, then lets the input schedule children and cancel siblings from
// inside the handler.
func (m *orderModel) fire(me *modelEvent) {
	k := m.earliest()
	if k < 0 {
		m.t.Fatalf("fired (at=%v seq=%d) with no event pending in the reference", me.at, me.seq)
	}
	if want := m.pending[k]; want != me {
		m.t.Fatalf("fired (at=%v seq=%d), reference expects (at=%v seq=%d)", me.at, me.seq, want.at, want.seq)
	}
	if m.e.Now() != me.at {
		m.t.Fatalf("clock %v while firing event at %v", m.e.Now(), me.at)
	}
	m.pending = append(m.pending[:k], m.pending[k+1:]...)
	m.fired = append(m.fired, me.seq)
	b := m.next()
	for i := 0; i < int(b&3); i++ {
		m.schedule(Time(m.next() % 4))
	}
	if b&4 != 0 {
		m.cancel(int(m.next()))
	}
}

// runOrderProgram interprets data as a program of engine operations and
// checks every firing, cut-off and the final drain against the reference.
func runOrderProgram(t *testing.T, data []byte) {
	m := &orderModel{t: t, e: NewEngine(), data: data}
	for m.pos < len(m.data) && len(m.fired) < 1<<12 {
		switch op := m.next(); op % 5 {
		case 0, 1:
			m.schedule(Time(m.next() % 8))
		case 2:
			m.cancel(int(m.next()))
		case 3:
			before := m.e.Now()
			deadline := before + Time(m.next()%16)
			m.e.RunUntil(deadline)
			if m.e.Now() != deadline {
				t.Fatalf("RunUntil(%v) left the clock at %v", deadline, m.e.Now())
			}
			for _, p := range m.pending {
				if p.at <= deadline {
					t.Fatalf("RunUntil(%v) left event (at=%v seq=%d) unfired", deadline, p.at, p.seq)
				}
			}
		case 4:
			// Exactly budget events fire unless the queue drains first
			// (handlers may schedule more while the run is under way).
			budget := uint64(op>>3%4) + 1
			before := len(m.fired)
			got := m.e.Run(budget)
			if got != uint64(len(m.fired)-before) {
				t.Fatalf("Run(%d) reported %d fired, handlers saw %d", budget, got, len(m.fired)-before)
			}
			if got > budget || (got < budget && len(m.pending) > 0) {
				t.Fatalf("Run(%d) fired %d with %d still pending", budget, got, len(m.pending))
			}
		}
	}
	m.data = nil // handlers fired while draining schedule nothing more
	m.e.Run(0)
	if len(m.pending) != 0 {
		t.Fatalf("%d uncancelled events never fired", len(m.pending))
	}
	if m.e.Pending() != 0 {
		t.Fatalf("engine still holds %d events after draining", m.e.Pending())
	}
	if m.e.Processed != uint64(len(m.fired)) {
		t.Fatalf("Processed = %d, reference fired %d", m.e.Processed, len(m.fired))
	}
}

// FuzzEngineOrder is a differential check of the event queue against a
// reference sorted by (at, seq): random timestamps with frequent ties,
// cancellation of pending events, events scheduled and cancelled from
// inside handlers, RunUntil cut-offs and budgeted Runs.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 3, 0, 3, 4})
	f.Add([]byte{0, 1, 1, 1, 0, 1, 2, 1, 3, 15, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 0, 7, 7, 4, 2, 3, 1, 0, 2, 14})
	rng := mathx.NewRNG(7)
	for i := 0; i < 8; i++ {
		b := make([]byte, 64+rng.IntN(512))
		for k := range b {
			b[k] = byte(rng.IntN(256))
		}
		f.Add(b)
	}
	f.Fuzz(runOrderProgram)
}

// TestEngineOrderRandomPrograms runs the FuzzEngineOrder oracle over many
// seeded random programs in the ordinary test run.
func TestEngineOrderRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := mathx.NewRNG(seed)
		b := make([]byte, 16+rng.IntN(1024))
		for k := range b {
			b[k] = byte(rng.IntN(256))
		}
		runOrderProgram(t, b)
	}
}
