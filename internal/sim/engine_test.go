package sim

import (
	"fmt"
	"testing"
	"testing/quick"

	"colab/internal/mathx"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(30, func() { got = append(got, 30) })
	e.At(10, func() { got = append(got, 10) })
	e.At(20, func() { got = append(got, 20) })
	e.Run(0)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(nil) // must not panic
	e.Run(0)
	if fired {
		t.Fatalf("cancelled event fired")
	}
	if e.Processed != 0 {
		t.Fatalf("processed = %d", e.Processed)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(10, func() {
		got = append(got, e.Now())
		e.After(5, func() { got = append(got, e.Now()) })
	})
	e.Run(0)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v", got)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(10, func() { got = append(got, 10) })
	e.At(30, func() { got = append(got, 30) })
	e.RunUntil(20)
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("got %v", got)
	}
	if e.Now() != 20 {
		t.Fatalf("clock must advance to the deadline, got %v", e.Now())
	}
	e.Run(0)
	if len(got) != 2 {
		t.Fatalf("later event lost: %v", got)
	}
}

func TestStopAndBudget(t *testing.T) {
	e := NewEngine()
	count := 0
	var rearm func()
	rearm = func() {
		count++
		if count == 5 {
			e.Stop()
		}
		e.After(1, rearm)
	}
	e.After(1, rearm)
	e.Run(0)
	if count != 5 {
		t.Fatalf("Stop did not stop: %d", count)
	}
	// Budget-bounded run of a self-rearming event.
	e2 := NewEngine()
	n := 0
	var loop func()
	loop = func() { n++; e2.After(1, loop) }
	e2.After(1, loop)
	if fired := e2.Run(7); fired != 7 || n != 7 {
		t.Fatalf("budget run fired %d, handler ran %d", fired, n)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("scheduling in the past must panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)

	defer func() {
		if recover() == nil {
			t.Errorf("negative After must panic")
		}
	}()
	e.After(-1, func() {})
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:                  "5ns",
		3 * Microsecond:    "3.000us",
		2 * Millisecond:    "2.000ms",
		1500 * Millisecond: "1.500s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
	if s := (2 * Second).Seconds(); s != 2 {
		t.Errorf("Seconds = %v", s)
	}
	if m := (3 * Millisecond).Millis(); m != 3 {
		t.Errorf("Millis = %v", m)
	}
}

// Property: N random events fire exactly once each, in non-decreasing time
// order, and the clock never goes backwards.
func TestRandomScheduleProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		e := NewEngine()
		n := 1 + rng.IntN(200)
		fired := 0
		last := Time(-1)
		ok := true
		for i := 0; i < n; i++ {
			at := Time(rng.IntN(1000))
			e.At(at, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				fired++
			})
		}
		e.Run(0)
		return ok && fired == n && e.Pending() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngine measures the event queue alone in steady state: N events
// stay pending and every op schedules one at a pseudo-random future time
// and fires the earliest. Handlers do nothing, so the cost is the heap and
// the event freelist; steady state is allocation-free.
func BenchmarkEngine(b *testing.B) {
	noop := func() {}
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			rng := mathx.NewRNG(1)
			delays := make([]Time, 1024)
			for i := range delays {
				delays[i] = Time(1 + rng.IntN(100000))
			}
			e := NewEngine()
			for i := 0; i < n; i++ {
				e.After(delays[i%len(delays)], noop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(delays[i%len(delays)], noop)
				e.Step()
			}
		})
	}
}
