package experiment

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"colab/internal/cpu"
	"colab/internal/workload"
)

// openSpec is the canonical open-system scenario of the determinism tests:
// a closed Table 4 pair joined mid-run by a replayed arrival and a Poisson
// stream, so every policy sees admissions landing while its labeling state
// is warm.
func openSpec(t *testing.T) workload.Spec {
	t.Helper()
	spec, err := workload.ParseSpec("Sync-1+radix:2@arrive=trace(8ms)+ferret:2@arrive=poisson(6ms)")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Open() {
		t.Fatal("spec is not open-system")
	}
	return spec
}

// TestOpenSystemDeterministicAcrossWorkers runs an open-system scenario
// with mid-run arrivals under all five canonical policies and requires
// byte-identical scored cells for any Experiment worker count and across
// two independent runs at the same seed.
func TestOpenSystemDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five policies on a full open mix; not -short")
	}
	policies := []string{SchedLinux, SchedWASH, SchedCOLAB, SchedGTS, SchedEAS}
	render := func(workers int) string {
		b := &Batch{
			Scenarios: []workload.Spec{openSpec(t)},
			Configs:   []cpu.Config{cpu.Config2B2S},
			Policies:  policies,
			Seeds:     []uint64{1},
			Workers:   workers,
		}
		cells, err := b.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := ""
		for _, c := range cells {
			if c.Score.HANTT <= 0 || c.Score.HSTP <= 0 {
				t.Fatalf("degenerate score for %+v: %+v", c.Key, c.Score)
			}
			out += fmt.Sprintf("%s|%s|%s|%d HANTT=%s HSTP=%s\n",
				c.Key.Workload, c.Key.Config, c.Key.Policy, c.Key.Seed,
				strconv.FormatFloat(c.Score.HANTT, 'g', -1, 64),
				strconv.FormatFloat(c.Score.HSTP, 'g', -1, 64))
		}
		return out
	}
	ref := render(1)
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != ref {
			t.Errorf("workers=%d differs from workers=1:\n%s\nvs\n%s", workers, got, ref)
		}
	}
	// A fresh batch (new runner, no shared memo) at the same seed must
	// reproduce the same bytes.
	if got := render(1); got != ref {
		t.Errorf("second run at the same seed differs:\n%s\nvs\n%s", got, ref)
	}
}

// An open scenario and its closed counterpart share baselines but score
// differently: arrivals change contention, and turnaround is measured from
// each app's own arrival.
func TestOpenScenarioScoresDifferFromClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two full mixes; not -short")
	}
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := workload.ParseSpec("ferret:4+bodytrack:4")
	if err != nil {
		t.Fatal(err)
	}
	open, err := workload.ParseSpec("ferret:4+bodytrack:4@arrive=40ms")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := r.ScenarioScore(context.Background(), closed, cpu.Config2B2S, SchedCOLAB)
	if err != nil {
		t.Fatal(err)
	}
	so, err := r.ScenarioScore(context.Background(), open, cpu.Config2B2S, SchedCOLAB)
	if err != nil {
		t.Fatal(err)
	}
	if sc == so {
		t.Fatalf("open and closed scenarios scored identically: %+v", sc)
	}
	// Staggering arrivals reduces overlap, so the average slowdown must
	// not get worse.
	if so.HANTT > sc.HANTT {
		t.Errorf("staggered arrivals increased H_ANTT: closed %v, open %v", sc.HANTT, so.HANTT)
	}
}
