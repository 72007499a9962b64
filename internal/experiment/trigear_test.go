package experiment

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/workload"
)

// TestTriGearAllPolicies drives the 2B2M2S tri-gear machine through the
// experiment harness end-to-end under all five policies (the acceptance
// bar for the multi-tier machine model).
func TestTriGearAllPolicies(t *testing.T) {
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := workload.CompositionByIndex("Rand-7")
	if !ok {
		t.Fatal("Rand-7 missing")
	}
	for _, kind := range TriGearSchedulers() {
		s, err := r.ScenarioScore(context.Background(), comp.Spec(), cpu.Config2B2M2S, kind)
		if err != nil {
			t.Fatalf("%s on %s: %v", kind, cpu.Config2B2M2S.Name, err)
		}
		if s.HANTT <= 0 || s.HSTP <= 0 {
			t.Errorf("%s: degenerate scores %+v", kind, s)
		}
		t.Logf("%s: HANTT=%.3f HSTP=%.3f", kind, s.HANTT, s.HSTP)
	}
}

// TestTriGearTable renders the full five-policy comparison table.
func TestTriGearTable(t *testing.T) {
	if testing.Short() {
		t.Skip("tri-gear table is not -short")
	}
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := r.TriGearTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if len(tbl.Rows) != len(TriGearSchedulers()) {
		t.Fatalf("want %d rows, got %d:\n%s", len(TriGearSchedulers()), len(tbl.Rows), out)
	}
	for _, kind := range TriGearSchedulers() {
		if !strings.Contains(out, kind) {
			t.Errorf("table misses %s:\n%s", kind, out)
		}
	}
	// The tri-gear acceptance bar: COLAB's native governor must land below
	// fixed-frequency COLAB on both energy and EDP (columns 3 and 4), and
	// must actually leave the nominal point (f@nom, column 5).
	edp := map[string][3]float64{}
	for _, row := range tbl.Rows {
		var e, d, f float64
		if _, err := fmt.Sscanf(row[3]+" "+row[4]+" "+row[5], "%f %f %f", &e, &d, &f); err != nil {
			t.Fatalf("unparseable row %v: %v", row, err)
		}
		edp[row[0]] = [3]float64{e, d, f}
	}
	fixed, gov := edp[SchedCOLAB], edp[SchedCOLABDVFS]
	if gov[1] >= fixed[1] {
		t.Errorf("colab-dvfs EDP %.3f not below fixed-frequency colab %.3f", gov[1], fixed[1])
	}
	if gov[0] >= fixed[0] {
		t.Errorf("colab-dvfs energy %.3f not below fixed-frequency colab %.3f", gov[0], fixed[0])
	}
	if gov[2] >= 1 || fixed[2] != 1 {
		t.Errorf("residency: colab-dvfs f@nom %.3f (want < 1), colab %.3f (want 1)", gov[2], fixed[2])
	}
	t.Log("\n" + out)
}
