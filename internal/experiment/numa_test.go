package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/workload"
)

func TestNUMASweepTable(t *testing.T) {
	r := testRunner(t)
	tbl, err := r.NUMASweepTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(NUMASweepCosts()) {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), len(NUMASweepCosts()))
	}
	// Zero-cost row: the topology is inactive, so Linux normalises to
	// itself and no cross-domain hops can be charged.
	row0 := tbl.Rows[0]
	if row0[0] != "0" || row0[1] != "1.000" {
		t.Fatalf("zero-cost linux row drifted: %v", row0)
	}
	if row0[len(row0)-1] != "0" {
		t.Fatalf("zero-cost row charged hops: %v", row0)
	}
	hops := false
	for _, row := range tbl.Rows[1:] {
		if row[len(row)-1] != "0" {
			hops = true
		}
	}
	if !hops {
		t.Fatalf("no cross-domain hops recorded at any non-zero cost")
	}
	out := tbl.String()
	if !strings.Contains(out, "migration-cost sweep") || !strings.Contains(out, "2x2B2S") {
		t.Fatalf("table render drifted:\n%s", out)
	}
}

// TestNUMAMatrixDeterministic pins the parallel-sweep guarantee on a NUMA
// palette: the exported CSV is byte-identical at 1, 4 and 8 workers and
// across independent runners with the same seed.
func TestNUMAMatrixDeterministic(t *testing.T) {
	comp, ok := workload.CompositionByIndex("Rand-7")
	if !ok {
		t.Fatal("Rand-7 missing")
	}
	kinds := []string{SchedLinux, SchedWASH, SchedCOLAB}
	csvOf := func(workers int) string {
		r := testRunner(t)
		r.Workers = workers
		cells, err := r.RunMatrix(context.Background(), []workload.Composition{comp},
			[]cpu.Config{cpu.Config2x2B2S}, kinds)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCellsCSV(&buf, cells); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := csvOf(1)
	if want == "" {
		t.Fatal("empty CSV")
	}
	for _, workers := range []int{4, 8} {
		if got := csvOf(workers); got != want {
			t.Errorf("CSV differs at %d workers", workers)
		}
	}
	// A fresh runner with the same seed reproduces the same bytes.
	if got := csvOf(1); got != want {
		t.Errorf("CSV differs across repeated same-seed runs")
	}
}
