package experiment

import (
	"bytes"
	"context"
	"testing"

	"colab/internal/cpu"
	"colab/internal/wiretest"
	"colab/internal/workload"
)

// TestTablesGolden pins every table the Runner renders — Figures 4-9, the
// summary, the delta and detail tables, both ablations, the per-class
// suite table, the replication table, the energy, tri-gear, OPP-sweep and
// NUMA-sweep extension tables and the matrix CSV — from one seed-1 runner,
// byte for byte. Regenerate with GOLDEN_WRITE=1 (intentional output
// changes only).
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation matrix is not -short")
	}
	ctx := context.Background()
	r := testRunner(t)
	var out bytes.Buffer
	add := func(tab *Table, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(tab.String() + "\n")
	}
	add(r.Figure4(ctx))
	add(r.Figure5(ctx))
	add(r.Figure6(ctx))
	add(r.Figure7(ctx))
	add(r.Figure8(ctx))
	add(r.Figure9(ctx))
	add(r.Summary(ctx))
	add(r.DeltaTable(ctx))
	add(r.DetailTable(ctx))
	add(r.AblationTable(ctx))
	add(r.Ablation(ctx))
	add(r.ClassTable(ctx, nil, nil, []string{SchedWASH, SchedCOLAB, SchedGTS, SchedEAS}))
	add(r.ReplicationTable(ctx, nil))
	add(r.EnergyTable(ctx))
	add(r.TriGearTable(ctx))
	add(r.OPPSweepTable(ctx))
	add(r.NUMASweepTable(ctx))
	cells, err := r.RunMatrix(ctx, workload.Compositions(), cpu.EvaluatedConfigs(), []string{SchedWASH, SchedCOLAB})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCellsCSV(&out, cells); err != nil {
		t.Fatal(err)
	}
	wiretest.Golden(t, "testdata/tables_golden.txt", out.Bytes())
}
