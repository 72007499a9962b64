package experiment

import (
	"bytes"
	"context"
	"testing"

	"colab/internal/cpu"
	"colab/internal/wiretest"
	"colab/internal/workload"
)

// TestTablesGolden pins every table built from the evaluation matrix —
// Figures 4-9, the summary, the delta and detail tables, both ablations,
// the per-class suite table, the replication table and the matrix CSV —
// rendered from one seed-1 runner, byte for byte. Regenerate with
// GOLDEN_WRITE=1 (intentional output changes only).
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
	add(r.Figure4())
	add(r.Figure5())
	add(r.Figure6())
	add(r.Figure7())
	add(r.Figure8())
	add(r.Figure9())
	add(r.Summary())
	add(r.DeltaTable(ctx))
	add(r.DetailTable())
	add(r.AblationTable(ctx))
	add(r.Ablation())
	add(r.ClassTable(ctx, nil, nil, []string{SchedWASH, SchedCOLAB, SchedGTS, SchedEAS}))
	add(ReplicationTable(nil))
	cells, err := r.RunMatrix(ctx, workload.Compositions(), cpu.EvaluatedConfigs(), []string{SchedWASH, SchedCOLAB})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCellsCSV(&out, cells); err != nil {
		t.Fatal(err)
	}
	wiretest.Golden(t, "testdata/tables_golden.txt", out.Bytes())
}
