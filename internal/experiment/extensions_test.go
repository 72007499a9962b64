package experiment

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/metrics"
	"colab/internal/workload"
)

func TestEnergyTable(t *testing.T) {
	if testing.Short() {
		t.Skip("energy sweep is not -short friendly")
	}
	r := testRunner(t)
	tab, err := r.EnergyTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 4 configs x 5 schedulers.
	if len(tab.Rows) != 20 {
		t.Fatalf("energy rows = %d", len(tab.Rows))
	}
	s := tab.String()
	for _, kind := range []string{"linux", "wash", "colab", "gts", "eas"} {
		if !strings.Contains(s, kind) {
			t.Fatalf("energy table missing %s:\n%s", kind, s)
		}
	}
	// Linux rows are the 1.000 reference.
	for _, row := range tab.Rows {
		if row[1] == SchedLinux && (row[2] != "1.000" || row[3] != "1.000") {
			t.Fatalf("linux reference row wrong: %v", row)
		}
	}
}

func TestReplicationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep is not -short friendly")
	}
	tab, err := testRunner(t).ReplicationTable(context.Background(), []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("replication rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if !strings.Contains(row[1], "+/-") || !strings.Contains(row[2], "+/-") {
			t.Fatalf("row without spread: %v", row)
		}
	}
}

func TestWriteCellsCSV(t *testing.T) {
	cells := []Cell{
		{
			Workload: "Sync-1", Class: workload.ClassSync, Config: "2B2S", Sched: "colab",
			Raw:  metrics.MixScore{HANTT: 2.5, HSTP: 1.5},
			Norm: metrics.MixScore{HANTT: 0.9, HSTP: 1.1},
		},
		{
			Workload: "Rand-7", Class: workload.ClassRand, Config: "4B4S", Sched: "wash",
			Raw:  metrics.MixScore{HANTT: 3.0, HSTP: 1.2},
			Norm: metrics.MixScore{HANTT: 1.05, HSTP: 0.98},
		},
	}
	var buf bytes.Buffer
	if err := WriteCellsCSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // header + 2 rows
		t.Fatalf("csv records = %d", len(recs))
	}
	if recs[0][0] != "workload" || len(recs[0]) != 8 {
		t.Fatalf("header = %v", recs[0])
	}
	if recs[1][0] != "Sync-1" || recs[1][3] != "colab" || recs[1][6] != "0.900000" {
		t.Fatalf("row = %v", recs[1])
	}
}

func TestFigure8GroupBoundaries(t *testing.T) {
	// 4-thread workloads count as thread-low on the 4-core config; Rand-9
	// (55 threads) is thread-high everywhere; a 9-thread workload on 2B2S
	// is neither.
	if n := coreCount("2B2S"); n != 4 {
		t.Fatalf("coreCount 2B2S = %d", n)
	}
	if n := maxEvaluatedCores(); n != 8 {
		t.Fatalf("max cores = %d", n)
	}
	comp, _ := workload.CompositionByIndex("Sync-1")
	if comp.TotalThreads() > coreCount("2B2S") {
		t.Fatalf("Sync-1 should be thread-low on 2B2S")
	}
	r9, _ := workload.CompositionByIndex("Rand-9")
	if r9.TotalThreads() < 2*maxEvaluatedCores() {
		t.Fatalf("Rand-9 should be thread-high")
	}
}

func TestClassAggregateGeomeans(t *testing.T) {
	cells := []Cell{
		{Workload: "a", Class: workload.ClassSync, Config: "2B2S", Sched: "colab",
			Norm: metrics.MixScore{HANTT: 0.5, HSTP: 2}},
		{Workload: "b", Class: workload.ClassSync, Config: "2B2S", Sched: "colab",
			Norm: metrics.MixScore{HANTT: 2, HSTP: 0.5}},
	}
	tab := classAggregate(cells,
		func(c Cell) (string, bool) { return string(c.Class), true },
		[]string{"Sync"}, []string{"colab"})
	// geomean(0.5, 2) = 1.
	found := false
	for _, row := range tab.Rows {
		if row[1] == "2B2S" {
			found = true
			if row[2] != "1.000" || row[3] != "1.000" {
				t.Fatalf("geomean row = %v", row)
			}
		}
	}
	if !found {
		t.Fatalf("config row missing: %+v", tab.Rows)
	}
}

func TestEvaluatedConfigCoreCounts(t *testing.T) {
	for _, cfg := range cpu.EvaluatedConfigs() {
		if coreCount(cfg.Name) != cfg.NumCores() {
			t.Fatalf("coreCount(%s) = %d", cfg.Name, coreCount(cfg.Name))
		}
	}
	if coreCount("bogus") != 0 {
		t.Fatalf("unknown config must map to 0 cores")
	}
}
