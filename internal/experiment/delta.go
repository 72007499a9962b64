package experiment

import (
	"context"

	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/workload"
)

// paperDelta is one headline claim of the paper's closing summary ("COLAB
// vs Linux -11% turnaround / +15% throughput; vs WASH -5% / +6%"). The
// quantitative values are gem5-specific; the reproduction target is the
// sign and ordering of every row.
type paperDelta struct {
	comparison string
	metric     string
	paper      string // "-" where the paper states no number
}

// DeltaTable is the paper-vs-reproduction quantitative comparison: the
// paper's headline percentage deltas next to the ones this reproduction
// measures over the full 26-workload x 4-config matrix, one Batch run on
// this runner's cell Cache.
func (r *Runner) DeltaTable(ctx context.Context) (*Table, error) {
	cells, err := r.RunMatrix(ctx, workload.Compositions(), cpu.EvaluatedConfigs(),
		[]string{SchedWASH, SchedCOLAB})
	if err != nil {
		return nil, err
	}
	antt := map[string][]float64{}
	stp := map[string][]float64{}
	for _, c := range cells {
		antt[c.Sched] = append(antt[c.Sched], c.Norm.HANTT)
		stp[c.Sched] = append(stp[c.Sched], c.Norm.HSTP)
	}
	wa, ca := mathx.GeoMean(antt[SchedWASH]), mathx.GeoMean(antt[SchedCOLAB])
	ws, cs := mathx.GeoMean(stp[SchedWASH]), mathx.GeoMean(stp[SchedCOLAB])

	rows := []struct {
		paperDelta
		repro float64 // ratio; pct() renders the signed delta
	}{
		{paperDelta{"COLAB vs Linux", "turnaround (H_ANTT)", "-11%"}, ca},
		{paperDelta{"COLAB vs Linux", "throughput (H_STP)", "+15%"}, cs},
		{paperDelta{"COLAB vs WASH", "turnaround (H_ANTT)", "-5%"}, ca / wa},
		{paperDelta{"COLAB vs WASH", "throughput (H_STP)", "+6%"}, cs / ws},
		{paperDelta{"WASH vs Linux", "turnaround (H_ANTT)", "-"}, wa},
		{paperDelta{"WASH vs Linux", "throughput (H_STP)", "-"}, ws},
	}
	t := &Table{
		Title:  "Paper vs reproduction: headline deltas over the full matrix",
		Header: []string{"comparison", "metric", "paper", "repro"},
	}
	for _, row := range rows {
		t.AddRow(row.comparison, row.metric, row.paper, pct(row.repro))
	}
	t.Notes = append(t.Notes,
		"geomean over all 26 Table 4 workloads x 4 configs at seed 1, both core orders",
		"negative turnaround and positive throughput deltas mean better than the baseline",
		"the paper's absolute numbers are gem5-specific; the reproduction target is sign and ordering")
	return t, nil
}
