package experiment

import (
	"context"

	"colab/internal/cpu"
	"colab/internal/workload"
)

// DetailTable runs the full paper matrix and reports every individual
// (workload, config) cell — the per-bar values behind the aggregated
// figures 5-9 — normalised to Linux.
func (r *Runner) DetailTable(ctx context.Context) (*Table, error) {
	cells, err := r.RunMatrix(ctx, workload.Compositions(), cpu.EvaluatedConfigs(),
		[]string{SchedWASH, SchedCOLAB})
	if err != nil {
		return nil, err
	}
	type key struct{ wl, cfg string }
	type pair struct{ antt, stp float64 }
	byCell := map[key]map[string]pair{}
	for _, c := range cells {
		k := key{c.Workload, c.Config}
		if byCell[k] == nil {
			byCell[k] = map[string]pair{}
		}
		byCell[k][c.Sched] = pair{c.Norm.HANTT, c.Norm.HSTP}
	}
	t := &Table{
		Title: "Per-workload detail: every cell of the evaluation matrix, normalised to Linux",
		Header: []string{"workload", "config",
			"wash H_ANTT", "wash H_STP", "colab H_ANTT", "colab H_STP"},
	}
	for _, comp := range workload.Compositions() {
		for _, cfg := range cpu.EvaluatedConfigs() {
			p := byCell[key{comp.Index, cfg.Name}]
			w, c := p[SchedWASH], p[SchedCOLAB]
			t.AddRow(comp.Index, cfg.Name, f3(w.antt), f3(w.stp), f3(c.antt), f3(c.stp))
		}
	}
	t.Notes = append(t.Notes, "104 cells = 26 workloads x 4 configs; each averaged over 2 core orders")
	return t, nil
}
