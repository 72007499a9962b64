package experiment

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/workload"
)

// ReplicationTable quantifies run-to-run variance: representative
// workloads are re-generated under several seeds and the
// normalised-to-Linux H_ANTT of WASH and COLAB is reported as mean +/- std.
// The paper controls variance by averaging two core orders (§5.1); this
// extension makes the residual workload-generation variance visible. The
// seeds run as one Batch on the runner's cell Cache, so cells at the
// runner's own seed are shared with its other tables.
func (r *Runner) ReplicationTable(ctx context.Context, seeds []uint64) (*Table, error) {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3, 4, 5}
	}
	reps := []string{"Sync-2", "Comm-2", "Rand-7"}
	kinds := []string{SchedLinux, SchedWASH, SchedCOLAB}
	cfg := cpu.Config2B2S
	specs := make([]workload.Spec, len(reps))
	for i, idx := range reps {
		comp, ok := workload.CompositionByIndex(idx)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown workload %s", idx)
		}
		specs[i] = comp.Spec()
	}
	b := r.batch(specs, []cpu.Config{cfg}, kinds)
	b.Seeds = seeds
	res, err := b.Run(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Replication: H_ANTT vs Linux over %d seeds on %s (mean +/- std)", len(seeds), cfg.Name),
		Header: []string{"workload", "wash", "colab"},
	}
	for wi, idx := range reps {
		vals := map[string][]float64{}
		for si := range seeds {
			// res is in cross-product order: seeds outermost, kinds
			// innermost, Linux first in each row.
			row := res[(si*len(specs)+wi)*len(kinds):]
			for ki := 1; ki < len(kinds); ki++ {
				vals[kinds[ki]] = append(vals[kinds[ki]], row[ki].Score.HANTT/row[0].Score.HANTT)
			}
		}
		t.AddRow(idx,
			fmt.Sprintf("%.3f +/- %.3f", mathx.Mean(vals[SchedWASH]), mathx.Std(vals[SchedWASH])),
			fmt.Sprintf("%.3f +/- %.3f", mathx.Mean(vals[SchedCOLAB]), mathx.Std(vals[SchedCOLAB])))
	}
	return t, nil
}

// WriteCellsCSV exports a cell matrix (one row per workload x config x
// scheduler) for external analysis.
func WriteCellsCSV(w io.Writer, cells []Cell) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "class", "config", "sched",
		"hantt", "hstp", "hantt_vs_linux", "hstp_vs_linux"}); err != nil {
		return err
	}
	for _, c := range cells {
		rec := []string{
			c.Workload, string(c.Class), c.Config, c.Sched,
			strconv.FormatFloat(c.Raw.HANTT, 'f', 6, 64),
			strconv.FormatFloat(c.Raw.HSTP, 'f', 6, 64),
			strconv.FormatFloat(c.Norm.HANTT, 'f', 6, 64),
			strconv.FormatFloat(c.Norm.HSTP, 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
