package experiment

// Class regrouping over grammar scenarios: ClassTable regenerates a
// Figure 8-style per-class H_ANTT/H_STP table grouped by the @class= label
// each scenario declares — by default over the standard suite
// (workload.StandardSuite) — from one ScenarioMatrix run, which like every
// matrix table is one Batch run on the runner's cell Cache.

import (
	"context"
	"fmt"

	"colab/internal/cpu"
	"colab/internal/workload"
)

// ClassTable regenerates a Figure 8-style per-class table over grammar
// scenarios, grouped by each scenario's @class= label. Empty arguments
// take the defaults: the standard suite, the evaluated configs, and
// WASH+COLAB. Every named scenario must declare a class.
func (r *Runner) ClassTable(ctx context.Context, names []string, cfgs []cpu.Config, kinds []string) (*Table, error) {
	if len(names) == 0 {
		names = workload.SuiteNames()
	}
	if len(cfgs) == 0 {
		cfgs = cpu.EvaluatedConfigs()
	}
	if len(kinds) == 0 {
		kinds = []string{SchedWASH, SchedCOLAB}
	}
	var specs []workload.Spec
	var groups []string
	seenGroup := map[workload.Class]bool{}
	for _, name := range names {
		spec, err := workload.ResolveSpec(name)
		if err != nil {
			return nil, err
		}
		if spec.Class == "" {
			return nil, fmt.Errorf("experiment: scenario %q declares no @class= label, so ClassTable cannot group it", name)
		}
		specs = append(specs, spec)
		if !seenGroup[spec.Class] {
			seenGroup[spec.Class] = true
			groups = append(groups, string(spec.Class))
		}
	}
	cells, err := r.ScenarioMatrix(ctx, specs, cfgs, kinds)
	if err != nil {
		return nil, err
	}
	t := classAggregate(cells,
		func(c Cell) (string, bool) { return string(c.Class), c.Class != "" },
		groups, kinds)
	t.Title = "Per-class scenarios (@class= labels), normalised to Linux"
	return t, nil
}
