package experiment

import (
	"context"
	"fmt"

	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/policy"
	"colab/internal/workload"
)

// Stage-swap ablation: the paper argues COLAB wins because its labeler,
// allocator and selector are decomposed and co-designed; the pipeline
// registry lets us regenerate that evidence directly, by swapping one
// stage of the canonical COLAB composition at a time and re-running the
// mix. This subsumes the option-based ablation variants (colab-noscale,
// ...) with compositions any API user can write.

// StageAblationVariant is one row of the stage-swap ablation: a canonical
// COLAB pipeline with a single slot replaced (or added, for the governor
// rows).
type StageAblationVariant struct {
	// Label names the swap (e.g. "selector -> linux").
	Label string
	// Composition is the registry-grammar pipeline name.
	Composition string
}

// StageAblationVariants returns the standard swap set: full COLAB first
// (the normalisation reference), then one replaced stage per row, then the
// governor additions that only bite on DVFS-laddered machines.
func StageAblationVariants() []StageAblationVariant {
	full, _ := policy.CanonicalComposition(policy.COLAB)
	dvfs, _ := policy.CanonicalComposition(policy.COLABDVFS)
	return []StageAblationVariant{
		{"full colab", full},
		{"labeler -> none", "colab.allocator+colab.selector"},
		{"labeler -> wash", "wash.labeler+colab.allocator+colab.selector"},
		{"allocator -> linux", "colab.labeler+linux.allocator+colab.selector"},
		{"selector -> linux", "colab.labeler+colab.allocator+linux.selector"},
		{"governor -> colab", dvfs},
		{"governor -> eas", "colab.labeler+colab.allocator+colab.selector+eas.governor"},
	}
}

// AblationTable regenerates the paper's ablation-style evidence from the
// pipeline API: every variant of StageAblationVariants on the 2B2S paper
// machine and the tri-gear 2B2M2S machine, scored on a sync-heavy and a
// random mix and normalised to the full COLAB composition on the same
// machine (H_ANTT < 1 means the swap *helped*, > 1 means the replaced
// stage was pulling its weight). The governor rows are inert on the
// fixed-frequency 2B2S (no ladders to govern) — their 1.000 there is
// itself evidence the governor composes without side effects.
func (r *Runner) AblationTable(ctx context.Context) (*Table, error) {
	comps := []string{"Sync-2", "Rand-7"}
	cfgs := []cpu.Config{cpu.Config2B2S, cpu.Config2B2M2S}
	return r.stageAblation(ctx, comps, cfgs, StageAblationVariants())
}

// stageAblation is the parameterised core of AblationTable (tests run it
// on a reduced scope).
func (r *Runner) stageAblation(ctx context.Context, indexes []string, cfgs []cpu.Config, variants []StageAblationVariant) (*Table, error) {
	if len(variants) == 0 || variants[0].Label != "full colab" {
		return nil, fmt.Errorf("experiment: stage ablation needs the full-colab reference as its first variant")
	}
	var specs []workload.Spec
	for _, idx := range indexes {
		comp, ok := workload.CompositionByIndex(idx)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown composition %q", idx)
		}
		specs = append(specs, comp.Spec())
	}
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.Composition
	}
	res, err := r.batch(specs, cfgs, names).Run(ctx)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Stage ablation: one pipeline stage swapped at a time vs full COLAB (Sync-2 + Rand-7)",
		Header: []string{"variant", "composition"},
	}
	for _, cfg := range cfgs {
		t.Header = append(t.Header, cfg.Name+" H_ANTT", cfg.Name+" H_STP")
	}
	for vi, v := range variants {
		row := []string{v.Label, v.Composition}
		for ci := range cfgs {
			var antt, stp []float64
			for wi := range specs {
				// res is in cross-product order, variants innermost; the
				// full-colab reference is each row's first cell.
				at := (wi*len(cfgs) + ci) * len(names)
				base, got := res[at].Score, res[at+vi].Score
				antt = append(antt, got.HANTT/base.HANTT)
				stp = append(stp, got.HSTP/base.HSTP)
			}
			row = append(row, f3(mathx.GeoMean(antt)), f3(mathx.GeoMean(stp)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"normalised to the full COLAB composition per machine; H_ANTT > 1 = the replaced stage was load-bearing",
		"governor rows add DVFS stages: inert (1.000) on fixed-frequency 2B2S, active on the laddered 2B2M2S",
		"governors trade turnaround for energy by design; their win metric is EDP (colab-bench -trigear)")
	return t, nil
}
