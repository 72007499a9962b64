package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	colab "colab"
	"colab/internal/experiment"
	"colab/internal/metrics"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/workload"
)

// batchSpec is one closed-batch workload: the sweep axes of a pass.
type batchSpec struct {
	workloads []string
	machines  []colab.Config
	policies  []string
}

func (b batchSpec) cellsPerPass() int { return len(b.workloads) * len(b.machines) * len(b.policies) }

// paperSweep is the paper's 312-cell matrix: the 26 Table 4 mixes on the
// four big.LITTLE shapes under Linux, WASH and COLAB.
func paperSweep() batchSpec {
	var names []string
	for _, c := range workload.Compositions() {
		names = append(names, c.Index)
	}
	return batchSpec{names, colab.EvaluatedConfigs(), colab.PaperPolicies()}
}

// bigMachine is one 128-thread mix on the flat 128-core tri-gear machine
// and on the 256-core two-socket NUMA machine.
func bigMachine() batchSpec {
	return batchSpec{
		[]string{"ferret:32+bodytrack:32+radix:32+fft:32"},
		[]colab.Config{colab.Config32B32M64S, colab.Config2x32B32M64S},
		colab.PaperPolicies(),
	}
}

// Set-up is one training of the standard speedup model, which every
// batch run needs before its first AMP-aware cell. One training takes
// tens of milliseconds, and the host's speed drifts over seconds, so a
// run trains setupFirst times before its first pass and setupPerGap more
// times after every timed pass and sweep, and reports the median of all:
// the samples span the run, as the passes do.
const (
	setupFirst  = 11
	setupPerGap = 3
)

// train trains the standard speedup model n times, appends each
// training's time in seconds to times and returns the last model.
func train(n int, times *[]float64) (*perfmodel.Model, error) {
	var m *perfmodel.Model
	for i := 0; i < n; i++ {
		t := time.Now()
		var err error
		if m, err = perfmodel.TrainDefault(); err != nil {
			return nil, err
		}
		*times = append(*times, time.Since(t).Seconds())
	}
	return m, nil
}

// experiment is one pass of b as a sweep user runs it: nproc workers and a
// checkpoint journal, streaming cells to observe.
func (b batchSpec) experiment(seed uint64, model *perfmodel.Model, journal string, observe func(colab.ExperimentResult)) *colab.Experiment {
	return colab.NewExperiment(
		colab.WithWorkloads(b.workloads...),
		colab.WithMachines(b.machines...),
		colab.WithPolicies(b.policies...),
		colab.WithSeeds(seed),
		colab.WithWorkers(runtime.NumCPU()),
		colab.WithSpeedupModel(model),
		colab.WithCheckpoint(journal),
		colab.WithObserver(observe),
	)
}

// passResult is one untraced pass: the scored cells, when each was
// delivered (offset from the pass start) and the pass wall time.
type passResult struct {
	cells   []colab.ExperimentResult
	deliver []time.Duration
	wall    time.Duration
}

// runPass runs one pass of b through colab.NewExperiment with a fresh
// checkpoint journal at journal, timing every streamed cell.
func runPass(ctx context.Context, b batchSpec, seed uint64, model *perfmodel.Model, journal string) (passResult, error) {
	if err := os.Remove(journal); err != nil && !os.IsNotExist(err) {
		return passResult{}, err
	}
	defer os.Remove(journal)
	var pr passResult
	start := time.Now()
	// The observer is called one cell at a time, in plan order.
	res, err := b.experiment(seed, model, journal, func(colab.ExperimentResult) {
		pr.deliver = append(pr.deliver, time.Since(start))
	}).Run(ctx)
	pr.wall = time.Since(start)
	if err != nil {
		return pr, err
	}
	pr.cells = res.Cells
	return pr, nil
}

// badCells counts the cells of a pass that fail the plain oracle: the
// count must equal the plan and every score must be finite and positive.
func badCells(cells []colab.ExperimentResult, want int) int {
	bad := 0
	if len(cells) < want {
		bad += want - len(cells)
	}
	for _, c := range cells {
		for _, v := range []float64{c.Score.HANTT, c.Score.HSTP} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				bad++
				break
			}
		}
	}
	return bad
}

// mismatches counts cells whose scores differ in any bit between two
// passes of the same plan.
func mismatches(a []colab.ExperimentResult, b []metrics.MixScore) int {
	bad := 0
	for i := range a {
		if i >= len(b) || math.Float64bits(a[i].Score.HANTT) != math.Float64bits(b[i].HANTT) ||
			math.Float64bits(a[i].Score.HSTP) != math.Float64bits(b[i].HSTP) {
			bad++
		}
	}
	return bad
}

func scoresOf(cells []colab.ExperimentResult) []metrics.MixScore {
	out := make([]metrics.MixScore, len(cells))
	for i, c := range cells {
		out[i] = c.Score
	}
	return out
}

// goldenPath is the committed regression corpus, relative to the repo root.
const goldenPath = "internal/experiment/testdata/golden_paper_configs.txt"

// goldenMismatches checks a seed-1 paper-sweep pass against every mix line
// of the golden corpus it overlaps, bit for bit. It returns the overlap
// size and the number of mismatching cells.
func goldenMismatches(root string, cells []colab.ExperimentResult) (overlap, bad int, err error) {
	data, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return 0, 0, err
	}
	want := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "mix|") {
			continue
		}
		key, scores, ok := strings.Cut(strings.TrimPrefix(line, "mix|"), " ")
		if ok {
			want[key] = scores
		}
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range cells {
		w, ok := want[c.Run.Workload+"|"+c.Run.Machine+"|"+c.Run.Policy]
		if !ok {
			continue
		}
		overlap++
		if w != "HANTT="+ff(c.Score.HANTT)+" HSTP="+ff(c.Score.HSTP) {
			bad++
		}
	}
	return overlap, bad, sc.Err()
}

// goldenOverlap is how many paper-sweep cells the golden corpus pins: five
// mixes on the four paper shapes under the three paper policies.
const goldenOverlap = 60

// referenceLine renders COLAB's geomean H_ANTT/H_STP change against Linux
// and WASH over a paper-sweep pass beside the paper's headline figures.
func referenceLine(cells []colab.ExperimentResult) string {
	type axis struct{ w, m string }
	by := make(map[axis]map[string]colab.MixScore)
	for _, c := range cells {
		a := axis{c.Run.Workload, c.Run.Machine}
		if by[a] == nil {
			by[a] = make(map[string]colab.MixScore)
		}
		by[a][c.Run.Policy] = c.Score
	}
	delta := func(ref string) (antt, stp float64) {
		var ra, rs []float64
		for _, p := range by {
			co, r := p[policy.COLAB], p[ref]
			ra = append(ra, co.HANTT/r.HANTT)
			rs = append(rs, co.HSTP/r.HSTP)
		}
		return 100 * (geomean(ra) - 1), 100 * (geomean(rs) - 1)
	}
	la, ls := delta(policy.Linux)
	wa, ws := delta(policy.WASH)
	return fmt.Sprintf("reference (seed 1, geomean of %d workload x machine pairs): COLAB vs Linux H_ANTT %+.1f%% H_STP %+.1f%% (paper -11%%/+15%%); "+
		"COLAB vs WASH H_ANTT %+.1f%% H_STP %+.1f%% (paper -5%%/+6%%); model unvalidated against hardware; reference is the paper's gem5 headline",
		len(by), la, ls, wa, ws)
}

// oracle is what every pass of one run is checked against.
type oracle struct {
	want   int                // planned cells per pass
	expect []metrics.MixScore // the first pass at the run's seed
}

// oraclePass runs the untimed first pass of a run, which doubles as
// warm-up, and starts the run's oracle. A golden workload runs it at seed
// 1, the seed of the golden corpus and the paper's headline, and must
// match the corpus bit for bit; it also prints the reference line.
func oraclePass(ctx context.Context, o options, b batchSpec, golden bool, model *perfmodel.Model, journal string, r *result) (*oracle, error) {
	or := &oracle{want: b.cellsPerPass()}
	seed := o.seed
	if golden {
		seed = 1
	}
	p, err := runPass(ctx, b, seed, model, journal)
	if err != nil {
		return nil, err
	}
	r.attempted += or.want
	r.failed += badCells(p.cells, or.want)
	if golden {
		overlap, bad, err := goldenMismatches(o.root, p.cells)
		if err != nil {
			return nil, err
		}
		if overlap != goldenOverlap {
			return nil, fmt.Errorf("golden corpus overlaps %d cells, want %d", overlap, goldenOverlap)
		}
		r.failed += bad
		r.lines = append(r.lines, fmt.Sprintf("oracle: %d/%d golden cells match bit for bit", overlap-bad, overlap))
		r.lines = append(r.lines, referenceLine(p.cells))
	}
	if seed == o.seed {
		or.expect = scoresOf(p.cells)
	}
	return or, nil
}

// check counts the cells of a pass at the run's seed that fail the oracle:
// the planned count, finite positive scores, and the same bits as the
// first pass at that seed.
func (or *oracle) check(r *result, cells []colab.ExperimentResult) {
	r.attempted += or.want
	r.failed += badCells(cells, or.want)
	if or.expect == nil {
		or.expect = scoresOf(cells)
		return
	}
	r.failed += mismatches(cells, or.expect)
}

// minSamples is the fewest timed passes and served sweeps an untraced run
// takes, however short its time budget.
const minSamples = 3

// runBatch is an untraced run of a closed-batch workload: set-up, the
// oracle pass, then a timed in-process pass and a served sweep of the same
// plan through colab-serve, in turn, until the time budget is spent. The
// two kinds alternate so that both sample the host over the whole run.
func runBatch(ctx context.Context, o options, b batchSpec, golden bool) (*result, error) {
	r := newResult()
	var setup []float64
	model, err := train(setupFirst, &setup)
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(o.workDir, fmt.Sprintf("journal-%d.ndjson", os.Getpid()))
	or, err := oraclePass(ctx, o, b, golden, model, journal, r)
	if err != nil {
		return nil, err
	}

	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var rates, lat, served, peaks []float64
	for len(served) < minSamples || time.Since(start) < budget {
		// Every pass starts from a collected heap whose free memory has
		// gone back to the OS, so its peak resident set is its own.
		debug.FreeOSMemory()
		stopRSS := sampleRSS()
		p, err := runPass(ctx, b, o.seed, model, journal)
		rss, rerr := stopRSS()
		if err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
		or.check(r, p.cells)
		rates = append(rates, float64(len(p.cells))/p.wall.Seconds())
		for _, d := range p.deliver {
			lat = append(lat, ms(d))
		}
		if _, err := train(setupPerGap, &setup); err != nil {
			return nil, err
		}
		sw, err := serveSweep(ctx, o, b, p.cells, r)
		if err != nil {
			return nil, err
		}
		cells, _ := sw.cells()
		served = append(served, float64(cells)/sw.wall.Seconds())
		if _, err := train(setupPerGap, &setup); err != nil {
			return nil, err
		}
	}
	r.set("cells_per_s", median(rates), fmt.Sprintf("median of %d passes", len(rates)))
	r.setLatency("req", lat, "cell delivery from pass start")
	r.set("served_cells_per_s", median(served), fmt.Sprintf("median of %d sweeps, each the plan served twice by a fresh colab-serve", len(served)))
	r.set("peak_rss_mb", median(peaks), fmt.Sprintf("median of %d passes' peak resident sets, sampled every %v", len(peaks), rssEvery))
	r.set("setup_s", median(setup), fmt.Sprintf("median of %d model trainings spread over the run", len(setup)))
	return r, nil
}

// runBatchTraced is a traced run of a closed-batch workload: the oracle
// pass, then pairs of an untraced, CPU-profiled pass and a traced replay
// of the same plan until the time budget is spent, then one served sweep
// for the serve layer. Every pass is checked as in an untraced run, and
// every replayed score must equal the untraced one bit for bit.
func runBatchTraced(ctx context.Context, o options, b batchSpec, golden bool) (*result, error) {
	r := newResult()
	var trainings []float64
	model, err := train(setupFirst, &trainings)
	if err != nil {
		return nil, err
	}
	r.set("perfmodel.train_s", median(trainings), fmt.Sprintf("median of %d trainings", len(trainings)))
	journal := filepath.Join(o.workDir, fmt.Sprintf("journal-%d.ndjson", os.Getpid()))
	or, err := oraclePass(ctx, o, b, golden, model, journal, r)
	if err != nil {
		return nil, err
	}
	cfgs := make(map[string]colab.Config)
	for _, c := range b.machines {
		cfgs[c.Name] = c
	}
	rp := &replayer{pctx: policy.Context{Speedup: model.ThreadPredictor()}, origin: time.Now()}
	tot := newLayerTotals()
	prof := &profileSet{dir: o.workDir}
	var plainWalls, tracedWalls, allocMB, allocs, gcs []float64
	var last []colab.ExperimentResult
	var tracedWall time.Duration
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(tracedWalls) < 1 || time.Now().Before(deadline) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		stop, err := prof.start()
		if err != nil {
			return nil, err
		}
		p, err := runPass(ctx, b, o.seed, model, journal)
		if serr := stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		or.check(r, p.cells)
		last = p.cells
		plainWalls = append(plainWalls, p.wall.Seconds())
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		gcs = append(gcs, float64(after.NumGC-before.NumGC))

		plan := make([]replayCell, len(p.cells))
		for i, c := range p.cells {
			plan[i] = replayCell{c.Run.Workload, cfgs[c.Run.Machine], c.Run.Policy, c.Run.Seed}
		}
		j, err := experiment.OpenJournal(journal)
		if err != nil {
			return nil, err
		}
		rp.journal, rp.pass = j, len(tracedWalls)
		t := time.Now()
		scores, l, err := rp.replay(ctx, plan, runtime.NumCPU())
		w := time.Since(t)
		j.Close()
		os.Remove(journal)
		if err != nil {
			return nil, err
		}
		r.attempted += len(plan)
		r.failed += mismatches(p.cells, scores)
		tot.merge(l)
		tracedWall += w
		tracedWalls = append(tracedWalls, w.Seconds())
	}
	passes := len(tracedWalls)
	layerMetrics(r.metrics, tot, passes, runtime.NumCPU(), tracedWall)
	r.set("runtime.alloc_mb", median(allocMB), "per untraced pass")
	r.set("runtime.gc_cycles", median(gcs), "per untraced pass")
	if ev := tot.events / uint64(passes); ev > 0 {
		r.set("runtime.allocs_per_event", median(allocs)/float64(ev), "")
	}
	r.set("trace.overhead_ratio", median(tracedWalls)/median(plainWalls), "traced replay wall over untraced pass wall")
	if err := prof.shares(r); err != nil {
		return nil, err
	}
	r.lines = append(r.lines, fmt.Sprintf("traced: %d passes, replayed scores checked bit for bit against the untraced passes", passes))
	sw, err := serveSweep(ctx, o, b, last, r)
	if err != nil {
		return nil, err
	}
	serveLayerMetrics(r, sw)
	return r, writeSpans(o, tot.spans)
}
