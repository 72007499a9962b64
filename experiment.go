package colab

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"colab/internal/experiment"
	"colab/internal/workload"
)

// Experiment is a composable experiment session: a declarative
// workloads x machines x policies x seeds sweep that runs over a worker
// pool with automatic big-only baseline collection, returning auto-scored
// H_ANTT / H_STP cells. Build one with NewExperiment and functional
// options, then call Run:
//
//	exp := colab.NewExperiment(
//		colab.WithWorkloads("Sync-2", "Rand-7"),
//		colab.WithMachines(colab.EvaluatedConfigs()...),
//		colab.WithPolicies("linux", "wash", "colab"),
//		colab.WithSeeds(1, 2, 3),
//		colab.WithWorkers(8),
//	)
//	res, err := exp.Run(ctx)
//
// Results are deterministic: cells come back in cross-product order (seeds
// outermost, then workloads, machines, policies innermost) and are
// byte-identical for any worker count. Cancelling ctx aborts promptly —
// the simulation kernel itself is context-checked — and surfaces a wrapped
// ctx.Err().
type Experiment struct {
	workloads  []string
	machines   []Config
	policies   []string
	seeds      []uint64
	params     Params
	workers    int
	tracer     func(ExperimentTrace)
	model      *SpeedupModel
	shardIdx   int
	shardCount int
	checkpoint string
	cache      *CellCache
	observer   func(ExperimentResult)
	fleet      *Fleet
}

// ExperimentOption configures an Experiment session.
type ExperimentOption func(*Experiment)

// NewExperiment builds a session from options. Defaults: machine
// Config2B2S, the three paper policies (PaperPolicies), seed 1, default
// kernel costs, GOMAXPROCS workers. Workloads have no default; Run errors
// without WithWorkloads.
func NewExperiment(opts ...ExperimentOption) *Experiment {
	e := &Experiment{}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// WithWorkloads adds workload scenarios to the sweep: registered scenario
// names (the Table 4 indexes "Sync-2", "Rand-7", ... and anything from
// RegisterScenario) or scenario-grammar specs ("ferret:4+bodytrack:8",
// "Sync-2@seed=7", "ferret:4@arrive=poisson(5ms)"). Open-system scenarios
// score each app's turnaround from its own arrival time. Repeatable; at
// least one workload is required.
func WithWorkloads(specs ...string) ExperimentOption {
	return func(e *Experiment) { e.workloads = append(e.workloads, specs...) }
}

// WithMachine adds one machine shape to the sweep. Repeatable.
func WithMachine(cfg Config) ExperimentOption {
	return func(e *Experiment) { e.machines = append(e.machines, cfg) }
}

// WithMachines adds machine shapes to the sweep.
func WithMachines(cfgs ...Config) ExperimentOption {
	return func(e *Experiment) { e.machines = append(e.machines, cfgs...) }
}

// WithPolicies adds registry policy names (built-in like "linux", "wash",
// "colab", "colab-dvfs", or user names from RegisterPolicy). Unknown names
// surface from Run with the full registered-name list.
func WithPolicies(names ...string) ExperimentOption {
	return func(e *Experiment) { e.policies = append(e.policies, names...) }
}

// WithSeeds adds workload-generation seeds; the sweep runs one full
// sub-matrix per seed.
func WithSeeds(seeds ...uint64) ExperimentOption {
	return func(e *Experiment) { e.seeds = append(e.seeds, seeds...) }
}

// WithParams sets the kernel cost parameters for every run.
func WithParams(p Params) ExperimentOption {
	return func(e *Experiment) { e.params = p }
}

// WithWorkers bounds run parallelism (0 = GOMAXPROCS). Results do not
// depend on the worker count.
func WithWorkers(n int) ExperimentOption {
	return func(e *Experiment) { e.workers = n }
}

// ExperimentTrace is one traced scheduling event: the cell it belongs to,
// the core order of the run that produced it (each cell simulates
// big-first then little-first, and core IDs mean different tiers in the
// two layouts), and the event itself.
type ExperimentTrace struct {
	Run      ExperimentRun
	BigFirst bool
	Event    TraceEvent
}

// WithTracer streams every scheduling event of every mix run (baseline
// runs are not traced) to fn. A tracer forces sequential execution so the
// event stream is deterministic.
func WithTracer(fn func(ExperimentTrace)) ExperimentOption {
	return func(e *Experiment) { e.tracer = fn }
}

// WithSpeedupModel injects a pre-trained speedup model for the AMP-aware
// policies instead of the lazily trained default.
func WithSpeedupModel(m *SpeedupModel) ExperimentOption {
	return func(e *Experiment) { e.model = m }
}

// WithShard assigns this session shard index of count: one slice of the
// sweep, for fanning a large cross-product out over independent processes
// or hosts. The assignment is deterministic — derived from the session
// spec alone, so every shard agrees without coordination — and works in
// baseline-sharing groups (all cells of one seed + closed canonical
// scenario stay together), so no big-only-alone baseline is computed by
// two shards. Each shard returns its own cells in cross-product order;
// MergeShards reassembles the full result set byte-identical to an
// unsharded Run.
func WithShard(index, count int) ExperimentOption {
	return func(e *Experiment) { e.shardIdx, e.shardCount = index, count }
}

// WithCheckpoint journals completed cells to path (NDJSON, one fsynced
// record per cell keyed by CellKey) and replays the journal on start: a
// sweep killed mid-run resumes where it died when re-run with the same
// spec and path, and its final results are byte-identical to an
// uninterrupted run. Sharded sessions must use one path per shard.
func WithCheckpoint(path string) ExperimentOption {
	return func(e *Experiment) { e.checkpoint = path }
}

// WithCellCache attaches a shared content-addressed cell cache: cells
// whose CellKey is already cached are answered without simulation, and
// computed cells are stored for later sessions. Concurrent sessions
// sharing one cache dedup identical in-flight cells — the layer behind
// colab-serve.
func WithCellCache(c *CellCache) ExperimentOption {
	return func(e *Experiment) { e.cache = c }
}

// WithObserver streams cells to fn as the sweep runs: every cell of the
// session's result set is delivered exactly once, in the same
// deterministic cross-product order Run returns, each as soon as it and
// all its predecessors have completed — so the stream's content and order
// are independent of worker scheduling. fn is called from worker
// goroutines (one call at a time); the final ExperimentResults still
// carries every cell.
func WithObserver(fn func(ExperimentResult)) ExperimentOption {
	return func(e *Experiment) { e.observer = fn }
}

// ExperimentRun identifies one cell of a session: one (workload, machine,
// policy, seed) combination, scored over both core orders.
type ExperimentRun struct {
	Workload string
	Machine  string
	Policy   string
	Seed     uint64
}

// ExperimentResult is one scored cell: the auto-baselined H_ANTT / H_STP
// pair (each app's big-only-alone turnaround is collected and cached
// automatically; no manual baseline plumbing).
type ExperimentResult struct {
	Run   ExperimentRun
	Score MixScore
	// Key is the cell's canonical content address (see CellKey).
	Key CellKey
	// Cached reports the score was replayed from a checkpoint journal or
	// answered by a cell cache rather than simulated by this run.
	Cached bool
}

// ExperimentResults holds a session's cells in deterministic cross-product
// order.
type ExperimentResults struct {
	Cells []ExperimentResult
}

// batch resolves the session into its sweep: the parsed workload specs
// and the machines, policies and seeds with their defaults applied, whose
// cross-product (seeds outermost, then workloads, machines, policies
// innermost) is the session's cell set.
func (e *Experiment) batch() (*experiment.Batch, error) {
	if len(e.workloads) == 0 {
		return nil, fmt.Errorf("colab: experiment has no workloads (use WithWorkloads)")
	}
	specs := make([]workload.Spec, 0, len(e.workloads))
	for _, idx := range e.workloads {
		spec, err := workload.ResolveSpec(idx)
		if err != nil {
			return nil, fmt.Errorf("colab: %w", err)
		}
		specs = append(specs, spec)
	}
	machines, policies, seeds := experiment.DefaultAxes(e.machines, e.policies, e.seeds)
	b := &experiment.Batch{
		Scenarios:  specs,
		Configs:    machines,
		Policies:   policies,
		Seeds:      seeds,
		Params:     e.params,
		Workers:    e.workers,
		ShardIndex: e.shardIdx,
		ShardCount: e.shardCount,
		Cache:      e.cache,
	}
	if e.model != nil {
		b.Speedup = e.model.ThreadPredictor()
	}
	if e.tracer != nil {
		b.Tracer = func(key experiment.BatchKey, bigFirst bool, ev TraceEvent) {
			e.tracer(ExperimentTrace{Run: runFromKey(key), BigFirst: bigFirst, Event: ev})
		}
	}
	if e.observer != nil {
		b.Observer = func(c experiment.BatchCell) { e.observer(resultFromCell(c)) }
	}
	return b, nil
}

// Run executes the sweep and returns one result per cross-product cell
// (one result per this shard's cells when WithShard is set). With
// WithFleet, the sweep runs on the fleet's workers instead of in-process
// and returns the full reassembled result set.
func (e *Experiment) Run(ctx context.Context) (*ExperimentResults, error) {
	if e.fleet != nil {
		return e.runFleet(ctx)
	}
	b, err := e.batch()
	if err != nil {
		return nil, err
	}
	if e.checkpoint != "" {
		j, err := experiment.OpenJournal(e.checkpoint)
		if err != nil {
			return nil, fmt.Errorf("colab: %w", err)
		}
		defer j.Close()
		b.Journal = j
	}
	cells, err := b.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := &ExperimentResults{Cells: make([]ExperimentResult, len(cells))}
	for i, c := range cells {
		out.Cells[i] = resultFromCell(c)
	}
	return out, nil
}

// MergeShards reassembles the full result set from per-shard runs of the
// same session spec: the union of the shards' cells, reordered into the
// session's cross-product order — byte-identical (WriteCSV/WriteTable) to
// what an unsharded Run returns. It errors when the shards do not cover
// the sweep exactly (a missing shard, a shard run against a different
// spec, or the same shard twice).
func (e *Experiment) MergeShards(shards ...*ExperimentResults) (*ExperimentResults, error) {
	b, err := e.batch()
	if err != nil {
		return nil, err
	}
	plan, err := b.Plan()
	if err != nil {
		return nil, err
	}
	// Cells are matched by run identity; a list per run tolerates sweeps
	// that intentionally repeat an axis value (the duplicates are
	// indistinguishable, so any assignment is the right one).
	pool := make(map[ExperimentRun][]ExperimentResult)
	total := 0
	for _, s := range shards {
		for _, c := range s.Cells {
			pool[c.Run] = append(pool[c.Run], c)
			total++
		}
	}
	out := &ExperimentResults{}
	for _, pc := range plan {
		run := runFromKey(pc.Key)
		cells := pool[run]
		if len(cells) == 0 {
			return nil, fmt.Errorf("colab: merge is missing cell %s/%s/%s seed %d (were all shards of this session run?)",
				run.Workload, run.Machine, run.Policy, run.Seed)
		}
		out.Cells = append(out.Cells, cells[0])
		pool[run] = cells[1:]
		total--
	}
	if total != 0 {
		return nil, fmt.Errorf("colab: merge has %d surplus cells beyond the session's sweep (same shard merged twice, or a different session spec?)", total)
	}
	return out, nil
}

func resultFromCell(c experiment.BatchCell) ExperimentResult {
	return ExperimentResult{Run: runFromKey(c.Key), Score: c.Score, Key: c.CellKey, Cached: c.Cached}
}

func runFromKey(k experiment.BatchKey) ExperimentRun {
	return ExperimentRun{Workload: k.Workload, Machine: k.Config, Policy: k.Policy, Seed: k.Seed}
}

// Normalized returns a copy of the results with every cell's score divided
// by the same-(workload, machine, seed) cell of the reference policy
// (H_ANTT < 1 and H_STP > 1 then mean better than the reference). It
// errors when a reference cell is missing.
func (r *ExperimentResults) Normalized(refPolicy string) (*ExperimentResults, error) {
	type axis struct {
		workload, machine string
		seed              uint64
	}
	refs := make(map[axis]MixScore)
	for _, c := range r.Cells {
		if c.Run.Policy == refPolicy {
			refs[axis{c.Run.Workload, c.Run.Machine, c.Run.Seed}] = c.Score
		}
	}
	out := &ExperimentResults{Cells: make([]ExperimentResult, len(r.Cells))}
	for i, c := range r.Cells {
		ref, ok := refs[axis{c.Run.Workload, c.Run.Machine, c.Run.Seed}]
		if !ok {
			return nil, fmt.Errorf("colab: no %q reference cell for %s on %s seed %d",
				refPolicy, c.Run.Workload, c.Run.Machine, c.Run.Seed)
		}
		out.Cells[i] = c
		out.Cells[i].Score = MixScore{HANTT: c.Score.HANTT / ref.HANTT, HSTP: c.Score.HSTP / ref.HSTP}
	}
	return out, nil
}

// Each is the iterator face of the results: it calls yield for every cell
// in the deterministic cross-product order Run returned them, stopping
// early when yield returns false. It is a range-over-func iterator
// (`for cell := range res.Each` on toolchains with that feature) and
// equally callable directly; WriteCSV and WriteTable are built on it, as
// are streaming consumers that pair it with WithObserver's identical
// ordering.
func (r *ExperimentResults) Each(yield func(ExperimentResult) bool) {
	for _, c := range r.Cells {
		if !yield(c) {
			return
		}
	}
}

// WriteCSV writes the cells as CSV at full float precision. The bytes are
// deterministic for a given session spec, independent of worker count.
// Fields containing commas or quotes (scenario-grammar workload names like
// "...uniform(0ns,40ms)") are quoted per RFC 4180; plain names stay bare.
func (r *ExperimentResults) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "machine", "policy", "seed", "h_antt", "h_stp"}); err != nil {
		return err
	}
	var err error
	r.Each(func(c ExperimentResult) bool {
		err = cw.Write(csvRow(c))
		return err == nil
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// csvRow renders one cell as its WriteCSV record.
func csvRow(c ExperimentResult) []string {
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		c.Run.Workload, c.Run.Machine, c.Run.Policy,
		strconv.FormatUint(c.Run.Seed, 10), ff(c.Score.HANTT), ff(c.Score.HSTP),
	}
}

// WriteTable writes the cells as an aligned human-readable table.
func (r *ExperimentResults) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmachine\tpolicy\tseed\tH_ANTT\tH_STP")
	r.Each(func(c ExperimentResult) bool {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.3f\t%.3f\n",
			c.Run.Workload, c.Run.Machine, c.Run.Policy, c.Run.Seed, c.Score.HANTT, c.Score.HSTP)
		return true
	})
	return tw.Flush()
}
