// Package fleet is the multi-host coordination layer of the sweep engine:
// a coordinator that deals deterministic shard assignments of one
// experiment sweep to registered worker daemons over HTTP, streams each
// worker's per-cell NDJSON results back, and reassembles the union —
// byte-identical to the same sweep run unsharded in one process.
//
// The division of labour with internal/experiment is strict: experiment
// owns what a sweep *is* (the cross-product plan, shard assignment by
// baseline-sharing group, cell identity via CellKey, checkpoint journals,
// the cell cache), while fleet owns only *where* shards run and how
// failures are survived — worker registration with liveness heartbeats,
// per-shard retry with exponential backoff, reassignment of a dead
// worker's shard to a survivor (shipping the coordinator's copy of the
// failed shard's checkpoint journal so completed cells replay instead of
// recomputing), and idempotent result ingestion that tolerates duplicate
// cells from retried shards.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/kernel"
	"colab/internal/workload"
)

// Spec is the wire form of one sweep: the session axes shipped from the
// coordinator to every worker. All fields are registry names or grammar
// strings, resolved identically on both sides through the process-wide
// registries — a worker binary must have the same policies, scenarios and
// named machines registered as the coordinator.
type Spec struct {
	// Workloads are scenario names or scenario-grammar specs (resolved via
	// workload.ResolveSpec). At least one is required.
	Workloads []string `json:"workloads"`
	// Machines are registered machine-config names (cpu.ConfigByName).
	// At least one is required.
	Machines []string `json:"machines"`
	// Policies are registry policy names or composition-grammar strings.
	// At least one is required.
	Policies []string `json:"policies"`
	// Seeds drive workload generation; at least one is required.
	Seeds []uint64 `json:"seeds"`
	// Params are the kernel cost parameters (all numeric, so they travel
	// exactly; the zero value selects the defaults, as everywhere else).
	Params kernel.Params `json:"params"`
	// Workers bounds each worker daemon's run parallelism for this sweep
	// (0 = the worker's GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// resolve materialises the spec's axes through the process-wide
// registries. Both the coordinator (to plan) and every worker (to run)
// resolve the same wire spec, so they agree on the plan by construction.
func (s Spec) resolve() (specs []workload.Spec, cfgs []cpu.Config, err error) {
	if len(s.Workloads) == 0 || len(s.Machines) == 0 || len(s.Policies) == 0 || len(s.Seeds) == 0 {
		return nil, nil, fmt.Errorf("fleet: spec needs at least one workload, machine, policy and seed")
	}
	for _, w := range s.Workloads {
		spec, err := workload.ResolveSpec(w)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: %w", err)
		}
		if terms := spec.TraceFiles(); len(terms) != 0 {
			return nil, nil, fmt.Errorf("fleet: workload %q replays the local trace file of term %q — trace files do not travel the wire, inline the times with @arrive=trace(...)", w, terms[0])
		}
		specs = append(specs, spec)
	}
	for _, name := range s.Machines {
		cfg, ok := cpu.ConfigByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("fleet: unknown machine %q (fleet sweeps use registered machine names)", name)
		}
		cfgs = append(cfgs, cfg)
	}
	return specs, cfgs, nil
}

// batch builds the experiment batch both sides derive the plan from. Only
// the shard coordinates differ between the coordinator's planning batch
// (ShardCount = fleet width, no index) and a worker's execution batch.
func (s Spec) batch(shardIndex, shardCount int) (*experiment.Batch, error) {
	specs, cfgs, err := s.resolve()
	if err != nil {
		return nil, err
	}
	return &experiment.Batch{
		Scenarios:  specs,
		Configs:    cfgs,
		Policies:   s.Policies,
		Seeds:      s.Seeds,
		Params:     s.Params,
		Workers:    s.Workers,
		ShardIndex: shardIndex,
		ShardCount: shardCount,
	}, nil
}

// Cell is the wire form of one scored cell: the sweep coordinates, the
// auto-baselined scores, the canonical content address, and whether the
// worker answered it from its cache or a shipped journal rather than
// simulating. Scores travel as JSON numbers in shortest-round-trip form,
// so an ingested cell is bit-identical to the worker's computed one.
type Cell struct {
	Workload string  `json:"workload"`
	Machine  string  `json:"machine"`
	Policy   string  `json:"policy"`
	Seed     uint64  `json:"seed"`
	HANTT    float64 `json:"h_antt"`
	HSTP     float64 `json:"h_stp"`
	Key      string  `json:"cell_key"`
	Cached   bool    `json:"cached"`
}

// runRequest is the body of a coordinator's POST to a worker's /run: the
// sweep spec, the shard this worker is to execute, and — on reassignment
// of a failed shard — the coordinator's copy of the shard's checkpoint
// journal, which the worker replays so already-streamed cells are not
// recomputed.
type runRequest struct {
	Spec       Spec                       `json:"spec"`
	ShardIndex int                        `json:"shard_index"`
	ShardCount int                        `json:"shard_count"`
	Journal    []experiment.JournalRecord `json:"journal,omitempty"`
}

// streamLine is one NDJSON line of a worker's /run response: a cell, or a
// terminal in-band error when the run failed after streaming began.
type streamLine struct {
	Cell
	Error string `json:"error,omitempty"`
}

// Request body bounds. A run request carries a sweep spec and, for a
// reassigned shard, the coordinator's copy of that shard's checkpoint
// journal (a few hundred bytes per completed cell), so its cap is
// generous; a registration is one URL.
const (
	MaxRunRequestBytes   = 16 << 20
	MaxRegistrationBytes = 4 << 10
)

// decodeBody decodes r's JSON body into v, reading at most limit bytes.
// On failure it returns the status to answer with: 413 when the body is
// over the limit, 400 when it is malformed.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, err
	case err != nil:
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

// registration is the body of a worker's POST to the coordinator's
// /register and /heartbeat: the URL the coordinator should dispatch to.
type registration struct {
	URL string `json:"url"`
}

// WorkerStats is a point-in-time snapshot of a worker daemon's counters,
// served on its /stats endpoint next to its cell-cache stats.
type WorkerStats struct {
	// ShardsRun counts /run requests accepted (including failed ones).
	ShardsRun uint64 `json:"shards_run"`
	// CellsStreamed counts result cells streamed back to coordinators.
	CellsStreamed uint64 `json:"cells_streamed"`
	// JournalSeeded counts checkpoint records received from coordinators
	// on shard reassignment and replayed instead of recomputed.
	JournalSeeded uint64 `json:"journal_seeded"`
	// Cache is the worker's cell-cache counters.
	Cache experiment.CacheStats `json:"cache"`
}
