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
	"net/url"
	"strconv"
	"strings"
	"time"

	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/kernel"
	"colab/internal/workload"
)

// Spec is the one wire form of a sweep: the session axes shipped from the
// coordinator to every worker, and what colab-serve and colab-fleet parse
// their parameters into (ParseRequest). All fields are registry names or grammar
// strings, resolved identically on both sides through the process-wide
// registries — a worker binary must have the same policies, scenarios and
// named machines registered as the coordinator.
type Spec struct {
	// Workloads are scenario names or scenario-grammar specs (resolved via
	// workload.ResolveSpec). At least one is required.
	Workloads []string `json:"workloads"`
	// Machines are named machine shapes (Machine). Empty means 2B2S.
	Machines []string `json:"machines"`
	// Policies are registry policy names or composition-grammar strings.
	// Empty means the paper policies.
	Policies []string `json:"policies"`
	// Seeds drive workload generation. Empty means seed 1.
	Seeds []uint64 `json:"seeds"`
	// Params are the kernel cost parameters (all numeric, so they travel
	// exactly; the zero value selects the defaults, as everywhere else).
	Params kernel.Params `json:"params"`
	// Workers bounds each worker daemon's run parallelism for this sweep
	// (0 = the worker's GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// ParseRequest is the one parser of a sweep spelled as list parameters
// (colab-serve's query, colab-fleet's flags). workload, machine, policy
// and seed take comma-separated values and may repeat; workers,
// shard_index and shard_count take one integer each. Names are resolved
// later, by Spec.Batch.
func ParseRequest(v url.Values) (Request, error) {
	list := func(key string) []string {
		var out []string
		for _, part := range strings.Split(strings.Join(v[key], ","), ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
		return out
	}
	req := Request{Spec: Spec{Workloads: list("workload"), Machines: list("machine"), Policies: list("policy")}}
	for _, raw := range list("seed") {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return Request{}, fmt.Errorf("seed %q is not an unsigned integer", raw)
		}
		req.Spec.Seeds = append(req.Spec.Seeds, n)
	}
	var scalar [3]string
	for i, key := range []string{"workers", "shard_index", "shard_count"} {
		var err error
		if scalar[i], err = OneValue(v, key); err != nil {
			return Request{}, err
		}
	}
	if workers := scalar[0]; workers != "" {
		n, err := strconv.Atoi(workers)
		if err != nil || n < 1 {
			return Request{}, fmt.Errorf("workers %q is not a positive integer", workers)
		}
		req.Spec.Workers = n
	}
	if idx, cnt := scalar[1], scalar[2]; idx != "" || cnt != "" {
		var err1, err2 error
		req.ShardIndex, err1 = strconv.Atoi(idx)
		req.ShardCount, err2 = strconv.Atoi(cnt)
		if err1 != nil || err2 != nil {
			return Request{}, fmt.Errorf("shard_index and shard_count must be set together as integers")
		}
	}
	return req, nil
}

// OneValue returns the value of a parameter that takes one ("" when it is
// absent). A repeated one is an error: there is no right way to pick.
func OneValue(v url.Values, key string) (string, error) {
	if vals := v[key]; len(vals) > 1 {
		return "", fmt.Errorf("%s is given %d times; it takes one value", key, len(vals))
	} else if len(vals) == 1 {
		return strings.TrimSpace(vals[0]), nil
	}
	return "", nil
}

// Machine resolves a named machine shape: the one lookup of a machine
// name on the sweep wire.
func Machine(name string) (cpu.Config, error) {
	if cfg, ok := cpu.ConfigByName(name); ok {
		return cfg, nil
	}
	return cpu.Config{}, fmt.Errorf("unknown machine %q (known named shapes: %s)", name, strings.Join(cpu.NamedConfigNames(), ", "))
}

// Batch resolves the spec into the batch that runs it with the given
// shard coordinates: the one resolver of the sweep wire form, so the
// coordinator and every worker agree on the plan. Empty axes take
// experiment.DefaultAxes. A workload replaying a local trace file is
// refused: its content does not travel by name.
func (s Spec) Batch(shardIndex, shardCount int) (*experiment.Batch, error) {
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("at least one workload is required (a registered name or a scenario-grammar spec)")
	}
	b := &experiment.Batch{Params: s.Params, Workers: s.Workers, ShardIndex: shardIndex, ShardCount: shardCount}
	for _, w := range s.Workloads {
		spec, err := workload.ResolveSpec(w)
		if err != nil {
			return nil, err
		}
		if terms := spec.TraceFiles(); len(terms) != 0 {
			return nil, fmt.Errorf("workload %q replays the local trace file of term %q, which does not travel the wire by name; inline the times with @arrive=trace(...)", w, terms[0])
		}
		b.Scenarios = append(b.Scenarios, spec)
	}
	var cfgs []cpu.Config
	for _, name := range s.Machines {
		cfg, err := Machine(name)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	b.Configs, b.Policies, b.Seeds = experiment.DefaultAxes(cfgs, s.Policies, s.Seeds)
	return b, nil
}

// Cell is the one cell line of the sweep wire (docs/API.md, "The cell
// line"): coordinates, @class= label (omitted when unclassified), scores,
// content address, and whether a cache or journal answered it. Scores
// travel in shortest-round-trip form, so a decoded cell is bit-identical
// to the computed one.
type Cell struct {
	Workload string  `json:"workload"`
	Class    string  `json:"class,omitempty"`
	Machine  string  `json:"machine"`
	Policy   string  `json:"policy"`
	Seed     uint64  `json:"seed"`
	HANTT    float64 `json:"h_antt"`
	HSTP     float64 `json:"h_stp"`
	Key      string  `json:"cell_key"`
	Cached   bool    `json:"cached"`
}

// Request is one shard run, the body of a coordinator's POST to a
// worker's /run: the sweep spec, the shard, and — when a failed shard is
// reassigned — the coordinator's copy of its checkpoint journal, replayed
// so already-streamed cells are not recomputed.
type Request struct {
	Spec       Spec                       `json:"spec"`
	ShardIndex int                        `json:"shard_index"`
	ShardCount int                        `json:"shard_count"`
	Journal    []experiment.JournalRecord `json:"journal,omitempty"`
}

// errorLine is the terminal in-band line of a stream that failed after
// its first cell.
type errorLine struct {
	Error string `json:"error"`
}

// Request body bounds. A run request carries a sweep spec and, for a
// reassigned shard, the coordinator's copy of that shard's checkpoint
// journal (a few hundred bytes per completed cell), so its cap is
// generous; a registration is one URL.
const (
	MaxRunRequestBytes   = 16 << 20
	MaxRegistrationBytes = 4 << 10
)

// ReadHeaderTimeout bounds how long a peer may take to send its request
// headers, on every sweep server: a stalled client cannot hold a
// connection open.
const ReadHeaderTimeout = 10 * time.Second

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
