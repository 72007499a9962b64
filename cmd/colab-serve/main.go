// Command colab-serve exposes the experiment session API as an HTTP
// service: POST (or GET) a sweep spec — scenario-grammar workloads,
// policy-composition strings, named machine shapes, seeds — to /run and
// the per-cell scores stream back as NDJSON in the sweep's deterministic
// cross-product order, each line flushed as its cell completes.
//
// All requests share one content-addressed cell cache keyed by the
// canonical cell coordinates (see colab.CellKey): a repeated request —
// or any request overlapping an earlier one, however the workloads and
// policies were spelled — is answered from cache, and concurrent
// identical cells are computed once. /stats reports the cache counters.
//
// Usage:
//
//	colab-serve -addr :8080 -max-concurrent 8 -cache-limit 100000
//	curl 'localhost:8080/run?workload=Sync-1&policy=linux,colab&seed=1'
//	curl localhost:8080/stats
//
// -max-concurrent bounds simultaneous /run sweeps (excess requests get
// 429 with Retry-After rather than queueing unboundedly), -cache-limit
// bounds the cell cache with LRU eviction, and SIGTERM/SIGINT shut down
// gracefully: the listener closes, in-flight /run streams drain to
// completion (up to -drain-timeout), then the process exits 0.
//
// Endpoints:
//
//	GET/POST /run      stream one NDJSON object per cell (see cellLine);
//	                   cells carry the spec's @class= label, and with
//	                   ?classes=1 the stream ends with the per-class
//	                   grouping (one classLine per class x policy)
//	GET      /stats    cache and service counters, JSON
//	GET      /healthz  liveness probe
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	colab "colab"
	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/workload"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a slow or stalled client cannot hold a connection open.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "bound simultaneous /run sweeps; excess requests get 429 (0 = unbounded)")
	cacheLimit := flag.Int("cache-limit", 0, "bound the cell cache to this many cells, LRU-evicted (0 = unbounded)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget for in-flight streams")
	flag.Parse()
	s := newServer(serverOptions{maxConcurrent: *maxConcurrent, cacheLimit: *cacheLimit})
	srv := &http.Server{Addr: *addr, Handler: s, ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "colab-serve: listening on %s\n", *addr)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "colab-serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "colab-serve: shutting down, draining in-flight streams (up to %s)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "colab-serve: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "colab-serve: drained, exiting")
}

// serverOptions configure the service: both zero values mean unbounded.
type serverOptions struct {
	maxConcurrent int
	cacheLimit    int
}

// server is the service state: one shared cell cache, the concurrency
// gate and the request counters. Its handler is safe for concurrent use.
type server struct {
	mux         *http.ServeMux
	cache       *colab.CellCache
	sem         chan struct{} // nil = unbounded
	requests    atomic.Uint64
	cellsServed atomic.Uint64
	rejected    atomic.Uint64
	inflight    atomic.Int64

	// testHold, when set, is called while a /run request holds its
	// concurrency slot — the tests' deterministic way to keep a sweep
	// in flight. Nil in production.
	testHold func()
}

func newServer(opts serverOptions) *server {
	s := &server{
		mux:   http.NewServeMux(),
		cache: colab.NewCellCache(colab.WithCellCacheLimit(opts.cacheLimit)),
	}
	if opts.maxConcurrent > 0 {
		s.sem = make(chan struct{}, opts.maxConcurrent)
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// cellLine is one streamed result: the cell's sweep coordinates, its
// scores, its canonical content address, and whether the cache (or a
// checkpoint journal) answered it. Class carries the workload spec's
// @class= label (empty for unclassified scenarios).
type cellLine struct {
	Workload string  `json:"workload"`
	Class    string  `json:"class,omitempty"`
	Machine  string  `json:"machine"`
	Policy   string  `json:"policy"`
	Seed     uint64  `json:"seed"`
	HANTT    float64 `json:"h_antt"`
	HSTP     float64 `json:"h_stp"`
	CellKey  string  `json:"cell_key"`
	Cached   bool    `json:"cached"`
}

// classLine is one row of the ?classes=1 trailer: the ClassTable grouping
// of the streamed cells, geomeaned per (class, policy) in first-seen
// stream order.
type classLine struct {
	Class  string  `json:"class"`
	Policy string  `json:"policy"`
	Cells  int     `json:"cells"`
	HANTT  float64 `json:"geomean_h_antt"`
	HSTP   float64 `json:"geomean_h_stp"`
}

// classLines folds the streamed cells into the per-class grouping.
func classLines(cells []cellLine) []classLine {
	type key struct{ class, policy string }
	var out []classLine
	groups := make(map[key][]cellLine)
	var order []key
	for _, c := range cells {
		class := c.Class
		if class == "" {
			class = "unclassified"
		}
		k := key{class, c.Policy}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, k := range order {
		g := groups[k]
		antt := make([]float64, len(g))
		stp := make([]float64, len(g))
		for i, c := range g {
			antt[i], stp[i] = c.HANTT, c.HSTP
		}
		out = append(out, classLine{
			Class: k.class, Policy: k.policy, Cells: len(g),
			HANTT: mathx.GeoMean(antt), HSTP: mathx.GeoMean(stp),
		})
	}
	return out
}

// splitList flattens repeated and comma-separated query values into one
// trimmed list: ?policy=linux,wash&policy=colab is three policies.
func splitList(values []string) []string {
	var out []string
	for _, v := range values {
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
	}
	return out
}

// optionsFromQuery translates the request's query parameters into
// session options, plus the resolved workload-name -> @class= label map
// the NDJSON stream annotates cells with. Unknown machine names and
// malformed numbers are caught here; workload and policy spellings are
// validated by Run itself.
func (s *server) optionsFromQuery(q map[string][]string) ([]colab.ExperimentOption, map[string]string, error) {
	opts := []colab.ExperimentOption{colab.WithCellCache(s.cache)}
	workloads := splitList(q["workload"])
	if len(workloads) == 0 {
		return nil, nil, fmt.Errorf("at least one workload parameter is required (a registered name or a scenario-grammar spec)")
	}
	classOf := make(map[string]string)
	for _, w := range workloads {
		// Unresolvable workloads fall through: Run reports them with the
		// registered inventories.
		if spec, err := workload.ResolveSpec(w); err == nil {
			if terms := spec.TraceFiles(); len(terms) != 0 {
				return nil, nil, fmt.Errorf("workload %q replays the local trace file of term %q; the service resolves workloads by name, so inline the times with @arrive=trace(...)", w, terms[0])
			}
			classOf[spec.Name] = string(spec.Class)
		}
	}
	opts = append(opts, colab.WithWorkloads(workloads...))
	if names := splitList(q["machine"]); len(names) > 0 {
		var cfgs []colab.Config
		for _, name := range names {
			cfg, ok := cpu.ConfigByName(name)
			if !ok {
				known := make([]string, 0, 4)
				for _, c := range cpu.NamedConfigs() {
					known = append(known, c.Name)
				}
				return nil, nil, fmt.Errorf("unknown machine %q (known: %s)", name, strings.Join(known, ", "))
			}
			cfgs = append(cfgs, cfg)
		}
		opts = append(opts, colab.WithMachines(cfgs...))
	}
	if policies := splitList(q["policy"]); len(policies) > 0 {
		opts = append(opts, colab.WithPolicies(policies...))
	}
	if raw := splitList(q["seed"]); len(raw) > 0 {
		var seeds []uint64
		for _, v := range raw {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("seed %q is not an unsigned integer", v)
			}
			seeds = append(seeds, n)
		}
		opts = append(opts, colab.WithSeeds(seeds...))
	}
	if v := strings.TrimSpace(strings.Join(q["workers"], "")); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, nil, fmt.Errorf("workers %q is not a positive integer", v)
		}
		opts = append(opts, colab.WithWorkers(n))
	}
	idxRaw, cntRaw := q["shard_index"], q["shard_count"]
	if len(idxRaw) > 0 || len(cntRaw) > 0 {
		idx, err1 := strconv.Atoi(strings.Join(idxRaw, ""))
		cnt, err2 := strconv.Atoi(strings.Join(cntRaw, ""))
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("shard_index and shard_count must be set together as integers")
		}
		opts = append(opts, colab.WithShard(idx, cnt))
	}
	return opts, classOf, nil
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
		return
	}
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			// At capacity: shed rather than queue, so latency stays bounded
			// and the client can retry or go elsewhere.
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "colab-serve: at capacity (-max-concurrent sweeps in flight), retry shortly", http.StatusTooManyRequests)
			return
		}
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.testHold != nil {
		s.testHold()
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts, classOf, err := s.optionsFromQuery(r.Form)
	if err != nil {
		http.Error(w, "colab-serve: "+err.Error(), http.StatusBadRequest)
		return
	}
	wantClasses := false
	if v := strings.TrimSpace(strings.Join(r.Form["classes"], "")); v != "" && v != "0" && v != "false" {
		wantClasses = true
	}

	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	streamed := 0
	var collected []cellLine
	opts = append(opts, colab.WithObserver(func(c colab.ExperimentResult) {
		if streamed == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		streamed++
		s.cellsServed.Add(1)
		line := cellLine{
			Workload: c.Run.Workload,
			Class:    classOf[c.Run.Workload],
			Machine:  c.Run.Machine,
			Policy:   c.Run.Policy,
			Seed:     c.Run.Seed,
			HANTT:    c.Score.HANTT,
			HSTP:     c.Score.HSTP,
			CellKey:  c.Key.String(),
			Cached:   c.Cached,
		}
		if wantClasses {
			collected = append(collected, line)
		}
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}))
	if _, err := colab.NewExperiment(opts...).Run(r.Context()); err != nil {
		if streamed == 0 {
			// Nothing written yet: a bad spec (unknown workload or policy,
			// invalid shard coordinates) is still a clean 400.
			http.Error(w, "colab-serve: "+err.Error(), http.StatusBadRequest)
			return
		}
		// Mid-stream failure: the status line is gone, so report in-band.
		enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	if wantClasses {
		// The class trailer: the ClassTable grouping of the cells just
		// streamed, one NDJSON object per (class, policy) group.
		for _, cl := range classLines(collected) {
			enc.Encode(cl)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Requests    uint64           `json:"requests"`
		CellsServed uint64           `json:"cells_served"`
		Rejected    uint64           `json:"rejected"`
		Inflight    int64            `json:"inflight"`
		Cache       colab.CacheStats `json:"cache"`
	}{s.requests.Load(), s.cellsServed.Load(), s.rejected.Load(), s.inflight.Load(), s.cache.Stats()})
}
