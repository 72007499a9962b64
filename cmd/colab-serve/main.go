// Command colab-serve exposes sweeps as an HTTP service: POST (or GET) a
// sweep spec — scenario-grammar workloads, policy-composition strings,
// named machine shapes, seeds — to /run and the per-cell scores stream
// back as NDJSON in the sweep's deterministic cross-product order, each
// line flushed as its cell completes. /run parses its query into the
// fleet wire spec and runs it the way a colab-fleet worker runs a shard,
// so both stream the same cell line (docs/API.md, "The cell line").
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
//	GET/POST /run      stream one NDJSON cell line per cell;
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
	"sync/atomic"
	"syscall"
	"time"

	colab "colab"
	"colab/internal/fleet"
	"colab/internal/mathx"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "bound simultaneous /run sweeps; excess requests get 429 (0 = unbounded)")
	cacheLimit := flag.Int("cache-limit", 0, "bound the cell cache to this many cells, LRU-evicted (0 = unbounded)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget for in-flight streams")
	flag.Parse()
	s := newServer(serverOptions{maxConcurrent: *maxConcurrent, cacheLimit: *cacheLimit})
	srv := &http.Server{Addr: *addr, Handler: s, ReadHeaderTimeout: fleet.ReadHeaderTimeout}
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
func classLines(cells []fleet.Cell) []classLine {
	type key struct{ class, policy string }
	index := make(map[key]int)
	var (
		out       []classLine
		antt, stp [][]float64
	)
	for _, c := range cells {
		if c.Class == "" {
			c.Class = "unclassified"
		}
		i, ok := index[key{c.Class, c.Policy}]
		if !ok {
			i = len(out)
			index[key{c.Class, c.Policy}] = i
			out = append(out, classLine{Class: c.Class, Policy: c.Policy})
			antt, stp = append(antt, nil), append(stp, nil)
		}
		out[i].Cells++
		antt[i], stp[i] = append(antt[i], c.HANTT), append(stp[i], c.HSTP)
	}
	for i := range out {
		out[i].HANTT, out[i].HSTP = mathx.GeoMean(antt[i]), mathx.GeoMean(stp[i])
	}
	return out
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
	req, err := fleet.ParseRequest(r.Form)
	var classes string
	if err == nil {
		classes, err = fleet.OneValue(r.Form, "classes")
	}
	if err != nil {
		http.Error(w, "colab-serve: "+err.Error(), http.StatusBadRequest)
		return
	}
	wantClasses := classes != "" && classes != "0" && classes != "false"

	var collected []fleet.Cell
	w.Header().Set("Content-Type", "application/x-ndjson")
	n, err := fleet.Stream(r.Context(), w, req, s.cache, func(c fleet.Cell) error {
		s.cellsServed.Add(1)
		if wantClasses {
			collected = append(collected, c)
		}
		return nil
	})
	if err != nil {
		if n == 0 {
			// Nothing written yet: a bad spec (unknown workload or policy,
			// invalid shard coordinates) is still a clean 400. Later
			// failures went out in-band as the stream's last line.
			http.Error(w, "colab-serve: "+err.Error(), http.StatusBadRequest)
		}
		return
	}
	if wantClasses {
		// The class trailer: the ClassTable grouping of the cells just
		// streamed, one NDJSON object per (class, policy) group.
		enc := json.NewEncoder(w)
		for _, cl := range classLines(collected) {
			enc.Encode(cl)
		}
	}
}

// statsReply is the /stats body.
type statsReply struct {
	Requests    uint64           `json:"requests"`
	CellsServed uint64           `json:"cells_served"`
	Rejected    uint64           `json:"rejected"`
	Inflight    int64            `json:"inflight"`
	Cache       colab.CacheStats `json:"cache"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsReply{s.requests.Load(), s.cellsServed.Load(), s.rejected.Load(), s.inflight.Load(), s.cache.Stats()})
}
