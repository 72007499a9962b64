package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"colab/internal/experiment"
)

// Worker is the executing side of a fleet: a thin HTTP daemon over the
// experiment session engine. Each /run request carries a sweep spec and a
// shard assignment; the worker runs exactly that shard — through its
// long-lived cell cache and, when the coordinator shipped one, a seeded
// checkpoint journal — and streams one NDJSON cell per completed cell, in
// the shard's deterministic cross-product order.
//
// Endpoints:
//
//	POST /run      execute one shard, streaming NDJSON cells
//	GET  /healthz  liveness probe
//	GET  /stats    WorkerStats (shards, cells, journal seeds, cache), JSON
//
// A Worker is safe for concurrent use; concurrent /run requests share the
// cell cache and dedup identical in-flight cells.
type Worker struct {
	mux   *http.ServeMux
	cache *experiment.Cache

	shardsRun     atomic.Uint64
	cellsStreamed atomic.Uint64
	journalSeeded atomic.Uint64

	// FaultInjector, when set, is consulted before streaming each cell of a
	// shard (with the shard index and the cell's position in the shard). A
	// non-nil return makes the worker abort the request's connection
	// abruptly, exactly as a killed process would — the failure-path tests'
	// way of dying mid-shard deterministically. Nil in production.
	FaultInjector func(shard, cell int) error
}

// NewWorker returns a worker daemon serving shards through cache (nil for
// a fresh unbounded cache).
func NewWorker(cache *experiment.Cache) *Worker {
	if cache == nil {
		cache = experiment.NewCache()
	}
	w := &Worker{mux: http.NewServeMux(), cache: cache}
	w.mux.HandleFunc("/run", w.handleRun)
	w.mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	w.mux.HandleFunc("/stats", w.handleStats)
	return w
}

// Cache returns the worker's cell cache (for bounding via SetLimit or
// inspecting stats).
func (w *Worker) Cache() *experiment.Cache { return w.cache }

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		ShardsRun:     w.shardsRun.Load(),
		CellsStreamed: w.cellsStreamed.Load(),
		JournalSeeded: w.journalSeeded.Load(),
		Cache:         w.cache.Stats(),
	}
}

func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

func (w *Worker) handleStats(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(w.Stats())
}

// handleRun executes one shard. Spec errors before any cell is streamed
// are clean 400s; failures mid-stream surface as a terminal in-band
// {"error": ...} line. An injected fault (the test double of a process
// kill) aborts the connection without any terminal line, which the
// coordinator must treat exactly like a worker death.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "use POST", http.StatusMethodNotAllowed)
		return
	}
	var req runRequest
	if code, err := decodeBody(rw, r, MaxRunRequestBytes, &req); err != nil {
		http.Error(rw, "fleet: decoding run request: "+err.Error(), code)
		return
	}
	w.shardsRun.Add(1)
	b, err := req.Spec.batch(req.ShardIndex, req.ShardCount)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	b.Cache = w.cache

	// A reassigned shard arrives with the coordinator's copy of its
	// checkpoint journal: materialise it as a scratch journal file so the
	// session replays those cells instead of recomputing them. The file is
	// per-request scratch — the coordinator's in-memory copy, not the
	// worker, is the durable record.
	if len(req.Journal) > 0 {
		tmp, err := os.CreateTemp("", "colab-fleet-journal-*.ndjson")
		if err != nil {
			http.Error(rw, "fleet: journal scratch: "+err.Error(), http.StatusInternalServerError)
			return
		}
		path := tmp.Name()
		tmp.Close()
		defer os.Remove(path)
		if err := experiment.WriteJournal(path, req.Journal); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		j, err := experiment.OpenJournal(path)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		defer j.Close()
		b.Journal = j
		w.journalSeeded.Add(uint64(len(req.Journal)))
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	enc := json.NewEncoder(rw)
	flusher, _ := rw.(http.Flusher)
	var (
		streamed int
		injected error
	)
	b.Observer = func(c experiment.BatchCell) {
		if injected != nil {
			return
		}
		if w.FaultInjector != nil {
			if err := w.FaultInjector(req.ShardIndex, streamed); err != nil {
				injected = err
				cancel()
				return
			}
		}
		if streamed == 0 {
			rw.Header().Set("Content-Type", "application/x-ndjson")
			rw.WriteHeader(http.StatusOK)
		}
		streamed++
		w.cellsStreamed.Add(1)
		if err := enc.Encode(streamLine{Cell: cellFromBatch(c)}); err != nil {
			// The coordinator hung up; stop computing for nobody.
			cancel()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	_, err = b.Run(ctx)
	if injected != nil {
		// Die the way a SIGKILLed process dies: connection cut, no
		// terminal line, no clean chunked EOF.
		panic(http.ErrAbortHandler)
	}
	if err != nil {
		if streamed == 0 {
			http.Error(rw, "fleet: "+err.Error(), http.StatusBadRequest)
			return
		}
		enc.Encode(streamLine{Error: err.Error()})
	}
}

// cellFromBatch renders one session cell in wire form.
func cellFromBatch(c experiment.BatchCell) Cell {
	return Cell{
		Workload: c.Key.Workload,
		Machine:  c.Key.Config,
		Policy:   c.Key.Policy,
		Seed:     c.Key.Seed,
		HANTT:    c.Score.HANTT,
		HSTP:     c.Score.HSTP,
		Key:      c.CellKey.String(),
		Cached:   c.Cached,
	}
}

// RegisterAndHeartbeat announces the worker at selfURL to the coordinator
// and keeps it registered: an immediate registration, then one heartbeat
// per interval, until ctx is cancelled. Connection failures are retried
// at the same cadence — a worker that outlives a coordinator restart
// simply re-registers on its next beat, and registering is idempotent.
func RegisterAndHeartbeat(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, interval time.Duration) {
	if client == nil {
		client = http.DefaultClient
	}
	if interval <= 0 {
		interval = time.Second
	}
	body, _ := json.Marshal(registration{URL: selfURL})
	post := func(path string) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinatorURL+path, bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return // coordinator down or unreachable; next beat retries
		}
		resp.Body.Close()
	}
	post("/register")
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			post("/heartbeat")
		}
	}
}
