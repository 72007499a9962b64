// Command colab-fleet runs one experiment sweep across many hosts: a
// coordinator process deals deterministic shard assignments of the sweep
// to registered worker daemons over HTTP, streams their per-cell results
// back, and reassembles the union — byte-identical to the same sweep run
// unsharded in one process (-mode local proves it). Workers that die
// mid-shard are survived: the shard is retried on a surviving worker
// with the completed cells shipped along as a checkpoint journal, so
// nothing already computed is recomputed.
//
// Usage:
//
//	# one worker per host, pointing at the coordinator
//	colab-fleet -mode worker -addr :8081 -coordinator http://coord:8080
//
//	# the coordinator: waits for workers, runs the sweep, streams NDJSON
//	colab-fleet -mode coordinator -addr :8080 -min-workers 2 \
//	    -workload Sync-1,Comp-1 -policy linux,wash -seed 1,2 -o fleet.csv
//
//	# the same sweep in-process, for comparison or small runs
//	colab-fleet -mode local -workload Sync-1,Comp-1 -policy linux,wash \
//	    -seed 1,2 -o local.csv
//
//	# housekeeping: drop duplicate records from a checkpoint journal
//	colab-fleet -compact sweep.ndjson
//
// Cells stream to stdout as NDJSON in the sweep's deterministic
// cross-product order — the cell line colab-serve's /run streams too
// (docs/API.md, "The cell line"); -o additionally writes the
// final result set as CSV. Workers exit gracefully on SIGTERM, draining
// in-flight shards.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	colab "colab"
	"colab/internal/fleet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, runs the selected mode,
// returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("colab-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode        = fs.String("mode", "local", "coordinator, worker, or local (run the sweep in-process)")
		addr        = fs.String("addr", ":8080", "listen address (coordinator and worker modes)")
		coordinator = fs.String("coordinator", "", "coordinator base URL to register with (worker mode)")
		advertise   = fs.String("advertise", "", "externally reachable URL of this worker (default: derived from -addr on 127.0.0.1)")
		heartbeat   = fs.Duration("heartbeat", time.Second, "worker heartbeat interval")
		cacheLimit  = fs.Int("cache-limit", 0, "bound the worker cell cache to this many cells, LRU-evicted (0 = unbounded)")
		drain       = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget on SIGTERM")
		compact     = fs.String("compact", "", "compact the checkpoint journal at this path and exit")

		workloads  = fs.String("workload", "", "comma-separated workloads: scenario names or grammar specs")
		machines   = fs.String("machine", "", "comma-separated named machine shapes (default 2B2S)")
		policies   = fs.String("policy", "", "comma-separated policies (default: the paper policies)")
		seeds      = fs.String("seed", "", "comma-separated workload seeds (default 1)")
		workers    = fs.Int("workers", 0, "per-process run parallelism (0 = GOMAXPROCS)")
		shards     = fs.Int("shards", 0, "shard count (0 = one shard per live worker)")
		minWorkers = fs.Int("min-workers", 1, "wait for this many registered workers before dispatching")
		output     = fs.String("o", "", "write the final result set as CSV to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compact != "" {
		kept, dropped, err := colab.CompactJournal(*compact)
		if err != nil {
			fmt.Fprintf(stderr, "colab-fleet: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "compacted %s: kept %d records, dropped %d\n", *compact, kept, dropped)
		return 0
	}
	var err error
	switch *mode {
	case "worker":
		err = runWorker(ctx, stderr, *addr, *coordinator, *advertise, *heartbeat, *drain, *cacheLimit)
	case "coordinator", "local":
		v := url.Values{"workload": {*workloads}, "machine": {*machines}, "policy": {*policies}, "seed": {*seeds}}
		if *workers != 0 {
			v.Set("workers", strconv.Itoa(*workers))
		}
		var (
			req   fleet.Request
			cells []fleet.Cell
		)
		collect := func(c fleet.Cell) error { cells = append(cells, c); return nil }
		if req, err = fleet.ParseRequest(v); err != nil {
			break
		}
		if *mode == "local" {
			_, err = fleet.Stream(ctx, stdout, req, nil, collect)
		} else if _, err = req.Spec.Batch(0, 0); err == nil {
			// Resolved up front: a sweep no worker could run fails now,
			// not once the fleet has formed.
			err = runCoordinator(ctx, stdout, stderr, *addr, *shards, *minWorkers, req.Spec, collect)
		}
		if err == nil {
			err = writeCSV(*output, cells)
		}
	default:
		err = fmt.Errorf("unknown -mode %q (coordinator, worker, or local)", *mode)
	}
	if err != nil {
		fmt.Fprintf(stderr, "colab-fleet: %v\n", err)
		return 1
	}
	return 0
}

// runWorker serves a worker daemon until ctx is cancelled (SIGTERM),
// then drains in-flight shards gracefully.
func runWorker(ctx context.Context, stderr io.Writer, addr, coordinator, advertise string, heartbeat, drain time.Duration, cacheLimit int) error {
	if coordinator == "" {
		return fmt.Errorf("worker mode needs -coordinator")
	}
	cache := colab.NewCellCache(colab.WithCellCacheLimit(cacheLimit))
	w := colab.NewFleetWorker(cache)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if advertise == "" {
		advertise = "http://" + hostPort(ln.Addr().String(), addr)
	}
	srv := &http.Server{Handler: w, ReadHeaderTimeout: fleet.ReadHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	go colab.RegisterFleetWorker(ctx, nil, coordinator, advertise, heartbeat)
	fmt.Fprintf(stderr, "colab-fleet: worker %s registering with %s\n", advertise, coordinator)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stderr, "colab-fleet: worker draining (up to %s)\n", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// hostPort renders a dialable host:port for a listener: a wildcard-host
// bind (":8081") advertises as loopback, since a worker that cannot name
// its own host should at least be reachable from a local coordinator.
func hostPort(bound, requested string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return requested
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// runCoordinator serves the coordinator, waits for the fleet to form, and
// streams the sweep's cells from across it to stdout through each.
func runCoordinator(ctx context.Context, stdout, stderr io.Writer, addr string, shards, minWorkers int, spec fleet.Spec, each func(fleet.Cell) error) error {
	f := colab.NewFleet(colab.FleetOptions{Shards: shards})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: f, ReadHeaderTimeout: fleet.ReadHeaderTimeout}
	defer srv.Close()
	go srv.Serve(ln)
	fmt.Fprintf(stderr, "colab-fleet: coordinator on %s waiting for %d worker(s)\n", ln.Addr(), minWorkers)
	if err := f.WaitWorkers(ctx, minWorkers); err != nil {
		return fmt.Errorf("waiting for %d worker(s): %w", minWorkers, err)
	}
	_, err = f.Stream(ctx, stdout, spec, each)
	return err
}

// writeCSV writes the streamed cells to path (none when empty) in the
// session API's CSV form.
func writeCSV(path string, cells []fleet.Cell) error {
	if path == "" {
		return nil
	}
	res := &colab.ExperimentResults{Cells: make([]colab.ExperimentResult, len(cells))}
	for i, c := range cells {
		res.Cells[i] = colab.ExperimentResult{
			Run:   colab.ExperimentRun{Workload: c.Workload, Machine: c.Machine, Policy: c.Policy, Seed: c.Seed},
			Score: colab.MixScore{HANTT: c.HANTT, HSTP: c.HSTP},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
