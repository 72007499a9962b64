package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"

	"colab/internal/experiment"
)

// Stream runs one shard through cache (nil for none) and writes its cells
// to w as NDJSON, one Cell line each in cross-product order, flushed as
// it lands (docs/API.md, "The cell line"). The fleet worker's /run,
// colab-serve's /run and colab-fleet -mode local all stream through it.
// each, when set, sees every cell first; an error from it, or a failed
// write, stops the run. Stream returns the lines written. A run error
// after the first line also goes out as a terminal {"error": ...} line;
// before it, nothing is written and the caller reports the error its own
// way (an HTTP 400, an exit status).
func Stream(ctx context.Context, w io.Writer, req Request, cache *experiment.Cache, each func(Cell) error) (int, error) {
	b, err := req.Spec.Batch(req.ShardIndex, req.ShardCount)
	if err != nil {
		return 0, err
	}
	b.Cache = cache
	if len(req.Journal) > 0 {
		// Per-request scratch: the coordinator's copy is the durable record.
		tmp, err := os.CreateTemp("", "colab-fleet-journal-*.ndjson")
		if err != nil {
			return 0, fmt.Errorf("journal scratch: %w", err)
		}
		path := tmp.Name()
		tmp.Close()
		defer os.Remove(path)
		if err := experiment.WriteJournal(path, req.Journal); err != nil {
			return 0, err
		}
		if b.Journal, err = experiment.OpenJournal(path); err != nil {
			return 0, err
		}
		defer b.Journal.Close()
	}
	class := make(map[string]string, len(b.Scenarios))
	for _, spec := range b.Scenarios {
		class[spec.Name] = string(spec.Class)
	}
	return relay(ctx, w, each, func(ctx context.Context, emit func(Cell)) error {
		b.Observer = func(c experiment.BatchCell) {
			emit(Cell{
				Workload: c.Key.Workload,
				Class:    class[c.Key.Workload],
				Machine:  c.Key.Config,
				Policy:   c.Key.Policy,
				Seed:     c.Key.Seed,
				HANTT:    c.Score.HANTT,
				HSTP:     c.Score.HSTP,
				Key:      c.CellKey.String(),
				Cached:   c.Cached,
			})
		}
		_, err := b.Run(ctx)
		return err
	})
}

// relay is the one writer of the cell-line stream, behind Stream and
// Coordinator.Stream: it runs run, writing and flushing each cell run
// emits (one at a time, in order). A refusal from each or a failed write
// cancels the run and drops the cells after it; a run error after the
// first line also goes out as the terminal {"error": ...} line.
func relay(ctx context.Context, w io.Writer, each func(Cell) error, run func(context.Context, func(Cell)) error) (int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	enc := json.NewEncoder(w)
	flush := func() {}
	switch f := w.(type) {
	case http.Flusher:
		flush = f.Flush
	case interface{ Sync() error }:
		flush = func() { f.Sync() }
	}
	var n int
	var stop error
	err := run(ctx, func(c Cell) {
		if stop != nil {
			return
		}
		if each != nil {
			stop = each(c)
		}
		if stop == nil {
			stop = enc.Encode(c)
		}
		if stop != nil {
			cancel()
			return
		}
		n++
		flush()
	})
	if stop != nil {
		return n, stop
	}
	if err != nil && n > 0 {
		enc.Encode(errorLine{Error: err.Error()})
		flush()
	}
	return n, err
}
