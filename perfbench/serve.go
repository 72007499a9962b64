package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	colab "colab"
	"colab/internal/experiment"
	"colab/internal/loadgen"
	"colab/internal/workload"
)

// sweepCacheLimit bounds the colab-serve cache while a batch plan streams
// through /run: below paper-sweep's 312 cells, so its second pass meets
// evictions as well as hits. Requests are sent one at a time, and the limit
// is 21 of paper-sweep's 12-cell requests, so the first pass evicts exactly
// the warm-up cell and its first five requests, whatever order the cells
// within a request finish in: every sweep does the same work.
const sweepCacheLimit = 21 * 12

// serveReq is one /run sweep.
type serveReq struct {
	workload string
	machines []string
	policies []string
	seeds    []uint64
}

func (q serveReq) cells() int { return len(q.machines) * len(q.policies) * len(q.seeds) }

func (q serveReq) query() string {
	v := url.Values{}
	v.Set("workload", q.workload)
	v.Set("machine", strings.Join(q.machines, ","))
	v.Set("policy", strings.Join(q.policies, ","))
	seeds := make([]string, len(q.seeds))
	for i, s := range q.seeds {
		seeds[i] = strconv.FormatUint(s, 10)
	}
	v.Set("seed", strings.Join(seeds, ","))
	return v.Encode()
}

// cellLine is one streamed /run line as the client sees it.
type cellLine struct {
	Workload string  `json:"workload"`
	Machine  string  `json:"machine"`
	Policy   string  `json:"policy"`
	Seed     uint64  `json:"seed"`
	HANTT    float64 `json:"h_antt"`
	HSTP     float64 `json:"h_stp"`
	CellKey  string  `json:"cell_key"`
	Cached   bool    `json:"cached"`
	Error    string  `json:"error"`
}

// outcome is one request as the client saw it. Times are absolute; a
// zero first or last means the line never came.
type outcome struct {
	sent, first, last time.Time
	lines             []cellLine
	bytes             int
	status            int
	err               error
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

func (o outcome) hits() int {
	n := 0
	for _, l := range o.lines {
		if l.Cached {
			n++
		}
	}
	return n
}

// client talks to one colab-serve process.
type client struct {
	base string
	http *http.Client
}

// newClient makes a client that holds one connection to base.
func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}}
}

// run sends one /run request and reads its NDJSON stream to the end.
func (c *client) run(ctx context.Context, q serveReq) outcome {
	var o outcome
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/run?"+q.query(), nil)
	if err != nil {
		o.err = err
		return o
	}
	o.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	var refusal []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if o.first.IsZero() {
				o.first = time.Now()
			}
			o.bytes += len(line)
			if o.status != http.StatusOK {
				refusal = append(refusal, line...)
			} else {
				var cl cellLine
				if jerr := json.Unmarshal(line, &cl); jerr != nil || cl.Error != "" {
					o.err = fmt.Errorf("bad stream line %q", line)
				} else {
					o.lines = append(o.lines, cl)
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			o.err = err
			return o
		}
	}
	o.last = time.Now()
	if o.status != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", o.status, strings.TrimSpace(string(refusal)))
	} else if len(o.lines) != q.cells() {
		o.err = fmt.Errorf("%d cells streamed, want %d", len(o.lines), q.cells())
	}
	return o
}

// serveStats is the part of /stats the benchmark reads.
type serveStats struct {
	Rejected uint64                `json:"rejected"`
	Cache    experiment.CacheStats `json:"cache"`
}

func (c *client) stats(ctx context.Context) (serveStats, error) {
	var s serveStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return s, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// serveProc is one colab-serve child process.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startServe(bin, logPath string, cacheLimit int) (*serveProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-cache-limit", strconv.Itoa(cacheLimit))
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	return &serveProc{cmd: cmd, base: "http://" + addr, log: log}, nil
}

// stop sends SIGTERM, waits for the graceful drain and kills the process
// if it does not exit in time. It returns once the process has ended, and
// keeps the process's log only when it did not exit cleanly.
func (p *serveProc) stop() (err error) {
	defer func() {
		p.log.Close()
		if err == nil {
			os.Remove(p.log.Name())
		}
	}()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.cmd.Process.Kill()
		<-done
		return err
	}
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("colab-serve did not drain within 10s")
	}
}

// warmupReq is the fixed request every spawn answers before the sweep
// starts: it makes the server train its speedup model. Its cell is not
// part of either batch plan.
var warmupReq = serveReq{workload: "Sync-1", machines: []string{"2B2M2S"}, policies: []string{"colab"}, seeds: []uint64{1}}

// spawnReady starts colab-serve, waits for /healthz and answers the
// warm-up request.
func spawnReady(ctx context.Context, o options, cacheLimit int) (*serveProc, *client, error) {
	t := time.Now()
	p, err := startServe(o.serveBin, filepath.Join(o.workDir, fmt.Sprintf("serve-%d.log", os.Getpid())), cacheLimit)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(p.base)
	for {
		resp, err := c.http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t) > 20*time.Second {
			p.stop()
			return nil, nil, fmt.Errorf("colab-serve not healthy after 20s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if w := c.run(ctx, warmupReq); !w.ok() {
		p.stop()
		return nil, nil, fmt.Errorf("warm-up request: %v", w.err)
	}
	return p, c, nil
}

// servedSweep is one batch plan streamed through a fresh colab-serve
// child: the requests, what came back, the /stats snapshots around them
// and the wall time from the first request to the last line.
type servedSweep struct {
	reqs          []serveReq
	outs          []outcome
	before, after serveStats
	wall          time.Duration
}

// cells counts the streamed cells and how many of them were cache hits.
func (sw servedSweep) cells() (cells, hits int) {
	for _, out := range sw.outs {
		cells += len(out.lines)
		hits += out.hits()
	}
	return cells, hits
}

// serveSweep spawns a colab-serve child with an empty cache bounded to
// sweepCacheLimit and streams the plan of b through it twice, one /run
// request per workload, one request at a time over one connection. The
// second pass runs in reverse after the first, so the cells the first pass
// stored last are hits and the ones the bounded cache evicted are misses.
// Every streamed score must equal the in-process pass's bit for bit, and
// the /stats hit and miss deltas must equal the streamed cached flags;
// each mismatch is a failed operation in r.
func serveSweep(ctx context.Context, o options, b batchSpec, want []colab.ExperimentResult, r *result) (servedSweep, error) {
	var sw servedSweep
	if o.serveBin == "" {
		return sw, fmt.Errorf("%s needs -serve-bin", o.workload)
	}
	p, c, err := spawnReady(ctx, o, sweepCacheLimit)
	if err != nil {
		return sw, err
	}
	var machines []string
	for _, m := range b.machines {
		machines = append(machines, m.Name)
	}
	for _, w := range b.workloads {
		sw.reqs = append(sw.reqs, serveReq{workload: w, machines: machines, policies: b.policies, seeds: []uint64{o.seed}})
	}
	for i := len(b.workloads) - 1; i >= 0; i-- {
		sw.reqs = append(sw.reqs, sw.reqs[i])
	}
	if sw.before, err = c.stats(ctx); err != nil {
		p.stop()
		return sw, err
	}
	start := time.Now()
	for _, q := range sw.reqs {
		sw.outs = append(sw.outs, c.run(ctx, q))
	}
	sw.wall = time.Since(start)
	sw.after, err = c.stats(ctx)
	if serr := p.stop(); err == nil && serr != nil {
		err = fmt.Errorf("colab-serve: %w", serr)
	}
	if err != nil {
		return sw, err
	}

	type axis struct{ w, m, p string }
	score := make(map[axis]colab.MixScore, len(want))
	for _, cell := range want {
		score[axis{cell.Run.Workload, cell.Run.Machine, cell.Run.Policy}] = cell.Score
	}
	for i, out := range sw.outs {
		r.attempted += sw.reqs[i].cells()
		if !out.ok() {
			r.failed += sw.reqs[i].cells()
			continue
		}
		for _, l := range out.lines {
			s, ok := score[axis{l.Workload, l.Machine, l.Policy}]
			if !ok || math.Float64bits(s.HANTT) != math.Float64bits(l.HANTT) || math.Float64bits(s.HSTP) != math.Float64bits(l.HSTP) {
				r.failed++
			}
		}
	}
	checkStats(r, "served sweep", sw.before, sw.after, sw.outs)
	return sw, nil
}

// serveLayerMetrics sets the serve.* per-layer metrics from one served
// sweep.
func serveLayerMetrics(r *result, sw servedSweep) {
	const what = "the plan served twice"
	cells, hits := sw.cells()
	bytes := 0
	for _, out := range sw.outs {
		bytes += out.bytes
	}
	r.set("serve.requests", float64(len(sw.outs)), what)
	r.set("serve.cells", float64(cells), what)
	r.set("serve.bytes", float64(bytes), what)
	r.set("serve.cache_hit_ratio", float64(hits)/float64(cells), "cached lines over lines, checked against /stats")
	r.set("serve.cache_evictions", float64(sw.after.Cache.Evictions-sw.before.Cache.Evictions), what)
	r.set("serve.rejected", float64(sw.after.Rejected-sw.before.Rejected), what)
	var pinned, requested int
	for _, q := range sw.reqs {
		requested += q.cells()
		if seedInvariant(q.workload) {
			pinned += q.cells()
		}
	}
	r.set("serve.seed_invariant_share", float64(pinned)/float64(requested), "")
	var hitSvc, stream []float64
	for _, out := range sw.outs {
		if !out.ok() {
			continue
		}
		stream = append(stream, ms(out.last.Sub(out.first)))
		if out.hits() == len(out.lines) {
			hitSvc = append(hitSvc, ms(out.last.Sub(out.sent)))
		}
	}
	hitP50 := median(hitSvc)
	var missCell []float64
	for _, out := range sw.outs {
		if m := len(out.lines) - out.hits(); out.ok() && m > 0 {
			missCell = append(missCell, (ms(out.last.Sub(out.sent))-hitP50)/float64(m))
		}
	}
	r.set("serve.hit_req_p50_ms", hitP50, fmt.Sprintf("send to last line, %d all-hit requests", len(hitSvc)))
	r.set("serve.stream_ms_p50", median(stream), "first to last line")
	r.set("serve.miss_cell_ms", median(missCell), "per missed cell, above the all-hit floor")
}

// checkStats counts a failure when the /stats hit and miss deltas
// between two snapshots differ from the cached flags the requests in
// between streamed.
func checkStats(r *result, name string, a, b serveStats, outs []outcome) {
	var hits, misses uint64
	for _, out := range outs {
		for _, l := range out.lines {
			if l.Cached {
				hits++
			} else {
				misses++
			}
		}
	}
	if b.Cache.Hits-a.Cache.Hits != hits || b.Cache.Misses-a.Cache.Misses != misses {
		r.failed++
		r.lines = append(r.lines, fmt.Sprintf("oracle: %s /stats counted %d hits %d misses, the stream %d and %d",
			name, b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses, hits, misses))
	}
}

// seedInvariant reports whether a workload's cells cannot depend on the
// seed: every term pins its seed and no util load derives arrivals from it.
func seedInvariant(name string) bool {
	spec, err := workload.ResolveSpec(name)
	if err != nil || spec.Load.Kind == loadgen.Util {
		return false
	}
	for _, t := range spec.Terms {
		if !t.HasSeed {
			return false
		}
	}
	return true
}
