package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profileSet collects the CPU profiles of the untraced passes of a traced
// run as files in the work directory; their samples are pooled.
type profileSet struct {
	dir   string
	files []string
}

// start begins a CPU profile and returns the function that ends it.
func (p *profileSet) start() (stop func() error, err error) {
	path := filepath.Join(p.dir, fmt.Sprintf("cpu-%d-%d.pprof", os.Getpid(), len(p.files)))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		p.files = append(p.files, path)
		return f.Close()
	}, nil
}

// shares sets every profile.share.* metric: the flat samples of each
// profilePackages entry as a share of all samples, as `go tool pprof -top`
// attributes them over the pooled profiles. The profile files are removed.
func (p *profileSet) shares(r *result) error {
	defer func() {
		for _, f := range p.files {
			os.Remove(f)
		}
	}()
	args := append([]string{"tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-unit=ms"}, p.files...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat, total, err := parseTop(out)
	if err != nil {
		return err
	}
	shares := packageShares(flat, total)
	for _, pk := range profilePackages {
		name := "profile.share." + pk.name
		r.set(name, shares[name], fmt.Sprintf("%.0f ms of samples", total))
	}
	return nil
}

// parseTop reads the flat time of every function from `go tool pprof -top
// -unit=ms` output, whose rows are "flat flat% sum% cum cum% function",
// and returns it with the total.
func parseTop(out []byte) (map[string]float64, float64, error) {
	flat := make(map[string]float64)
	var total float64
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			return nil, 0, fmt.Errorf("go tool pprof: unexpected row %q", sc.Text())
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("go tool pprof: row %q: %w", sc.Text(), err)
		}
		flat[strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")] += v
		total += v
	}
	return flat, total, sc.Err()
}

// packageShares sums flat time per profilePackages entry, as shares of the
// total.
func packageShares(flat map[string]float64, total float64) map[string]float64 {
	out := make(map[string]float64, len(profilePackages))
	if total == 0 {
		return out
	}
	for fn, v := range flat {
	match:
		for _, p := range profilePackages {
			for _, pre := range p.prefixes {
				if strings.HasPrefix(fn, pre) {
					out["profile.share."+p.name] += v / total
					break match
				}
			}
		}
	}
	return out
}
