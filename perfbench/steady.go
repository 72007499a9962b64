package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// steady runs the workload o.steady times, each in its own process with
// seeds o.seed, o.seed+1, ..., and prints every metric's median,
// quartiles and inter-quartile spread as a share of the median, against
// the metric's bound: the same statistic the acceptance check applies.
func steady(o options, trace int, stdout, stderr io.Writer) error {
	bf, err := loadBenchmarkFile(o.root)
	if err != nil {
		return err
	}
	defs := bf.EndToEnd
	if trace == 1 {
		defs = bf.PerLayer
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	for i := 0; i < o.steady; i++ {
		seed := o.seed + uint64(i)
		cmd := exec.Command(self, "-workload", o.workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace),
			"-root", o.root, "-serve-bin", o.serveBin, "-work-dir", o.workDir)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		fmt.Fprintf(stdout, "seed %d: correct=%v attempted=%d failed=%d", seed, res.Correct, res.Attempted, res.Failed)
		for _, d := range defs {
			m := res.Metrics[d.Name]
			values[d.Name] = append(values[d.Name], m.Value)
			if d.Bound > 0 {
				fmt.Fprintf(stdout, " %s=%.4g", d.Name, m.Value)
			}
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-36s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, d := range defs {
		q1, q2, q3 := quartiles(values[d.Name])
		spread := (q3 - q1) / q2
		verdict := ""
		if d.Bound > 0 {
			switch {
			case spread <= d.Bound/3:
				verdict = "steady"
			case spread <= d.Bound:
				verdict = "within bound"
			default:
				verdict = "TOO WIDE"
			}
		}
		fmt.Fprintf(stdout, "%-36s %12.6g %12.6g %12.6g %8.4f %6.2f  %s\n", d.Name, q1, q2, q3, spread, d.Bound, verdict)
	}
	return nil
}
