package kernel_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/workload"
)

// The beyond-64-core oracle. The golden corpus only covers machines of at
// most eight cores, whose run-queue and affinity state fits one bitset
// word, and TestBigMachineTraceDeterministic only checks that reruns agree.
// These digests pin what the 128- and 256-core palettes actually compute:
// the full scheduling-trace stream of the open big-machine scenario under
// every built-in policy, and the complete Result of the benchmark's
// 128-thread mix under the paper policies in both core orders. Any
// behavioural drift on the multi-word paths changes a digest.
//
// Regenerate (intentional behaviour changes only):
//
//	GOLDEN_WRITE=1 go test ./internal/kernel -run TestWriteBigMachineDigests

const bigDigestPath = "testdata/bigmachine_digests.txt"

// bigDigestMix is the benchmark's big-machine mix.
const bigDigestMix = "ferret:32+bodytrack:32+radix:32+fft:32"

var bigDigestMachines = []cpu.Config{cpu.Config32B32M64S, cpu.Config2x32B32M64S}

func bigDigestLines(t *testing.T) []string {
	t.Helper()
	model, err := perfmodel.Default()
	if err != nil {
		t.Fatalf("speedup model: %v", err)
	}
	pctx := policy.Context{Speedup: model.ThreadPredictor()}
	newPolicy := func(name string) kernel.Scheduler {
		s, err := policy.New(name, pctx)
		if err != nil {
			t.Fatalf("policy %s: %v", name, err)
		}
		return s
	}
	var lines []string
	for _, cfg := range bigDigestMachines {
		for _, name := range []string{"linux", "wash", "gts", "eas", "colab"} {
			m, err := kernel.NewMachine(cfg, newPolicy(name), bigOpenWorkload(), kernel.Params{})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, cfg.Name, err)
			}
			h := sha256.New()
			m.SetTracer(func(e kernel.TraceEvent) { fmt.Fprintln(h, e.String()) })
			if _, err := m.Run(); err != nil {
				t.Fatalf("%s on %s: %v", name, cfg.Name, err)
			}
			lines = append(lines, fmt.Sprintf("trace|big-open|%s|%s %x", cfg.Name, name, h.Sum(nil)))
		}
	}
	spec, err := workload.ParseSpec(bigDigestMix)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range bigDigestMachines {
		for _, bigFirst := range []bool{true, false} {
			variant := cfg.Ordered(bigFirst)
			for _, name := range []string{"linux", "wash", "colab"} {
				w, err := spec.BuildFor(1, variant.AggregateCapacity())
				if err != nil {
					t.Fatal(err)
				}
				m, err := kernel.NewMachine(variant, newPolicy(name), w, kernel.Params{})
				if err != nil {
					t.Fatalf("%s on %s: %v", name, variant.Name, err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatalf("%s on %s: %v", name, variant.Name, err)
				}
				lines = append(lines, fmt.Sprintf("result|%s|%s|%s %x", bigDigestMix, variant.Name, name, resultDigest(res)))
			}
		}
	}
	return lines
}

// resultDigest hashes every field of a Result. %v renders floats in their
// shortest round-tripping form, so equal digests mean bit-equal values.
func resultDigest(r *kernel.Result) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d|%d|%d\n", r.Workload, r.Sched, r.Config,
		r.EndTime, r.Events, r.TotalMigrations, r.TotalPreemptions, r.TotalSwitches)
	writeRows(h, r.Apps)
	writeRows(h, r.Threads)
	writeRows(h, r.Cores)
	return h.Sum(nil)
}

func writeRows[T any](h hash.Hash, rows []T) {
	for _, row := range rows {
		fmt.Fprintf(h, "%+v\n", row)
	}
}

func TestBigMachineDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 22 simulations on 128- and 256-core machines; not -short")
	}
	want, err := os.ReadFile(bigDigestPath)
	if err != nil {
		t.Fatalf("read %s: %v", bigDigestPath, err)
	}
	got := strings.Join(bigDigestLines(t), "\n") + "\n"
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, l := range strings.Split(got, "\n") {
		if i >= len(wantLines) || l != wantLines[i] {
			t.Errorf("digest drift:\n got %s", l)
		}
	}
}

func TestWriteBigMachineDigests(t *testing.T) {
	if os.Getenv("GOLDEN_WRITE") == "" {
		t.Skip("set GOLDEN_WRITE=1 to regenerate")
	}
	out := strings.Join(bigDigestLines(t), "\n") + "\n"
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bigDigestPath, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}
