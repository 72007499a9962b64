package policy

import (
	"fmt"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/task"
)

// BenchmarkPickNextIdle measures one idle core's PickNext on a mostly empty
// machine, the call a wake-up kick storm repeats for every idle core: four
// queued threads, each pinned to a distant core, so core 0 sweeps the
// machine and finds nothing it may run. Per-op cost is the selector's scan
// overhead at 8, 128 and 256 cores; the pick is allocation-free.
func BenchmarkPickNextIdle(b *testing.B) {
	machines := []cpu.Config{cpu.Config4B4S, cpu.Config32B32M64S, cpu.Config2x32B32M64S}
	for _, name := range []string{Linux, WASH, COLAB} {
		for _, cfg := range machines {
			b.Run(fmt.Sprintf("%s/cores=%d", name, cfg.NumCores()), func(b *testing.B) {
				s, c := idleMachine(b, name, cfg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if t := s.PickNext(c); t != nil {
						b.Fatalf("core 0 picked %v, which is pinned elsewhere", t)
					}
				}
			})
		}
	}
}

// idleMachine starts policy name on cfg with four threads queued, pinned
// to cores n/4, n/2, 3n/4 and n-1, and returns the scheduler and core 0.
func idleMachine(b *testing.B, name string, cfg cpu.Config) (kernel.Scheduler, *kernel.Core) {
	s, err := New(name, Context{})
	if err != nil {
		b.Fatal(err)
	}
	n := cfg.NumCores()
	app := &task.App{Name: "idle"}
	for _, core := range []int{n / 4, n / 2, 3 * n / 4, n - 1} {
		app.Threads = append(app.Threads, &task.Thread{
			App:      app,
			Name:     "idle",
			Profile:  cpu.WorkProfile{ILP: 0.5, BranchRate: 0.1, MemIntensity: 0.3, FPRate: 0.2},
			Program:  task.Program{task.Compute{Work: 1e9}},
			Affinity: task.MaskOf([]int{core}),
		})
	}
	m, err := kernel.NewMachine(cfg, s, &task.Workload{Name: "idle", Apps: []*task.App{app}}, kernel.Params{})
	if err != nil {
		b.Fatal(err)
	}
	s.Start(m)
	for _, t := range app.Threads {
		s.Admit(t)
		s.Enqueue(t, false)
	}
	return s, m.Cores()[0]
}
