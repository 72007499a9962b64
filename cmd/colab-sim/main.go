// Command colab-sim runs one workload on one simulated machine under one
// scheduler and prints per-application timing and machine utilisation.
// Any policy in the registry — built-in or registered by a library user —
// is selectable by name, as is any pipeline composition in the stage
// grammar ("<name>.<slot>+...", slots labeler/allocator/selector/governor;
// colab-workloads lists the stage vocabulary). The -workload flag takes
// any scenario: a registered name (Table 4 indexes, user scenarios) or a
// scenario-grammar spec, including open-system arrivals (colab-workloads
// -describe prints how a spec parses).
//
// Usage:
//
//	colab-sim -workload Sync-2 -config 2B2S -sched colab
//	colab-sim -workload Sync-2 -config 2B2S -sched colab -score
//	colab-sim -workload "ferret:4+bodytrack:8" -sched colab
//	colab-sim -workload "ferret:4@arrive=poisson(5ms)+blackscholes:4" -sched colab -score
//	colab-sim -workload Sync-2 -sched colab.labeler+wash.selector
//	colab-sim -bench ferret -threads 4 -config 2B2M2S -sched wash
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	colab "colab"
	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/kernel"
	"colab/internal/task"
	"colab/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "colab-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("colab-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "scenario: a registered name (e.g. Sync-2) or a grammar spec (e.g. \"ferret:4+bodytrack:8@arrive=poisson(5ms)\")")
	bench := fs.String("bench", "", "single benchmark name instead of a composition")
	threads := fs.Int("threads", 4, "thread count for -bench")
	cfgName := fs.String("config", "2B2S", "hardware config: "+configNames())
	sched := fs.String("sched", "colab", "scheduler: "+strings.Join(colab.Policies(), ", ")+
		", or a stage composition like colab.labeler+wash.selector")
	seed := fs.Uint64("seed", 1, "workload generation seed")
	littleFirst := fs.Bool("little-first", false, "order little cores before big cores")
	trace := fs.Bool("trace", false, "print the scheduling event trace to stderr")
	score := fs.Bool("score", false, "also print auto-baselined H_ANTT/H_STP via the session API (-workload only)")
	listMachines := fs.Bool("list-machines", false, "list the named machine configs with their socket/LLC-domain layout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listMachines {
		for _, c := range cpu.NamedConfigs() {
			fmt.Fprintf(stdout, "%s (%d cores)\n", c.Name, len(c.Kinds))
			for _, line := range c.DescribeTopology() {
				fmt.Fprintln(stdout, "  "+line)
			}
		}
		return nil
	}

	base, ok := cpu.ConfigByName(*cfgName)
	if !ok {
		return fmt.Errorf("unknown config %q (want %s)", *cfgName, configNames())
	}
	cfg := base.Ordered(!*littleFirst)
	if *score && (*bench != "" || *wl == "") {
		return fmt.Errorf("-score needs -workload (single benchmarks have no mix score)")
	}

	var (
		w   *task.Workload
		err error
	)
	switch {
	case *bench != "":
		w, err = workload.SingleProgram(*bench, *threads, *seed)
	case *wl != "":
		var spec workload.Spec
		spec, err = workload.ResolveSpec(*wl)
		if err != nil {
			return err
		}
		// The machine's aggregate capacity feeds machine-dependent load
		// generators (load=util); every other spec ignores it.
		w, err = spec.BuildFor(*seed, base.AggregateCapacity())
	default:
		return fmt.Errorf("one of -workload or -bench is required")
	}
	if err != nil {
		return err
	}

	runner, err := experiment.NewRunner(*seed)
	if err != nil {
		return err
	}
	s, err := runner.NewScheduler(*sched)
	if err != nil {
		return err
	}
	m, err := kernel.NewMachine(cfg, s, w, kernel.Params{})
	if err != nil {
		return err
	}
	if *trace {
		m.SetTracer(kernel.WriteTracer(stderr))
	}
	res, err := m.Run()
	if err != nil {
		return err
	}
	res.WriteSummary(stdout)

	if *score {
		sres, err := colab.NewExperiment(
			colab.WithWorkloads(*wl),
			colab.WithMachine(base),
			colab.WithPolicies(*sched),
			colab.WithSeeds(*seed),
		).Run(context.Background())
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nsession score (both core orders, big-only-alone baselines):")
		if err := sres.WriteTable(stdout); err != nil {
			return err
		}
	}
	return nil
}

func configNames() string { return strings.Join(cpu.NamedConfigNames(), ", ") }
