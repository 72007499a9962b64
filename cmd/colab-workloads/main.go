// Command colab-workloads prints the experiment inventory: Table 3
// (benchmark categorisation), Table 4 (multi-programmed compositions), the
// registered benchmarks and scenarios (the workload vocabulary), the
// registered scheduling policies and the registered pipeline stages per
// slot (the policy-composition vocabulary). -describe takes a benchmark
// name (structural dump with per-tier speedups) or any scenario-grammar
// spec (parsed composition: terms, seeds, arrival processes, expansion).
//
// Usage:
//
//	colab-workloads [-describe bench-or-spec] [-tiers trigear]
//	colab-workloads -describe "Sync-2@seed=7"
//	colab-workloads -describe "ferret:4@arrive=poisson(5ms)+blackscholes:4"
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	colab "colab"
	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/mathx"
	"colab/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "colab-workloads: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("colab-workloads", flag.ContinueOnError)
	fs.SetOutput(stderr)
	describe := fs.String("describe", "", "dump one benchmark's structure, or print how a scenario-grammar spec parses")
	threads := fs.Int("threads", 4, "thread count for a benchmark -describe")
	tierSet := fs.String("tiers", "biglittle", "tier palette for -describe speedups: biglittle or trigear")
	suite := fs.Bool("suite", false, "list the standard scenario suite with canonical grammar strings")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *suite {
		fmt.Fprintln(stdout, "== standard scenario suite (runnable by name everywhere workloads are named) ==")
		for _, s := range colab.StandardSuite() {
			fmt.Fprintf(stdout, "%-18s class=%-12s machine=%-12s %s\n", s.Name, s.Class, s.Machine, s.Description)
			fmt.Fprintf(stdout, "%-18s %s\n", "", s.Spec.Canonical())
		}
		return nil
	}

	if *describe != "" {
		var tiers []cpu.Tier
		switch *tierSet {
		case "biglittle":
			tiers = cpu.DefaultTiers()
		case "trigear":
			tiers = cpu.TriGearTiers()
		default:
			return fmt.Errorf("unknown tier palette %q (want biglittle or trigear)", *tierSet)
		}
		b, ok := workload.ByName(*describe)
		if !ok {
			// Named machine shapes describe their socket/LLC-domain layout.
			if cfg, okc := cpu.ConfigByName(*describe); okc {
				return describeMachine(stdout, cfg)
			}
			// Not a bare benchmark or machine: describe the parsed spec.
			return describeSpec(stdout, *describe)
		}
		app, err := b.Instantiate(0, *threads, mathx.NewRNG(42))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s (%s): sync=%s comm/comp=%s threads=%d\n",
			b.Name, b.Suite, b.SyncRate, b.CommComp, app.NumThreads())
		for _, t := range app.Threads {
			var speedups []string
			for _, tier := range tiers[1:] { // base tier is 1.0 by definition
				speedups = append(speedups, fmt.Sprintf("%s=%.2f", tier.Name, t.Profile.SpeedupOn(tier)))
			}
			fmt.Fprintf(stdout, "  %-10s ops=%-5d work=%6.1fms speedup{%s}\n",
				t.Name, len(t.Program), t.Program.TotalWork()/1e6, strings.Join(speedups, " "))
		}
		return nil
	}
	fmt.Fprint(stdout, experiment.Table3())
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, experiment.Table4())
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "== registered benchmarks (compose with \"<name>:<threads>+...\") ==")
	fmt.Fprintln(stdout, strings.Join(colab.BenchmarkNames(), ", "))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "== registered scenarios ==")
	fmt.Fprintln(stdout, strings.Join(colab.ScenarioNames(), ", "))
	fmt.Fprintln(stdout, "e.g. -describe \"Sync-2@seed=7\" or \"ferret:4@arrive=poisson(5ms)\"; modifiers: @seed=<n>, @arrive=<dur|fixed|uniform|poisson|trace|tracefile>, @load=<util|closed|diurnal|burst>, @class=<label>")
	fmt.Fprintln(stdout, "standard suite: -suite lists "+strings.Join(workload.SuiteNames(), ", "))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "== registered scheduling policies ==")
	fmt.Fprintln(stdout, strings.Join(colab.Policies(), ", "))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "== registered pipeline stages (compose with \"<name>.<slot>+...\") ==")
	for _, slot := range colab.StageSlots() {
		fmt.Fprintf(stdout, "%-10s %s\n", slot, strings.Join(colab.StageNames(slot), ", "))
	}
	fmt.Fprintln(stdout, "e.g. -sched colab.labeler+wash.selector+colab.governor; omitted allocator/selector default to linux")
	return nil
}

// describeMachine prints a named config's tier palette and socket /
// LLC-domain layout.
func describeMachine(stdout io.Writer, cfg cpu.Config) error {
	var tiers []string
	for _, t := range cfg.Tiers() {
		tiers = append(tiers, t.Name)
	}
	fmt.Fprintf(stdout, "machine %s: %d cores, tiers %s\n", cfg.Name, len(cfg.Kinds), strings.Join(tiers, "/"))
	for _, line := range cfg.DescribeTopology() {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "fingerprint %s\n", cfg.Fingerprint())
	return nil
}

// describeSpec prints how a scenario-grammar spec parses: canonical form,
// per-term modifiers and the app-by-app expansion.
func describeSpec(stdout io.Writer, input string) error {
	spec, err := colab.ParseScenario(input)
	if err != nil {
		// A bare word is most likely a misspelled benchmark or machine
		// name: surface the registered machine inventory alongside the
		// parse error (benchmarks are listed by the bare command).
		if !strings.ContainsAny(input, ":+@(") {
			return fmt.Errorf("%q is not a registered benchmark, machine, or scenario (machines: %s): %w",
				input, strings.Join(cpu.NamedConfigNames(), ", "), err)
		}
		return err
	}
	system := "closed (all apps admitted at t=0)"
	if spec.Open() {
		system = "open (apps arrive over time)"
	}
	fmt.Fprintf(stdout, "spec      %s\ncanonical %s\nsystem    %s\napps      %d\n",
		input, spec.Canonical(), system, spec.NumApps())
	if spec.Load.Kind != colab.LoadNone {
		fmt.Fprintf(stdout, "load      %s\n", spec.Load)
	}
	if spec.Class != "" {
		fmt.Fprintf(stdout, "class     %s\n", spec.Class)
	}
	appID := 0
	for ti, term := range spec.Terms {
		src := term.Source
		if src == "" {
			src = "-"
		}
		mods := ""
		if term.HasSeed {
			mods += fmt.Sprintf(" seed=%d", term.Seed)
		}
		if term.Arrival.Kind != colab.ArriveClosed {
			mods += fmt.Sprintf(" arrive=%s", term.Arrival)
		}
		if mods == "" {
			mods = " (unmodified)"
		}
		fmt.Fprintf(stdout, "term %d: source=%s%s\n", ti+1, src, mods)
		for _, a := range term.Apps {
			fmt.Fprintf(stdout, "  app %-3d %s:%d\n", appID, a.Bench, a.Threads)
			appID++
		}
	}
	return nil
}
