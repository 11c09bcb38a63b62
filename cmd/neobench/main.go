// Command neobench regenerates the tables and figures of the NeoBFT
// paper's evaluation (§6) against the software reproduction in this
// repository, and runs the deterministic chaos gauntlet.
//
// Usage:
//
//	neobench -experiment fig7            # one experiment
//	neobench -experiment all -short      # quick pass over everything
//	neobench -transport udp -experiment table1 -short   # over real loopback sockets
//	neobench -list                       # what can be run
//	neobench -chaos crash-restart -seed 1   # one fault scenario, fixed seed
//	neobench -chaos all -chaos-protocol pbft
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"neobft/internal/bench"
	"neobft/internal/chaos"
	"neobft/internal/tracing"
)

var experiments = map[string]func(*os.File, bench.ExpConfig){
	"table1":     func(f *os.File, c bench.ExpConfig) { bench.Table1(f, c) },
	"table2":     func(f *os.File, c bench.ExpConfig) { bench.Table2(f, c) },
	"table3":     func(f *os.File, c bench.ExpConfig) { bench.Table3(f, c) },
	"fig4":       func(f *os.File, c bench.ExpConfig) { bench.Fig4(f, c) },
	"fig5":       func(f *os.File, c bench.ExpConfig) { bench.Fig5(f, c) },
	"fig6":       func(f *os.File, c bench.ExpConfig) { bench.Fig6(f, c) },
	"fig7":       func(f *os.File, c bench.ExpConfig) { bench.Fig7(f, c) },
	"fig8":       func(f *os.File, c bench.ExpConfig) { bench.Fig8(f, c) },
	"fig9":       func(f *os.File, c bench.ExpConfig) { bench.Fig9(f, c) },
	"fig10":      func(f *os.File, c bench.ExpConfig) { bench.Fig10(f, c) },
	"failover":   func(f *os.File, c bench.ExpConfig) { bench.Failover(f, c) },
	"saturation": func(f *os.File, c bench.ExpConfig) { bench.Saturation(f, c) },
	"pksweep":    func(f *os.File, c bench.ExpConfig) { bench.PKSweep(f, c) },
}

// order fixes the presentation sequence for -experiment all.
var order = []string{"table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "failover", "saturation", "pksweep"}

func main() {
	exp := flag.String("experiment", "all", "experiment to run (see -list)")
	short := flag.Bool("short", false, "quick mode: shorter windows, fewer sweep points")
	list := flag.Bool("list", false, "list available experiments")
	csvDir := flag.String("csv", "", "also write plot-ready CSV data series into this directory")
	metricsCSV := flag.String("metrics-csv", "",
		"write only the per-system metric snapshot (metrics.csv) into this directory and exit")
	pkSweepCSV := flag.String("pksweep-csv", "",
		"write only the aom-pk signing-ratio sweep (pk_sweep.csv) into this directory and exit")
	seed := flag.Int64("seed", 0, "simulated-network and fault-schedule seed (0 = time-derived)")
	chaosScen := flag.String("chaos", "", "run a chaos scenario instead of experiments: a scenario name, 'all', or 'list'")
	chaosProto := flag.String("chaos-protocol", "neobft", "protocol under chaos (neobft, pbft, minbft, zyzzyva, hotstuff, ...)")
	chaosOut := flag.String("chaos-out", "", "write chaos replay artifacts (schedule, failure traces) into this directory")
	transportName := flag.String("transport", "simnet",
		"fabric to run experiments over: simnet (deterministic, default) or udp (real loopback sockets)")
	traceRate := flag.Float64("trace-rate", 0,
		"causal-tracing sample rate: fraction of requests traced end to end (0 = off, 1 = all)")
	spanDump := flag.String("span-dump", "",
		"append every traced run's spans (JSON lines) to this file; merge with cmd/neotrace")
	rate := flag.Float64("rate", 0,
		"open-loop offered load in ops/s for rate-driven runs (0 = closed-loop)")
	window := flag.Int("window", 0,
		"client pipeline window: ops in flight per client (0 = closed-loop default of 1)")
	batchMax := flag.Int("batch-max", 0,
		"leader batch-size cap for the batching protocols (0 = default 8)")
	batchLinger := flag.Duration("batch-linger", 0,
		"max time a partial batch may wait before being cut (0 = cut whenever polled)")
	flag.Parse()

	switch *transportName {
	case "simnet", "udp":
	default:
		fmt.Fprintf(os.Stderr, "unknown -transport %q (want simnet or udp)\n", *transportName)
		os.Exit(1)
	}
	if *chaosScen != "" {
		if *transportName != "simnet" {
			// Chaos schedules need partition/drop/mangle injection, which
			// only the simulated network provides.
			fmt.Fprintln(os.Stderr, "-chaos requires -transport simnet")
			os.Exit(1)
		}
		os.Exit(runChaos(*chaosScen, *chaosProto, *seed, *short, *chaosOut))
	}

	if *list {
		names := make([]string, 0, len(experiments))
		for n := range experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("experiments:", strings.Join(names, " "), "all")
		fmt.Println("chaos scenarios:", strings.Join(chaos.Scenarios(), " "), "all")
		return
	}
	cfg := bench.ExpConfig{
		Short: *short, Seed: *seed, Transport: *transportName, TraceRate: *traceRate,
		Rate: *rate, Window: *window, BatchMax: *batchMax, BatchLinger: *batchLinger,
	}
	if *spanDump != "" {
		if *traceRate <= 0 {
			fmt.Fprintln(os.Stderr, "-span-dump needs -trace-rate > 0")
			os.Exit(1)
		}
		f, err := os.Create(*spanDump)
		if err != nil {
			fmt.Fprintf(os.Stderr, "span dump: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		var mu sync.Mutex
		cfg.SpanSink = func(spans []tracing.Span) {
			mu.Lock()
			defer mu.Unlock()
			tracing.WriteSpans(f, spans)
		}
	}
	if *pkSweepCSV != "" {
		if err := bench.CSVPKSweep(*pkSweepCSV, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "pk sweep csv: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pk_sweep.csv written to %s\n", *pkSweepCSV)
		return
	}
	if *metricsCSV != "" {
		if err := bench.CSVMetrics(*metricsCSV, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "metrics csv: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics.csv written to %s\n", *metricsCSV)
		return
	}
	if *csvDir != "" {
		if err := bench.CSVAll(*csvDir, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "csv export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("CSV series written to %s\n", *csvDir)
	}
	if *exp == "all" {
		for _, name := range order {
			experiments[name](os.Stdout, cfg)
		}
		return
	}
	fn, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(1)
	}
	fn(os.Stdout, cfg)
}

// runChaos executes one scenario (or the whole library) and returns the
// process exit code: nonzero iff any run violated safety, or the one
// scenario named is refused because the protocol lacks the capability it
// exercises. Under "all", refusals are listed in the summary instead.
func runChaos(scenario, protocol string, seed int64, short bool, outDir string) int {
	if scenario == "list" {
		fmt.Println("chaos scenarios:", strings.Join(chaos.Scenarios(), " "), "all")
		return 0
	}
	p, err := bench.ChaosProtocol(protocol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	if seed == 0 {
		seed = 1
	}
	scenarios := []string{scenario}
	if scenario == "all" {
		scenarios = chaos.Scenarios()
	}
	failed := 0
	var refused []string
	for _, s := range scenarios {
		ok, err := bench.RunChaos(os.Stdout, bench.ChaosConfig{
			Protocol: p,
			Scenario: s,
			Seed:     seed,
			Short:    short,
			OutDir:   outDir,
		})
		if errors.Is(err, bench.ErrRefused) && scenario == "all" {
			refused = append(refused, s)
			continue
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos %s: %v\n", s, err)
			return 1
		}
		if !ok {
			failed++
		}
	}
	ran := len(scenarios) - len(refused)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "chaos gauntlet: %d/%d scenario(s) UNSAFE\n", failed, ran)
		return 1
	}
	if len(refused) > 0 {
		fmt.Printf("chaos gauntlet: %d safe, %d refused (%s)\n", ran, len(refused), strings.Join(refused, ", "))
		return 0
	}
	fmt.Printf("chaos gauntlet: %d scenario(s) safe\n", ran)
	return 0
}
