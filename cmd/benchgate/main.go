// Command benchgate is the perf-regression gate CI runs on every push:
// it collects a small fixed suite of performance numbers and compares
// them against a committed baseline with a wide tolerance band, failing
// when a metric regresses past it.
//
// Two metric sources feed the gate:
//
//   - -bench <file>: `go test -bench` output, one ns/op metric per
//     benchmark (lower is better);
//   - fixed-seed closed-loop runs of Neo-HM, Neo-PK and PBFT on the
//     simulated network, and of Neo-HM over loopback UDP sockets,
//     yielding throughput (higher is better) and p99 latency (lower is
//     better). Skipped with -skip-sim.
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkVerify(Inline|Pipelined)' -benchtime 50000x . > bench.txt
//	go test -run xxx -bench BenchmarkWALAppend -benchtime 50000x ./internal/store >> bench.txt
//	benchgate -bench bench.txt              # compare against BENCH_baseline.json
//	benchgate -bench bench.txt -update      # rewrite the baseline instead
//
// The current numbers are always written to -out (BENCH_current.json)
// so CI can upload them as an artifact; refreshing the baseline is
// copying that file over BENCH_baseline.json (or rerunning -update).
//
// The default tolerance is deliberately loose (60%): shared CI runners
// are noisy, and the gate exists to catch order-of-magnitude slips —
// an accidental O(n²), a lock on the hot path — not percent-level
// drift. Tighten -tolerance locally for real A/B comparisons.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"neobft/internal/bench"
	"neobft/internal/simnet"
)

// Metric is one gated performance number.
type Metric struct {
	Value float64 `json:"value"`
	// Better is "higher" or "lower": the direction of improvement.
	Better string `json:"better"`
	Unit   string `json:"unit,omitempty"`
}

// Baseline is the committed BENCH_baseline.json schema.
type Baseline struct {
	Version int `json:"version"`
	// Tolerance used when the file was last updated, recorded for
	// reference only; the -tolerance flag governs the comparison.
	Tolerance float64           `json:"tolerance"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	benchFile := flag.String("bench", "", "ingest `go test -bench` output from this file")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline to compare against (or rewrite with -update)")
	outPath := flag.String("out", "BENCH_current.json", "write this run's numbers here (CI artifact)")
	tol := flag.Float64("tolerance", 0.6, "allowed fractional regression before the gate fails")
	update := flag.Bool("update", false, "rewrite -baseline from this run instead of comparing")
	skipSim := flag.Bool("skip-sim", false, "skip the fixed-seed end-to-end runs (simnet and loopback UDP)")
	seed := flag.Int64("seed", 1, "simulated-network seed for the sim metrics")
	flag.Parse()

	cur := map[string]Metric{}
	if *benchFile != "" {
		parsed, err := parseBenchFile(*benchFile)
		if err != nil {
			log.Fatalf("parse %s: %v", *benchFile, err)
		}
		if len(parsed) == 0 {
			log.Fatalf("%s contains no benchmark result lines", *benchFile)
		}
		for k, v := range parsed {
			cur[k] = v
		}
	}
	if !*skipSim {
		for k, v := range e2eMetrics(*seed) {
			cur[k] = v
		}
	}
	if len(cur) == 0 {
		log.Fatal("nothing to gate: no -bench file and -skip-sim set")
	}

	if err := writeJSON(*outPath, Baseline{Version: 1, Tolerance: *tol, Metrics: cur}); err != nil {
		log.Fatalf("write %s: %v", *outPath, err)
	}
	if *update {
		if err := writeJSON(*baselinePath, Baseline{Version: 1, Tolerance: *tol, Metrics: cur}); err != nil {
			log.Fatalf("write %s: %v", *baselinePath, err)
		}
		fmt.Printf("baseline %s updated with %d metrics\n", *baselinePath, len(cur))
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		log.Fatalf("read baseline: %v (run with -update to create it)", err)
	}
	regressions := compare(os.Stdout, base.Metrics, cur, *tol)
	if len(regressions) > 0 {
		fmt.Printf("\nFAIL: %d metric(s) regressed beyond %.0f%% tolerance:\n", len(regressions), *tol*100)
		for _, r := range regressions {
			fmt.Println("  " + r)
		}
		os.Exit(1)
	}
	fmt.Printf("\nOK: %d metrics within %.0f%% of baseline\n", len(cur), *tol*100)
}

// parseBenchFile extracts ns/op metrics from `go test -bench` output.
// Result lines look like
//
//	BenchmarkVerifyInline-8   50000   23456 ns/op   12 B/op ...
//
// The -N GOMAXPROCS suffix is stripped so baselines survive runner
// core-count changes.
func parseBenchFile(path string) (map[string]Metric, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]Metric{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// Scan (value, unit) pairs after the iteration count for ns/op.
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op value in %q: %v", sc.Text(), err)
			}
			out["bench/"+name] = Metric{Value: v, Better: "lower", Unit: "ns/op"}
			break
		}
	}
	return out, sc.Err()
}

// e2eMetrics runs short fixed-seed closed-loop loads and reports
// throughput and p99 latency: on the simulated network for two NeoBFT
// variants and one classical baseline, and over loopback UDP sockets for
// Neo-HM (the udpnet + runtime packet path end to end). Neo-PK runs with
// SignRate 0 (sign every packet): fully deterministic and maximum
// signature-verification pressure, so the gate tracks the secp256k1 hot
// path end to end.
func e2eMetrics(seed int64) map[string]Metric {
	out := map[string]Metric{}
	for _, r := range []struct {
		fabric, transport string
		p                 bench.Protocol
	}{
		{"sim", "", bench.NeoHM}, {"sim", "", bench.NeoPK}, {"sim", "", bench.PBFT},
		{"udp", "udp", bench.NeoHM},
	} {
		slug := r.fabric + "/" + strings.ToLower(strings.ReplaceAll(string(r.p), "-", ""))
		fmt.Printf("%s run %s (seed %d)...\n", r.fabric, r.p, seed)
		sys := bench.Build(bench.Options{
			Protocol:  r.p,
			Transport: r.transport,
			Net:       simnet.Options{Seed: seed},
		})
		res := bench.Run(sys, bench.Load{
			Clients:  8,
			Warmup:   300 * time.Millisecond,
			Duration: 2 * time.Second,
		})
		sys.Close()
		s := bench.Summarize(res.Latencies)
		out[slug+"/tput"] = Metric{Value: res.Throughput, Better: "higher", Unit: "ops/s"}
		out[slug+"/p99"] = Metric{
			Value:  float64(s.P99) / float64(time.Microsecond),
			Better: "lower", Unit: "us",
		}
	}
	return out
}

// compare prints a metric-by-metric table and returns descriptions of
// every metric that regressed beyond tol. Metrics present on only one
// side are reported but never fail the gate (the suite just changed;
// the baseline needs an -update commit to pick them up).
func compare(w *os.File, base, cur map[string]Metric, tol float64) []string {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions []string
	fmt.Fprintf(w, "%-28s %14s %14s %8s\n", "metric", "baseline", "current", "ratio")
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(w, "%-28s %14.1f %14s %8s  (not measured this run)\n", name, b.Value, "-", "-")
			continue
		}
		ratio := 0.0
		if b.Value != 0 {
			ratio = c.Value / b.Value
		}
		verdict := ""
		bad := false
		switch b.Better {
		case "higher":
			bad = c.Value < b.Value*(1-tol)
		default:
			bad = b.Value > 0 && c.Value > b.Value/(1-tol)
		}
		if bad {
			verdict = "  REGRESSED"
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.1f -> %.1f %s (%s is better)", name, b.Value, c.Value, c.Unit, b.Better))
		}
		fmt.Fprintf(w, "%-28s %14.1f %14.1f %7.2fx%s\n", name, b.Value, c.Value, ratio, verdict)
	}
	for name, c := range cur {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(w, "%-28s %14s %14.1f %8s  (new; not in baseline)\n", name, "-", c.Value, "-")
		}
	}
	return regressions
}

func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if b.Version != 1 {
		return nil, fmt.Errorf("%s: unsupported version %d", path, b.Version)
	}
	return &b, nil
}

func writeJSON(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
