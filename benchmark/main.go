// Command benchmark is the repository's benchmark: one workload per
// process, built through bench.Build, driven and checked from outside.
// See README.md in this directory; BENCHMARK.json at the repository root
// names the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"neobft/internal/bench"
	"neobft/internal/simnet"
)

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload to run (see BENCHMARK.json), or all: each in its own process")
	seed := flag.Int64("seed", 1, "workload seed: simnet, YCSB generators, arrival schedule")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (probes, counters, traced pass)")
	jsonOut := flag.String("json", "", "also write the results with their provenance to this file")
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		fatal("usage: --workload W --seed N --seconds S --trace 0|1 [--json FILE]")
	}

	results := map[string]result{}
	if *name == "all" {
		self, err := os.Executable()
		if err != nil {
			fatal("%v", err)
		}
		for _, w := range workloads {
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(*seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r result
			if json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil || err != nil {
				r.Correct = false
			}
			results[w.name] = r
		}
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		results[w.name] = run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}

	if *jsonOut != "" {
		if err := writeDocument(*jsonOut, results, *seed, *seconds, *trace); err != nil {
			fatal("%v", err)
		}
	}
	good := true
	for _, r := range results {
		good = good && r.Correct && float64(r.Failed) <= 0.01*float64(r.Attempted)
	}
	var last any = results
	if *name != "all" {
		last = results[*name]
	}
	out, _ := json.Marshal(last)
	fmt.Println(string(out))
	if !good {
		os.Exit(1)
	}
}

func procs() int { return min(runtime.NumCPU(), 4) }

// run measures one workload in this process and prints every metric by
// name to standard error.
func run(w workload, seed int64, window time.Duration, traced bool) result {
	runtime.GOMAXPROCS(procs())
	conns, depth := w.shape(runtime.NumCPU())
	fmt.Fprintf(os.Stderr, "%s: %s; %d connections of window %d; GOMAXPROCS %d\n", w.name, w, conns, depth, procs())
	fmt.Fprintf(os.Stderr, "udp = this host's loopback; simnet injects its default delay of %v per packet\n", simnet.Options{}.Latency)
	cfg := passConfig{name: "pass.untraced", seed: seed, conns: conns, window: depth, faults: true,
		setups: setupRepeats, warmup: warmup, duration: window}

	if !traced {
		res, err := runPass(w, cfg)
		if err != nil {
			fatal("%v", err)
		}
		m, attempted, failed := res.endToEnd()
		return finish(m, attempted, failed, res.problems)
	}

	// Per-layer run: probes, then the same untraced pass for the
	// program's counters, then two closed-loop passes over blocking
	// Invoke — the only client path the program traces — with tracing
	// off and on. Nothing here feeds the end-to-end table.
	spans := &spanLog{}
	root := spans.begin("run."+w.name, 0, 0)
	m := runProbes(seed, spans, root)
	cfg.spans, cfg.parent = spans, root
	cfg.setups, cfg.duration, cfg.poll = 1, window/2, true
	counted, err := runPass(w, cfg)
	if err != nil {
		fatal("%v", err)
	}
	e2e, attempted, failed := counted.endToEnd()
	for k, v := range counted.inRun() {
		m[k] = v
	}
	reconcile(m, e2e, w, bench.FleetSize(w.protocol, 0))

	cfg.name, cfg.conns, cfg.window, cfg.invoke = "pass.invoke", conns*depth, 1, true
	cfg.faults, cfg.poll, cfg.warmup, cfg.duration = false, false, warmup/4, window/4
	plain, err := runPass(w, cfg)
	if err != nil {
		fatal("%v", err)
	}
	cfg.name, cfg.traced = "pass.invoke-traced", true
	withTrace, err := runPass(w, cfg)
	if err != nil {
		fatal("%v", err)
	}
	phases, tracedTput := withTrace.phases()
	for k, v := range phases {
		m[k] = v
	}
	plainE2E, _, _ := plain.endToEnd()
	m["tracing.overhead_ratio"] = metric{Value: ratio(tracedTput, plainE2E["tput_ops_s"].Value), Unit: "ratio"}
	spans.end(root)
	if err := spans.write(spanFile); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark-side spans: %s (%d)\n", spanFile, len(spans.spans))
	problems := append(append(counted.problems, plain.problems...), withTrace.problems...)
	return finish(m, attempted, failed, problems)
}

func finish(m map[string]metric, attempted, failed int, problems []string) result {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("  %-36s %16.4f %-6s", n, m[n].Value, m[n].Unit)
		if m[n].N > 0 {
			line += fmt.Sprintf(" n=%d", m[n].N)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d\n", attempted, failed)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "FAILED CHECK:", p)
	}
	return result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// writeDocument writes the results with enough provenance to tell two
// documents apart.
func writeDocument(path string, results map[string]result, seed int64, seconds, trace int) error {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kind := "end_to_end"
	if trace == 1 {
		kind = "per_layer"
	}
	doc := map[string]any{
		"provenance": map[string]any{
			"git_commit": commit, "seed": seed, "gomaxprocs": procs(), "nproc": runtime.NumCPU(),
			"go_version": runtime.Version(), "window_seconds": seconds,
			"simnet_delay_ns": simnet.Options{}.Latency.Nanoseconds(), "udp": "loopback",
		},
		kind: withCounts(results),
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// withCounts is results with each metric's sample count beside its value
// (the result line itself carries value and unit only).
func withCounts(results map[string]result) map[string]any {
	out := map[string]any{}
	for name, r := range results {
		metrics := map[string]any{}
		for k, m := range r.Metrics {
			metrics[k] = map[string]any{"value": m.Value, "unit": m.Unit, "n": m.N}
		}
		out[name] = map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
	}
	return out
}
