package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"neobft/internal/bench"
	"neobft/internal/replication"
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "neobft-benchmark-test-")
	if err != nil {
		panic(err)
	}
	tmpRoot = dir
	spanFile = dir + "/spans.jsonl"
	warmup = 100 * time.Millisecond
	probeTime = 2 * time.Millisecond
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// The same seed must give byte-identical operation streams and arrival
// schedules; another seed must not.
func TestSameSeedSameInputs(t *testing.T) {
	stream := func(src opSource) []byte {
		var out []byte
		for i := 0; i < 500; i++ {
			op := src.next()
			out = append(out, op...)
			src.verify(op, nil) // retire it, as a failed operation would
		}
		return out
	}
	sources := map[string]func(seed int64) opSource{
		"echo": func(seed int64) opSource { return newEchoSource(seed, 1) },
		"ycsb": func(seed int64) opSource { return newYCSBSource(seed, 1, 2) },
	}
	for name, mk := range sources {
		if !bytes.Equal(stream(mk(7)), stream(mk(7))) {
			t.Errorf("%s: same seed, different operations", name)
		}
		if bytes.Equal(stream(mk(7)), stream(mk(8))) {
			t.Errorf("%s: different seeds, same operations", name)
		}
	}
	a, b := arrivals(7, 0, 4000, time.Second), arrivals(7, 0, 4000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different arrival schedule")
	}
	if reflect.DeepEqual(a, arrivals(8, 0, 4000, time.Second)) {
		t.Error("different seeds, same arrival schedule")
	}
	if len(a) < 3600 || len(a) > 4400 {
		t.Errorf("4000 ops/s for 1 s scheduled %d arrivals", len(a))
	}
}

func TestStatsFixtures(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {99, 10}, {90, 9}, {1, 1}, {100, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

// A ten-second closed-loop window with a known number of completions per
// slice: every end-to-end figure is the median over the slices.
func TestMedianOfSlicesFixture(t *testing.T) {
	sec := int64(time.Second)
	perSlice := []int{4, 2, 0, 2, 6, 4, 4, 4, 4, 4}
	r := &passResult{setupS: []float64{0.3, 0.1, 0.2}}
	for i := 0; i <= slices; i++ {
		r.edges = append(r.edges, edge{at: int64(i) * sec, cpu: time.Duration(i) * time.Millisecond, rss: float64(40 + i%3)})
	}
	for i, n := range perSlice {
		for k := 0; k < n; k++ {
			lat := int64(100 * time.Microsecond)
			if i == 4 {
				lat = int64(900 * time.Microsecond) // one disturbed slice
			}
			end := int64(i)*sec + sec/2 + int64(k)
			r.samples = append(r.samples, sample{at: end - lat, end: end, ok: true})
		}
	}
	r.samples = append(r.samples,
		sample{at: 0, end: sec, ok: false},           // failed inside the window
		sample{at: -sec, end: -1, ok: true},          // completed before it opened
		sample{at: 9 * sec, end: 10 * sec, ok: true}) // completed as it closed
	m, attempted, failed := r.endToEnd()
	want := map[string]float64{"tput_ops_s": 4, "p50_us": 100, "p95_us": 100, "cpu_us_per_op": 250, "setup_s": 0.2, "rss_mb": 41}
	for name, v := range want {
		if got := m[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if attempted != 35 || failed != 1 {
		t.Errorf("attempted %d failed %d, want 35 and 1", attempted, failed)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// emits: every workload is run briefly in both modes.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	check := func(w workload, kind string, specs []metricSpec, got result) {
		if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
			t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.name, kind, got.Correct, got.Attempted, got.Failed)
		}
		if len(got.Metrics) != len(specs) {
			t.Errorf("%s %s: %d metrics emitted, %d in BENCHMARK.json", w.name, kind, len(got.Metrics), len(specs))
		}
		for _, s := range specs {
			m, ok := got.Metrics[s.Name]
			if !ok || m.Unit != s.Unit || !name.MatchString(s.Name) {
				t.Errorf("%s %s: metric %q (%s) missing, misnamed or in unit %q", w.name, kind, s.Name, s.Unit, m.Unit)
			}
			if kind == "end_to_end" && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %q = %v", w.name, s.Name, m.Value)
			}
		}
	}
	for _, w := range workloads {
		check(w, "end_to_end", spec.EndToEnd, run(w, 1, 400*time.Millisecond, false))
	}
	// The per-layer names do not depend on the workload; one with a crash
	// in it exercises the most code.
	w, _ := findWorkload("neohm_sim_seqfail")
	check(w, "per_layer", spec.PerLayer, run(w, 1, 1600*time.Millisecond, true))
}

// corrupting flips one byte of every reply on its way to the caller.
type corrupting struct{ bench.Starter }

type corruptCall struct{ replication.Call }

func (c corruptCall) Wait() ([]byte, error) {
	reply, err := c.Call.Wait()
	if len(reply) > 0 {
		reply = append([]byte(nil), reply...)
		reply[len(reply)-1] ^= 1
	}
	return reply, err
}

func (c corrupting) Start(op []byte, d time.Duration) replication.Call {
	return corruptCall{c.Starter.Start(op, d)}
}

func (c corrupting) Invoke(op []byte, d time.Duration) ([]byte, error) { return c.Start(op, d).Wait() }

func TestCheckerRejectsCorruptReply(t *testing.T) {
	op := newEchoSource(1, 0).next()
	bad := append([]byte(nil), op...)
	bad[3] ^= 0x80
	if src := newEchoSource(1, 0); !src.verify(op, op) || src.verify(op, bad) {
		t.Error("echo check: accepts a corrupted reply or rejects a good one")
	}

	w, _ := findWorkload("neohm_sim_ycsb_durable")
	s, err := setup(w, 1, 2, clientWindow, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.clients[1] = corrupting{s.clients[1].(bench.Starter)}
	l := startLoad(s, clientWindow, false, nil)
	time.Sleep(200 * time.Millisecond)
	samples := l.finish(l.now())
	var good, wrong int
	for _, smp := range samples {
		if smp.ok {
			good++
		}
		if smp.wrong {
			wrong++
		}
	}
	if good == 0 || wrong == 0 {
		t.Errorf("one clean and one corrupting connection: %d ok, %d wrong of %d", good, wrong, len(samples))
	}
	if r := finish(map[string]metric{}, len(samples), wrong, []string{"a reply failed the workload's check"}); r.Correct {
		t.Error("a failed check still reports correct")
	}
}
