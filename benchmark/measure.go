package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"neobft/internal/chaos"
	"neobft/internal/metrics"
	"neobft/internal/tracing"
)

// warmup is discarded before the measured window opens.
var warmup = 2 * time.Second

const (
	// slices is how many equal parts the window is cut into. Every
	// end-to-end rate and timing is the median over the slices, so that a
	// disturbance confined to a few slices does not move the result.
	slices = 10
	// setupRepeats is how many times a run sets the system up; setup_s is
	// the median, the first one built is the one measured.
	setupRepeats = 5
	// convergeLimit is how long replicas get to agree on the executed
	// count once load has stopped.
	convergeLimit = 2 * time.Second
)

// passConfig is how one pass drives its system.
type passConfig struct {
	name     string // span name of the pass
	spans    *spanLog
	parent   uint64
	seed     int64
	conns    int
	window   int
	invoke   bool // blocking Invoke per connection: the only path the program traces
	traced   bool // Options.TraceRate = 1
	faults   bool // run the workload's crash schedule
	setups   int
	warmup   time.Duration
	duration time.Duration
	poll     bool // sample queue depths during the window (costs CPU)
}

// edge is a slice boundary: its offset from the start of load, the process
// CPU time consumed until then and the resident set at that moment.
type edge struct {
	at  int64
	cpu time.Duration
	rss float64 // MiB
}

// counters is one reading of everything the program exports.
type counters struct {
	at        int64 // ns since start of load
	mem       runtime.MemStats
	reg       map[string]metrics.Sample // all node registries merged
	busy      []time.Duration
	msgs      []uint64
	pkts      []uint64
	auth      uint64
	committed uint64
}

// passResult is everything one pass observed.
type passResult struct {
	cfg       passConfig
	w         workload
	setupS    []float64
	samples   []sample
	c0, c1    counters     // just before the window opens and just after it closes
	edges     []edge       // slices+1 slice boundaries; the window is [first, last)
	crashAt   atomic.Int64 // ns since start of load; 0 when nothing crashed
	viewAt    int64        // first proto_view_changes_total increment after the crash
	epochAt   int64        // first proto_epoch_changes_total increment after the crash
	queueMax  float64
	spans     []tracing.Span
	loadStart time.Time
	problems  []string // failed correctness checks
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMiB is the process's resident set, from /proc/self/statm. One
// workload runs per process, so it is the workload's.
func residentMiB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	fmt.Sscan(string(raw), &size, &resident)
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

func (s *system) read(l *load) counters {
	c := counters{at: l.now(), reg: map[string]metrics.Sample{}}
	runtime.ReadMemStats(&c.mem)
	snaps := make([][]metrics.Sample, len(s.sys.Metrics))
	for i, reg := range s.sys.Metrics {
		snaps[i] = reg.Snapshot()
	}
	for _, m := range metrics.Merge(snaps...) {
		c.reg[m.Name] = m
	}
	c.busy, c.msgs, c.pkts = s.sys.PerReplicaBusy(), s.sys.PerReplicaMsgs(), s.sys.PerReplicaPkts()
	c.auth, c.committed = s.sys.AuthOps(), s.sys.Committed()
	return c
}

// runPass sets the workload up, drives it for warmup + duration, stops
// load, and runs the correctness checks.
func runPass(w workload, cfg passConfig) (res *passResult, err error) {
	res = &passResult{cfg: cfg, w: w}
	timedSetup := func() (*system, error) {
		t0 := time.Now()
		s, err := setup(w, cfg.seed, cfg.conns, cfg.window, cfg.traced, cfg.faults)
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		cfg.spans.add("setup", cfg.parent, 0, t0, time.Now())
		return s, err
	}
	s, err := timedSetup()
	if err != nil {
		return nil, err
	}
	defer func() {
		// The remaining set-ups are timed once the measured system is
		// closed: by then the processor has left the slow state it starts
		// a process in, which would otherwise decide a millisecond figure.
		s.close()
		for len(res.setupS) < cfg.setups && err == nil {
			var extra *system
			if extra, err = timedSetup(); err == nil {
				extra.close()
			}
		}
	}()

	total := cfg.warmup + cfg.duration
	var schedule [][]int64
	if w.open && !cfg.invoke {
		for c := 0; c < cfg.conns; c++ {
			schedule = append(schedule, arrivals(cfg.seed, c, openRate/float64(cfg.conns), total))
		}
	}
	l := startLoad(s, cfg.window, cfg.invoke, schedule)
	res.loadStart = l.start

	var exec *chaos.Executor
	var watchers sync.WaitGroup
	watchStop := make(chan struct{})
	if w.seqCrash && cfg.faults {
		crash := cfg.warmup + cfg.duration/2
		sched := &chaos.Schedule{Name: w.name, Seed: cfg.seed,
			Events: []chaos.Event{{At: crash, Kind: chaos.KindSeqCrash}}}
		exec = chaos.Start(chaos.Fleet{
			Net: s.sys.Net, Replicas: s.sys.NumReplicas, ReplicaID: s.sys.ReplicaID,
			Crash: s.sys.Crash, Kill: s.sys.Kill, Restart: s.sys.Restart, Alive: s.sys.Alive,
			SkewClock: s.sys.SkewClock, Executed: s.sys.ExecutedAt,
			CrashSequencer: func() bool {
				res.crashAt.Store(l.now())
				return s.sys.CrashSequencer()
			},
		}, sched)
		watchers.Add(1)
		go func() { defer watchers.Done(); res.watchFailover(s, l, watchStop) }()
	} else if cfg.poll {
		watchers.Add(1)
		go func() { defer watchers.Done(); res.watchQueues(s, watchStop) }()
	}

	time.Sleep(cfg.warmup)
	res.c0 = s.read(l)
	opened := time.Now()
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(opened.Add(cfg.duration * time.Duration(i) / slices)))
		res.edges = append(res.edges, edge{at: l.now(), cpu: processCPU(), rss: residentMiB()})
	}
	res.c1 = s.read(l)
	res.samples = l.finish(res.edges[slices].at)
	close(watchStop)
	watchers.Wait()

	if exec != nil {
		report := exec.Finish()
		if report.SeqFailovers != 1 {
			res.problems = append(res.problems, fmt.Sprintf("sequencer crashes applied = %d, want 1", report.SeqFailovers))
		}
	}
	if !s.converge(convergeLimit) {
		res.problems = append(res.problems, "replicas did not converge on the executed count")
	}
	if w.ycsb && !s.statesEqual() {
		res.problems = append(res.problems, "replica kvstore snapshots differ")
	}
	if exec != nil {
		histories := map[int][]chaos.Entry{}
		for i, ra := range s.sys.RecApps {
			if ra != nil && s.sys.Alive(i) {
				histories[i] = ra.History()
			}
		}
		for _, v := range chaos.Check(histories, s.acks.Acks()).Violations {
			res.problems = append(res.problems, "chaos check: "+v)
		}
		if res.epochAt == 0 {
			res.problems = append(res.problems, "no epoch change followed the sequencer crash")
		}
	}
	for _, smp := range res.samples {
		if smp.wrong {
			res.problems = append(res.problems, "a reply failed the workload's check")
			break
		}
	}
	if cfg.traced {
		res.spans = s.sys.DrainSpans()
	}
	cfg.spans.addPass(cfg.name, cfg.parent, res)
	return res, nil
}

// watchFailover polls the replicas' view- and epoch-change counters every
// millisecond, from outside, to time the stages of the failover.
func (r *passResult) watchFailover(s *system, l *load, stop chan struct{}) {
	var views, epochs []*metrics.Counter
	for _, reg := range s.sys.Metrics[:s.sys.NumReplicas] {
		views = append(views, reg.Counter("proto_view_changes_total"))
		epochs = append(epochs, reg.Counter("proto_epoch_changes_total"))
	}
	sum := func(cs []*metrics.Counter) (n uint64) {
		for _, c := range cs {
			n += c.Load()
		}
		return n
	}
	v0, e0 := sum(views), sum(epochs)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if r.crashAt.Load() == 0 {
			v0, e0 = sum(views), sum(epochs)
			continue
		}
		if r.viewAt == 0 && sum(views) > v0 {
			r.viewAt = l.now()
		}
		if r.epochAt == 0 && sum(epochs) > e0 {
			r.epochAt = l.now()
		}
	}
}

// watchQueues samples every replica's runtime queue depth.
func (r *passResult) watchQueues(s *system, stop chan struct{}) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		for _, reg := range s.sys.Metrics[:s.sys.NumReplicas] {
			for _, m := range reg.Snapshot() {
				if m.Name == "runtime_queue_depth" && m.Value > r.queueMax {
					r.queueMax = m.Value
				}
			}
		}
	}
}

func (c counters) counter(name string) float64 { return c.reg[name].Value }

// hist returns the histogram name as observed between two readings.
func histBetween(c0, c1 counters, name string) *metrics.HistogramSnapshot {
	out := &metrics.HistogramSnapshot{}
	h1 := c1.reg[name].Hist
	if h1 == nil {
		return out
	}
	*out = *h1
	if h0 := c0.reg[name].Hist; h0 != nil {
		for i := range out.Buckets {
			out.Buckets[i] -= h0.Buckets[i]
		}
		out.Count -= h0.Count
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // sample count behind a timing; printed, and in the --json document
}

// when is the time that places a sample in the window: a closed-loop
// operation belongs where it completed, an open-loop operation where it
// was due.
func (r *passResult) when(s sample) int64 {
	if r.w.open && !r.cfg.invoke {
		return s.at
	}
	return s.end
}

// measured returns the samples that belong to the window.
func (r *passResult) measured() (in []sample, from, to int64) {
	from, to = r.edges[0].at, r.edges[slices].at
	for _, s := range r.samples {
		if t := r.when(s); t >= from && t < to {
			in = append(in, s)
		}
	}
	return in, from, to
}

// latenciesUS returns the sorted latencies, in µs, of the OK samples keep
// accepts.
func latenciesUS(in []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range in {
		if s.ok && keep(s) {
			out = append(out, float64(s.end-s.at)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// crashTail is how long after a crash a request may be due and still count
// toward that run's tail latency.
const crashTail = time.Second

// endToEnd computes the end-to-end metrics of an untraced pass, plus the
// attempted and failed counts. Each rate and timing is computed per slice
// and the median slice is reported; with a crash in the window only the
// slices that ended before it count, and p95_us is instead that of the
// requests due in the second after the crash — the time without service,
// charged to the requests it delayed.
func (r *passResult) endToEnd() (m map[string]metric, attempted, failed int) {
	in, _, _ := r.measured()
	crash := r.crashAt.Load()
	var rates, p50s, p95s, cpus, rss []float64
	steadyOps := 0
	for i := 0; i < slices && (crash == 0 || r.edges[i+1].at <= crash); i++ {
		lo, hi := r.edges[i], r.edges[i+1]
		done := 0
		for _, s := range in {
			if s.ok && s.end >= lo.at && s.end < hi.at {
				done++
			}
		}
		lats := latenciesUS(in, func(s sample) bool { t := r.when(s); return t >= lo.at && t < hi.at })
		rates = append(rates, float64(done)/(float64(hi.at-lo.at)/1e9))
		p50s = append(p50s, percentile(lats, 50))
		p95s = append(p95s, percentile(lats, 95))
		cpus = append(cpus, ratio(float64(hi.cpu-lo.cpu)/1e3, float64(done)))
		steadyOps += len(lats)
	}
	p95 := metric{Value: median(p95s), Unit: "us", N: steadyOps}
	if crash != 0 {
		tail := latenciesUS(in, func(s sample) bool { return s.at >= crash && s.at < crash+int64(crashTail) })
		p95 = metric{Value: percentile(tail, 95), Unit: "us", N: len(tail)}
	}
	for _, e := range r.edges {
		rss = append(rss, e.rss)
	}
	for _, s := range in {
		if !s.ok {
			failed++
		}
	}
	m = map[string]metric{
		"tput_ops_s":    {Value: median(rates), Unit: "ops/s", N: len(rates)},
		"p50_us":        {Value: median(p50s), Unit: "us", N: steadyOps},
		"p95_us":        p95,
		"cpu_us_per_op": {Value: median(cpus), Unit: "us", N: steadyOps},
		"setup_s":       {Value: median(r.setupS), Unit: "s", N: len(r.setupS)},
		"rss_mb":        {Value: median(rss), Unit: "MiB", N: len(rss)},
	}
	return m, len(in), failed
}
