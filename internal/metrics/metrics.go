// Package metrics is the repository's dependency-free instrumentation
// layer. Every replica, sequencer and runtime owns one Registry; the
// bench harness snapshots them into experiment output, and cmd/neokv
// exposes them over HTTP in Prometheus text format alongside
// net/http/pprof.
//
// Design goals, in order:
//
//  1. Hot-path cost must be a handful of nanoseconds: a Counter.Inc is
//     one atomic add; a Histogram.Observe is one bits.Len64 plus one
//     atomic add (no locks, no sampling, no allocation).
//  2. No dependencies beyond the standard library.
//  3. Percentiles without stored samples: histograms use power-of-two
//     buckets (bucket k counts values v with 2^(k-1) <= v < 2^k), so
//     p50/p99/p99.9 are computed from 65 counters with bounded
//     (sub-bucket-interpolated) error instead of an O(n) sample sort.
//
// The companion flight recorder (trace.go) captures rare-path protocol
// events in a fixed-size ring buffer for post-mortem dumps.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count: bucket k (1 <= k <= 64) holds values
// v with bits.Len64(v) == k, i.e. 2^(k-1) <= v < 2^k; bucket 0 holds
// exactly zero.
const histBuckets = 65

// Histogram is a lock-free power-of-two-bucket histogram. Observations
// are raw uint64s; by convention this repository records latencies in
// nanoseconds (the "_ns" metric-name suffix).
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value. This is the hot path: one bits.Len64 and
// one atomic add.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds (negative clamps
// to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Since records the nanoseconds elapsed since start.
func (h *Histogram) Since(start time.Time) {
	h.ObserveDuration(time.Since(start))
}

// Snapshot returns a point-in-time copy of the histogram. Concurrent
// Observes may land between bucket loads; the snapshot is still a valid
// histogram (each observation is atomically in or out).
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{}
	if h == nil {
		return s
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// HistogramSnapshot is an immutable histogram copy.
type HistogramSnapshot struct {
	Buckets [histBuckets]uint64
	Count   uint64
}

// BucketUpper returns the exclusive upper bound of bucket k.
func BucketUpper(k int) uint64 {
	if k <= 0 {
		return 1 // bucket 0 holds exactly zero
	}
	if k >= 64 {
		return math.MaxUint64
	}
	return 1 << uint(k)
}

// Quantile returns the q-quantile (0 < q <= 1) using ceil nearest-rank
// over the buckets, linearly interpolated inside the selected bucket.
// The true value lies within a factor of two of the estimate.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for k, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if k == 0 {
				return 0
			}
			lo := float64(uint64(1) << uint(k-1))
			hi := lo * 2
			frac := float64(rank-cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return float64(BucketUpper(histBuckets - 1))
}

// Mean returns the approximate mean, treating each bucket's mass as
// sitting at its geometric midpoint.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	var sum float64
	for k, n := range s.Buckets {
		if n == 0 || k == 0 {
			continue
		}
		lo := float64(uint64(1) << uint(k-1))
		sum += float64(n) * lo * 1.5
	}
	return sum / float64(s.Count)
}

// Merge adds other's buckets into s.
func (s *HistogramSnapshot) Merge(other *HistogramSnapshot) {
	if other == nil {
		return
	}
	for i, n := range other.Buckets {
		s.Buckets[i] += n
	}
	s.Count += other.Count
}

// Kind labels the metric flavours a Registry holds.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindFunc
	KindHistogram
)

// Registry is a named collection of metrics for one component (a
// replica, a sequencer, a runtime). Registration takes a mutex; reads
// and updates of the registered metrics are lock-free. A Registry also
// lazily owns one flight Recorder (see trace.go) so every instrumented
// component can trace without extra plumbing.
type Registry struct {
	mu    sync.Mutex
	items map[string]any
	funcs map[string]func() float64
	rec   *Recorder
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		items: make(map[string]any),
		funcs: make(map[string]func() float64),
	}
}

func lookup[T any](r *Registry, name string, make_ func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.items[name]; ok {
		t, ok := got.(T)
		if !ok {
			panic(fmt.Sprintf("metrics: %q re-registered with a different kind", name))
		}
		return t
	}
	t := make_()
	r.items[name] = t
	return t
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Histogram { return &Histogram{} })
}

// Func registers a gauge computed on demand (e.g. a queue depth read
// from len(chan)). Re-registering a name replaces the function.
func (r *Registry) Func(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.items[name]; ok {
		if _, isFunc := r.funcs[name]; !isFunc {
			panic(fmt.Sprintf("metrics: %q re-registered with a different kind", name))
		}
	}
	r.items[name] = fn
	r.funcs[name] = fn
}

// RegisterHeapGauges exports the Go runtime's heap occupancy as
// runtime_heap_inuse_bytes and runtime_heap_objects. The readings are
// process-wide, so register them on exactly one registry per merged
// snapshot (Merge sums Func samples).
func RegisterHeapGauges(r *Registry) {
	r.Func("runtime_heap_inuse_bytes", func() float64 {
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return float64(ms.HeapInuse)
	})
	r.Func("runtime_heap_objects", func() float64 {
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return float64(ms.HeapObjects)
	})
}

// Recorder returns the registry's flight recorder, creating it with the
// default capacity on first use.
func (r *Registry) Recorder() *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rec == nil {
		r.rec = NewRecorder(defaultRecorderSize)
	}
	return r.rec
}

// Sample is one metric in a snapshot.
type Sample struct {
	Name string
	Kind Kind
	// Value holds the counter, gauge or func value.
	Value float64
	// Hist holds the histogram snapshot (KindHistogram only).
	Hist *HistogramSnapshot
}

// Snapshot captures every registered metric, sorted by name (the stable
// ordering the CSV exporters rely on).
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.items))
	for name := range r.items {
		names = append(names, name)
	}
	items := make(map[string]any, len(r.items))
	for name, it := range r.items {
		items[name] = it
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	r.mu.Unlock()

	sort.Strings(names)
	out := make([]Sample, 0, len(names))
	for _, name := range names {
		switch m := items[name].(type) {
		case *Counter:
			out = append(out, Sample{Name: name, Kind: KindCounter, Value: float64(m.Load())})
		case *Gauge:
			out = append(out, Sample{Name: name, Kind: KindGauge, Value: float64(m.Load())})
		case *Histogram:
			out = append(out, Sample{Name: name, Kind: KindHistogram, Hist: m.Snapshot()})
		default:
			if fn := funcs[name]; fn != nil {
				out = append(out, Sample{Name: name, Kind: KindFunc, Value: fn()})
			}
		}
	}
	return out
}

// Merge combines snapshots from several registries into one: counters,
// gauges and funcs sum; histograms merge their buckets. This turns
// per-replica snapshots into system-wide totals.
func Merge(snaps ...[]Sample) []Sample {
	byName := map[string]*Sample{}
	var names []string
	for _, snap := range snaps {
		for i := range snap {
			s := &snap[i]
			acc, ok := byName[s.Name]
			if !ok {
				cp := *s
				if s.Hist != nil {
					h := *s.Hist
					cp.Hist = &h
				}
				byName[s.Name] = &cp
				names = append(names, s.Name)
				continue
			}
			acc.Value += s.Value
			if acc.Hist != nil {
				acc.Hist.Merge(s.Hist)
			}
		}
	}
	sort.Strings(names)
	out := make([]Sample, 0, len(names))
	for _, name := range names {
		out = append(out, *byName[name])
	}
	return out
}

// FlatPoint is one (name, value) pair of a flattened snapshot.
type FlatPoint struct {
	Name  string
	Value float64
}

// Flatten expands samples into scalar points with a stable, sorted
// ordering. Histograms expand into <name>_count, <name>_p50, <name>_p99,
// <name>_p999 and <name>_mean.
func Flatten(samples []Sample) []FlatPoint {
	out := make([]FlatPoint, 0, len(samples))
	for _, s := range samples {
		if s.Kind != KindHistogram {
			out = append(out, FlatPoint{Name: s.Name, Value: s.Value})
			continue
		}
		h := s.Hist
		out = append(out,
			FlatPoint{Name: s.Name + "_count", Value: float64(h.Count)},
			FlatPoint{Name: s.Name + "_p50", Value: h.Quantile(0.50)},
			FlatPoint{Name: s.Name + "_p99", Value: h.Quantile(0.99)},
			FlatPoint{Name: s.Name + "_p999", Value: h.Quantile(0.999)},
			FlatPoint{Name: s.Name + "_mean", Value: h.Mean()},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
