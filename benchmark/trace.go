package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"neobft/internal/tracing"
)

// benchSpan is one span the benchmark records around its calls into the
// program. Spans of one request share Req; Parent names the span that
// caused this one. Times are UnixNano.
type benchSpan struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the benchmark's spans in memory until the run ends. A nil
// log (tracing off) records nothing.
type spanLog struct {
	mu    sync.Mutex
	spans []benchSpan
}

func (l *spanLog) add(name string, parent, req uint64, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, benchSpan{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

func (l *spanLog) begin(name string, parent, req uint64) uint64 {
	now := time.Now()
	return l.add(name, parent, req, now, now)
}

func (l *spanLog) end(id uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = time.Now().UnixNano()
	l.mu.Unlock()
}

// spanFile is where the traced run leaves the benchmark's spans.
var spanFile = filepath.Join(".bench_build", "spans.jsonl")

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxRequestSpans bounds how many requests of a pass get their own spans,
// which keeps the span file to a few MB.
const maxRequestSpans = 20_000

// addPass records a pass and its requests: per request one span for the
// whole operation and, beneath it, the client's Start and Wait.
func (l *spanLog) addPass(name string, parent uint64, r *passResult) {
	if l == nil {
		return
	}
	at := func(ns int64) time.Time { return r.loadStart.Add(time.Duration(ns)) }
	pass := l.add(name, parent, 0, r.loadStart, at(r.c1.at))
	if crash := r.crashAt.Load(); crash != 0 {
		l.add("fault.seq-crash", pass, 0, at(crash), at(crash))
		l.add("fault.view-change", pass, 0, at(crash), at(r.viewAt))
		l.add("fault.epoch-change", pass, 0, at(r.viewAt), at(r.epochAt))
	}
	in, _, _ := r.measured()
	if len(in) > maxRequestSpans {
		in = in[:maxRequestSpans]
	}
	for i, s := range in {
		req := pass<<32 | uint64(i+1)
		op := l.add("request", pass, req, at(s.at), at(s.end))
		l.add("client.start", op, req, at(s.fired), at(s.started))
		l.add("client.wait", op, req, at(s.started), at(s.end))
	}
}

// phases reads the program's own spans of a traced pass and returns the
// p50 of each commit-path phase over the requests that completed in the
// window with a whole timeline (the program's span buffers are append-once:
// once a replica's is full, later requests lose their replica spans). It
// also returns the mean sum of the phases over the mean latency the load
// generator saw for the same stretch, and the traced throughput there.
func (r *passResult) phases() (m map[string]metric, tput float64) {
	m = map[string]metric{}
	rep := tracing.BuildTimelines(r.spans)
	in, from, _ := r.measured()
	unix := func(offset int64) int64 { return r.loadStart.Add(time.Duration(offset)).UnixNano() }
	var kept []tracing.Timeline
	last := unix(from)
	for _, tl := range rep.Timelines {
		if tl.End >= unix(from) && tl.Phases[tracing.AttrApply] > 0 {
			kept = append(kept, tl)
			last = max(last, tl.End)
		}
	}
	var sum float64
	for a, name := range tracing.AttrNames {
		vals := make([]float64, 0, len(kept))
		for _, tl := range kept {
			vals = append(vals, float64(tl.Phases[a])/1e3)
			sum += float64(tl.Phases[a]) / 1e3
		}
		sort.Float64s(vals)
		m["phase."+name+"_us"] = metric{Value: percentile(vals, 50), Unit: "us", N: len(vals)}
	}
	var seen float64
	lats := latenciesUS(in, func(s sample) bool { return unix(s.end) <= last })
	for _, v := range lats {
		seen += v
	}
	m["phase.sum_over_e2e"] = metric{
		Value: ratio(ratio(sum, float64(len(kept))), ratio(seen, float64(len(lats)))),
		Unit:  "ratio", N: len(kept)}
	return m, ratio(float64(len(lats)), float64(last-unix(from))/1e9)
}
