package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"neobft/internal/bench"
)

// sample is one operation as the load generator saw it. Times are
// nanosecond offsets from the start of load.
type sample struct {
	at      int64 // when it was sent (closed loop) or due (open loop)
	fired   int64 // when the generator got to it (open loop: at + lateness)
	started int64 // when the client's Start returned
	end     int64 // when its reply quorum (or failure) was seen
	ok      bool  // completed with the correct reply
	wrong   bool  // completed with a reply the checker rejects
}

// load drives a system's connections and keeps every sample in memory.
type load struct {
	s       *system
	window  int
	invoke  bool      // one blocking Invoke at a time per connection (traced passes)
	open    [][]int64 // per-connection arrival schedule; nil = closed loop
	start   time.Time
	stopAt  atomic.Int64 // issue nothing sent or due at or after this offset
	wg      sync.WaitGroup
	samples [][]sample // per connection, in completion order
}

// startLoad begins issuing on every connection. Closed loop: each
// connection keeps window operations in flight. Open loop: operations
// fire on the schedule and are timed from their due time, so the wait a
// stall imposes on later arrivals is charged to them.
func startLoad(s *system, window int, invoke bool, open [][]int64) *load {
	l := &load{s: s, window: window, invoke: invoke, open: open, start: time.Now()}
	l.stopAt.Store(math.MaxInt64)
	l.samples = make([][]sample, len(s.clients))
	for c := range s.clients {
		l.wg.Add(1)
		go l.run(c)
	}
	return l
}

func (l *load) now() int64 { return int64(time.Since(l.start)) }

type pending struct {
	op   []byte
	smp  sample
	call interface{ Wait() ([]byte, error) }
}

func (l *load) run(c int) {
	defer l.wg.Done()
	src := l.s.sources[c]
	out := make([]sample, 0, 1<<16)
	defer func() { l.samples[c] = out }()
	complete := func(p pending, reply []byte, err error) {
		p.smp.end = l.now()
		if err != nil {
			reply = nil
		}
		good := src.verify(p.op, reply)
		p.smp.ok = good
		p.smp.wrong = err == nil && !good
		out = append(out, p.smp)
	}
	if l.invoke {
		for l.now() < l.stopAt.Load() {
			p := pending{op: src.next()}
			p.smp.at = l.now()
			p.smp.fired = p.smp.at
			reply, err := l.s.clients[c].Invoke(p.op, opTimeout)
			p.smp.started = p.smp.at
			complete(p, reply, err)
		}
		return
	}
	st := l.s.clients[c].(bench.Starter)
	// slots mirrors the client's window so the send time is taken when a
	// slot is free, not while Start blocks on a full window.
	slots := make(chan struct{}, l.window)
	queue := make(chan pending, l.window)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range queue {
			reply, err := p.call.Wait()
			complete(p, reply, err)
			<-slots
		}
	}()
	issue := func(at, fired int64) {
		p := pending{op: src.next()}
		p.smp.at, p.smp.fired = at, fired
		p.call = st.Start(p.op, opTimeout)
		p.smp.started = l.now()
		queue <- p
	}
	if l.open == nil {
		for l.now() < l.stopAt.Load() {
			slots <- struct{}{}
			now := l.now()
			issue(now, now)
		}
	} else {
		// An arrival due before the stop is sent even if it was still
		// queued behind a full window when the stop came: it was attempted.
		for _, due := range l.open[c] {
			if d := due - l.now(); d > 0 && due < l.stopAt.Load() {
				time.Sleep(time.Duration(d))
			}
			if due >= l.stopAt.Load() {
				break
			}
			fired := l.now()
			slots <- struct{}{}
			issue(due, fired)
		}
	}
	close(queue)
	<-done
}

// finish stops issuing at offset until, waits for every operation sent or
// due before it and returns all samples.
func (l *load) finish(until int64) []sample {
	l.stopAt.Store(until)
	l.wg.Wait()
	var all []sample
	for _, s := range l.samples {
		all = append(all, s...)
	}
	return all
}
