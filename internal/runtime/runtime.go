// Package runtime is the shared replica runtime every protocol in this
// repository runs on. It replaces each protocol package's ad-hoc use of a
// raw transport.Conn with three shared facilities:
//
//  1. A single-threaded event loop that executes protocol state
//     transitions, preserving the transport contract's no-locking
//     invariant: ApplyEvent (and every timer callback and Call'd
//     function) runs on exactly one goroutine. The loop owns all protocol
//     state; any other goroutine reads or changes it through Call.
//
//  2. A verification stage ahead of the loop: client MACs, replica HMAC
//     vectors, aom authenticators, USIG certificates and public-key
//     signatures. A MAC check runs right on the transport's delivery
//     goroutine; a handler whose verification is expensive
//     (ExpensiveVerifier) gets a worker pool. Workers may finish out of
//     order; the loop retires tasks strictly in arrival order, so
//     per-sender FIFO delivery (guaranteed by simnet/udpnet's single
//     delivery goroutine) is preserved end to end.
//
//  3. Unified timers (Arm / ArmEvery / Cancel) whose callbacks fire on
//     the loop goroutine, replacing scattered time.Ticker and
//     time.AfterFunc usage in the protocol packages.
//
// Protocols implement Handler: VerifyPacket runs off the loop (on the
// delivery goroutine or a worker) and must only touch state that is
// immutable or internally synchronized (key material, signature tables,
// the packet itself); ApplyEvent runs on the loop and owns all mutable
// protocol state.
package runtime

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"neobft/internal/metrics"
	"neobft/internal/tracing"
	"neobft/internal/transport"
)

// Event is a pre-verified protocol event produced by VerifyPacket and
// consumed by ApplyEvent. A nil Event drops the packet.
type Event any

// Handler is the verify/apply pair a protocol registers with the runtime.
type Handler interface {
	// VerifyPacket classifies and authenticates one inbound packet. It is
	// called from the delivery goroutine or, when verification is pooled,
	// from worker goroutines, and must not touch loop-owned state.
	// Returning nil drops the packet.
	VerifyPacket(from transport.NodeID, pkt []byte) Event
	// ApplyEvent executes the state transition for a verified event. It
	// is only ever called from the loop goroutine.
	ApplyEvent(from transport.NodeID, ev Event)
}

// BatchVerifier is an optional Handler extension. When the registered
// handler implements it, each verification worker drains up to
// maxVerifyBatch queued packets in one pull and verifies them together,
// letting the handler amortize expensive work across packets — batched
// aom-pk signature verification shares its modular inversions this way.
// Verdicts are positional: out[i] is the event for pkts[i] (nil drops
// it). Ordered retirement is unchanged; a task's verdict simply lands
// together with its batch peers'.
type BatchVerifier interface {
	Handler
	// VerifyPacketBatch verifies a batch of packets under the same rules
	// as VerifyPacket. It runs on worker goroutines and must return one
	// event per packet.
	VerifyPacketBatch(froms []transport.NodeID, pkts [][]byte) []Event
}

// ExpensiveVerifier is an optional Handler extension consulted when
// Config.Workers is 0. A handoff to a worker and back costs more than a
// MAC check, so VerifyPacket then runs on the delivery goroutine unless
// the handler reports true: its packets carry public-key signatures.
type ExpensiveVerifier interface {
	Handler
	ExpensiveVerify() bool
}

// maxVerifyBatch bounds how many packets one worker pulls per drain. Big
// enough to amortize a batched signature verification, small enough to
// keep head-of-line retirement latency bounded under load.
const maxVerifyBatch = 32

// maxRun bounds how many queued events the loop retires back to back
// (with the conn corked) before it looks at its timers again.
const maxRun = 32

// Config configures a Runtime.
type Config struct {
	// Conn is the node's transport endpoint. The runtime installs its
	// handler on it at Start.
	Conn transport.Conn
	// Workers sets the verification pool size. 0 decides from the
	// handler: inline on the delivery goroutine, unless the handler is an
	// ExpensiveVerifier reporting true, which gets a pool sized from
	// GOMAXPROCS. A positive value forces a pool of that size and a
	// negative value forces inline verification.
	Workers int
	// Queue bounds the number of in-flight packets (default 4096). When
	// full, the delivery goroutine blocks, pushing back on the transport.
	Queue int
	// Metrics is the registry the runtime's stage instrumentation
	// registers into (verify/apply latency histograms, queue depth,
	// retirement lag). Replicas share one registry per node across the
	// runtime, the protocol and libAOM. If nil, New creates a private one.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records causal spans for sampled packets:
	// verify/queue/apply spans per traced packet, and an active trace
	// context around ApplyEvent so protocol sends inherit it (the Conn
	// must then be wrapped with tracing.WrapConn, which peels inbound
	// envelopes into the tracer before onPacket runs). Untraced packets
	// pay one atomic load. Nil disables tracing entirely.
	Tracer *tracing.Tracer
}

type task struct {
	from transport.NodeID
	pkt  []byte
	ev   Event
	// enq is the arrival timestamp (UnixNano); the loop derives the
	// retirement lag (queueing + verification) from it.
	enq int64
	// ready is set once ev is populated — by a worker as its last touch
	// of the task, or at creation for inline-verified packets and calls.
	ready atomic.Bool
	// call, when set, is a Call'd function instead of a packet.
	call func()
	// tctx is the trace context peeled from the packet's wire envelope
	// (zero when unsampled); vid is the verify span's ID (the apply
	// span's parent) and kind the packet's leading byte, recorded as a
	// span attribute. Only populated for sampled packets.
	tctx tracing.Ctx
	vid  uint64
	kind byte
}

// taskPool recycles tasks: the loop returns each one after retiring it.
var taskPool = sync.Pool{New: func() any { return new(task) }}

// Runtime is a replica's event loop plus verification pool plus timers.
type Runtime struct {
	cfg     Config
	workers int
	pooled  bool // verification runs on the worker pool; resolved at Start
	handler Handler
	// corker is the conn's send-coalescing capability (a no-op without
	// one): the loop corks across a run of events and flushes before it
	// blocks.
	corker transport.Corker

	// ordered carries tasks in arrival order to the loop; verifyq feeds
	// the same tasks to the worker pool. Both are bounded by cfg.Queue.
	// Tasks always enter ordered first, from the single delivery
	// goroutine, so the head of ordered is available to a worker
	// whenever verifyq is non-empty — the two queues cannot deadlock.
	ordered chan *task
	verifyq chan *task

	// wake (capacity 1) is how a worker that has readied a task rouses
	// a loop parked on an unverified head.
	wake chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
	// exited is closed when the loop goroutine returns; from then on
	// Call runs its function on the caller.
	exited chan struct{}

	verifyNS atomic.Int64
	applyNS  atomic.Int64

	metrics    *metrics.Registry
	verifyHist *metrics.Histogram // per-packet VerifyPacket latency
	applyHist  *metrics.Histogram // per-event ApplyEvent/timer latency
	retireHist *metrics.Histogram // arrival → retirement lag
	events     *metrics.Counter
	timerFires *metrics.Counter

	timers timerState
}

// New creates a runtime over cfg.Conn. Call Start to begin delivery.
func New(cfg Config) *Runtime {
	if cfg.Queue <= 0 {
		cfg.Queue = 4096
	}
	w := cfg.Workers
	if w <= 0 {
		w = stdruntime.GOMAXPROCS(0) - 1
		if w > 4 {
			w = 4
		}
		if w < 1 {
			w = 1
		}
	}
	rt := &Runtime{
		cfg:     cfg,
		workers: w,
		ordered: make(chan *task, cfg.Queue),
		verifyq: make(chan *task, cfg.Queue),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		exited:  make(chan struct{}),
	}
	rt.corker = transport.CorkerOf(cfg.Conn)
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rt.metrics = reg
	rt.verifyHist = reg.Histogram("runtime_verify_ns")
	rt.applyHist = reg.Histogram("runtime_apply_ns")
	rt.retireHist = reg.Histogram("runtime_retire_lag_ns")
	rt.events = reg.Counter("runtime_events_total")
	rt.timerFires = reg.Counter("runtime_timer_fires_total")
	reg.Func("runtime_queue_depth", func() float64 { return float64(len(rt.ordered)) })
	rt.timers.init()
	return rt
}

// Metrics returns the registry the runtime registers its stage
// instrumentation into (the one from Config.Metrics, or the private one
// New created).
func (rt *Runtime) Metrics() *metrics.Registry {
	return rt.metrics
}

// Tracer returns the tracer from Config.Tracer (nil when tracing is
// disabled; the tracing package's methods are all nil-safe).
func (rt *Runtime) Tracer() *tracing.Tracer {
	return rt.cfg.Tracer
}

// Workers reports the verification pool size in use (0 means inline).
// With Config.Workers 0 the handler decides, so it is 0 until Start.
func (rt *Runtime) Workers() int {
	if !rt.pooled {
		return 0
	}
	return rt.workers
}

// Start registers h and begins processing packets and timers. It must be
// called exactly once, after the protocol's state is fully constructed.
func (rt *Runtime) Start(h Handler) {
	if h == nil {
		panic("runtime: Start with nil handler")
	}
	if !rt.started.CompareAndSwap(false, true) {
		panic("runtime: Start called twice")
	}
	rt.handler = h
	ev, _ := h.(ExpensiveVerifier)
	rt.pooled = rt.cfg.Workers > 0 || rt.cfg.Workers == 0 && ev != nil && ev.ExpensiveVerify()
	if rt.pooled {
		for i := 0; i < rt.workers; i++ {
			go rt.worker()
		}
	}
	go rt.loop()
	if rt.cfg.Conn != nil {
		rt.cfg.Conn.SetHandler(rt.onPacket)
	}
}

// Close stops the loop and workers. Safe to call multiple times and from
// any goroutine, including the loop itself.
func (rt *Runtime) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
}

// onPacket is the transport handler: it verifies the packet in place or
// hands it to the verification pool, and enqueues it in arrival order.
func (rt *Runtime) onPacket(from transport.NodeID, pkt []byte) {
	now := time.Now()
	t := taskPool.Get().(*task)
	*t = task{from: from, pkt: pkt, enq: now.UnixNano()}
	// TakeInbound consumes the envelope context WrapConn peeled for this
	// delivery (zero for untraced packets and when tracing is off; the
	// call is nil-safe and lock-free).
	if tctx := rt.cfg.Tracer.TakeInbound(); tctx.Trace != 0 {
		t.tctx = tctx
		if len(pkt) > 0 {
			t.kind = pkt[0]
		}
		rt.cfg.Tracer.ObserveTransit(time.Duration(t.enq - tctx.TS))
	}
	if !rt.pooled {
		rt.verifyOne(t, now)
		if t.ev == nil {
			taskPool.Put(t)
			return
		}
	}
	select {
	case rt.ordered <- t:
	case <-rt.stop:
		return
	}
	if rt.pooled {
		select {
		case rt.verifyq <- t:
		case <-rt.stop:
		}
	}
}

// Call runs fn on the loop goroutine, ordered after every packet already
// accepted, and returns once fn has run. It is how any other goroutine
// reads or changes the state the loop owns (replica accessors, the
// persister's capture). Before Start and after the loop has exited
// (Close) there is no loop to race, so fn runs on the caller instead;
// either way it runs exactly once. Call must not be invoked from the
// loop itself (ApplyEvent, a timer callback or a Call'd function): the
// loop would wait on itself.
func (rt *Runtime) Call(fn func()) {
	if !rt.started.Load() {
		fn()
		return
	}
	ran := make(chan struct{})
	t := taskPool.Get().(*task)
	*t = task{call: func() { fn(); close(ran) }}
	t.ready.Store(true)
	select {
	case rt.ordered <- t:
		select {
		case <-ran:
			return
		case <-rt.exited:
		}
		// The loop has returned: it either ran fn before that or never
		// will, since nothing drains ordered any more.
		select {
		case <-ran:
			return
		default:
		}
	case <-rt.exited:
	}
	fn()
}

// Flush blocks until every packet accepted before the call has been
// verified and applied. Intended for tests and benchmarks.
func (rt *Runtime) Flush() { rt.Call(func() {}) }

func (rt *Runtime) worker() {
	bh, _ := rt.handler.(BatchVerifier)
	var batch []*task
	var froms []transport.NodeID
	var pkts [][]byte
	for {
		select {
		case <-rt.stop:
			return
		case t := <-rt.verifyq:
			// Opportunistic drain for a batching handler: take whatever else
			// is already queued, up to the batch cap, without blocking.
			batch = append(batch[:0], t)
		drain:
			for bh != nil && len(batch) < maxVerifyBatch {
				select {
				case t2 := <-rt.verifyq:
					batch = append(batch, t2)
				default:
					break drain
				}
			}
			if len(batch) == 1 {
				rt.verifyOne(t, time.Now())
				rt.wakeLoop()
				continue
			}
			froms = froms[:0]
			pkts = pkts[:0]
			for _, bt := range batch {
				froms = append(froms, bt.from)
				pkts = append(pkts, bt.pkt)
			}
			start := time.Now()
			evs := bh.VerifyPacketBatch(froms, pkts)
			d := time.Since(start)
			rt.verifyNS.Add(d.Nanoseconds())
			// Per-packet attribution: each task gets an equal share of the
			// batch's wall time (the histogram and traced verify spans have
			// no per-packet boundary inside a batched call).
			per := d / time.Duration(len(batch))
			for i, bt := range batch {
				if i < len(evs) {
					bt.ev = evs[i]
				}
				rt.verifyHist.ObserveDuration(per)
				if bt.tctx.Trace != 0 {
					bt.vid = rt.cfg.Tracer.SpanID()
					rt.cfg.Tracer.Span(bt.vid, bt.tctx.Trace, bt.tctx.Parent, tracing.PhaseVerify, start, per, 0, uint64(bt.kind))
				}
				bt.ready.Store(true)
				rt.wakeLoop()
			}
		}
	}
}

// verifyOne runs the single-packet verify path for one task; start is now.
func (rt *Runtime) verifyOne(t *task, start time.Time) {
	t.ev = rt.handler.VerifyPacket(t.from, t.pkt)
	d := time.Since(start)
	rt.verifyNS.Add(d.Nanoseconds())
	rt.verifyHist.ObserveDuration(d)
	if t.tctx.Trace != 0 {
		t.vid = rt.cfg.Tracer.SpanID()
		rt.cfg.Tracer.Span(t.vid, t.tctx.Trace, t.tctx.Parent, tracing.PhaseVerify, start, d, 0, uint64(t.kind))
	}
	t.ready.Store(true)
}

// wakeLoop follows every ready.Store by a worker. A token left in wake
// by an earlier call is as good as a new one, so a loop that parks after
// seeing the flag unset always finds one; a stale token costs it one
// extra look at the flag.
func (rt *Runtime) wakeLoop() {
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

func (rt *Runtime) loop() {
	defer close(rt.exited)
	tm := time.NewTimer(time.Hour)
	defer tm.Stop()
	for {
		rt.timers.rearm(tm)
		select {
		case <-rt.stop:
			return
		case <-rt.timers.wake:
			// A timer was armed or canceled; recompute the deadline.
		case <-tm.C:
			rt.corker.Cork()
			rt.runDueTimers()
			rt.corker.Flush()
		case t := <-rt.ordered:
			if !rt.retireRun(t) {
				return
			}
		}
	}
}

// retireRun retires t and the events already queued behind it, up to
// maxRun, with the conn corked so the run's sends share system calls.
// It flushes before it parks on an unverified head and when the run
// ends, so no packet waits on a later event. False means stop.
func (rt *Runtime) retireRun(t *task) bool {
	rt.corker.Cork()
	defer rt.corker.Flush()
	for n := 1; ; n++ {
		for !t.ready.Load() {
			rt.corker.Flush()
			select {
			case <-rt.wake:
				rt.corker.Cork()
			case <-rt.stop:
				rt.corker.Cork() // windows nest by count: the deferred Flush ends this one
				return false
			}
		}
		rt.retire(t)
		if n == maxRun {
			return true
		}
		select {
		case t = <-rt.ordered:
		default:
			return true
		}
	}
}

// retire applies one ready task on the loop goroutine and recycles it.
func (rt *Runtime) retire(t *task) {
	start := time.Now()
	if t.enq != 0 {
		if lag := start.UnixNano() - t.enq; lag > 0 {
			rt.retireHist.Observe(uint64(lag))
			if t.tctx.Trace != 0 {
				// Queue span: the packet's wait from arrival to
				// retirement, parented under its verify span.
				rt.cfg.Tracer.Span(rt.cfg.Tracer.SpanID(), t.tctx.Trace, t.vid,
					tracing.PhaseQueue, time.Unix(0, t.enq), time.Duration(lag), 0, uint64(t.kind))
			}
		}
	}
	switch {
	case t.call != nil:
		t.call()
	case t.ev != nil && t.tctx.Trace != 0:
		// Sends issued by ApplyEvent inherit the traced packet's
		// context via the wrapped conn; the apply span is the
		// parent the next hop's verify span will point back to.
		aid := rt.cfg.Tracer.SpanID()
		rt.cfg.Tracer.SetActive(t.tctx.Trace, aid)
		rt.handler.ApplyEvent(t.from, t.ev)
		rt.cfg.Tracer.ClearActive()
		rt.cfg.Tracer.Span(aid, t.tctx.Trace, t.vid, tracing.PhaseApply, start, time.Since(start), 0, uint64(t.kind))
		rt.events.Inc()
	case t.ev != nil:
		rt.handler.ApplyEvent(t.from, t.ev)
		rt.events.Inc()
	}
	d := time.Since(start)
	rt.applyNS.Add(d.Nanoseconds())
	rt.applyHist.ObserveDuration(d)
	t.pkt, t.ev, t.call = nil, nil, nil
	taskPool.Put(t)
}

func (rt *Runtime) runDueTimers() {
	for _, fn := range rt.timers.due(time.Now()) {
		start := time.Now()
		fn()
		d := time.Since(start)
		rt.applyNS.Add(d.Nanoseconds())
		rt.applyHist.ObserveDuration(d)
		rt.timerFires.Inc()
	}
}

// VerifyBusy returns cumulative wall time spent in VerifyPacket, summed
// across workers (it can exceed elapsed time on multi-core hosts).
func (rt *Runtime) VerifyBusy() time.Duration {
	return time.Duration(rt.verifyNS.Load())
}

// ApplyBusy returns cumulative wall time spent applying events and
// running timer callbacks on the loop goroutine.
func (rt *Runtime) ApplyBusy() time.Duration {
	return time.Duration(rt.applyNS.Load())
}

// Busy returns VerifyBusy + ApplyBusy: the total compute a replica spent
// on protocol work, the quantity the bench harness projects capacity from.
func (rt *Runtime) Busy() time.Duration {
	return rt.VerifyBusy() + rt.ApplyBusy()
}
