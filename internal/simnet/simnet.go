// Package simnet is an in-memory simulated data-center network. It
// replaces the paper's physical testbed (nine servers behind a Tofino
// switch): nodes attach with transport.Conn semantics, and the network
// delivers packets with configurable one-way latency, jitter, seeded
// random drops (Fig 9), link blocking (partitions, sequencer failure) and
// Byzantine duplication/corruption hooks for equivocation and chaos
// experiments.
//
// Each node's handler runs on a dedicated delivery goroutine and receives
// packets one at a time, modelling a single-threaded replica event loop.
// Inboxes are bounded; overflow drops packets, which is exactly the
// unreliable-network behaviour the protocols must tolerate.
//
// Randomness is per-link: every directed (from, to) pair owns a PCG
// stream seeded from (Options.Seed, from, to), so the drop/jitter
// decision sequence on a link depends only on the seed and the packets
// sent over that link — not on how goroutines interleave across links.
// That is what makes seeded chaos schedules replayable.
package simnet

import (
	"container/heap"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neobft/internal/transport"
)

// Options configures a Network.
type Options struct {
	// Latency is the mean one-way packet latency. Zero means direct
	// handoff (no timer machinery), which is what throughput experiments
	// use.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) component to each packet.
	Jitter time.Duration
	// DropRate is the probability a packet is silently dropped. See also
	// DropFilter.
	DropRate float64
	// DropFilter restricts random drops to matching (from, to) pairs.
	// Nil means drops apply to every packet.
	DropFilter func(from, to transport.NodeID) bool
	// LatencyOverride, if set, can replace the one-way latency for a
	// specific link (return ok=false to use the default). Used to model
	// on-path devices like the aom sequencer switch, which splits a
	// host-to-host path rather than adding a full host hop.
	LatencyOverride func(from, to transport.NodeID) (time.Duration, bool)
	// Seed makes drop and jitter decisions reproducible.
	Seed int64
	// InboxSize bounds each node's delivery queue (default 65536).
	InboxSize int
}

// Stats reports network-wide packet counters.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // random drops + blocked links + inbox overflow
}

type packet struct {
	from, to transport.NodeID
	payload  []byte
	deliver  time.Time
}

// dropConfig is a dynamic override of the configured drop behaviour,
// installed by SetDrop for chaos drop-rate bursts.
type dropConfig struct {
	rate   float64
	filter func(from, to transport.NodeID) bool
}

// Mangler inspects a packet about to enter the fabric and returns the
// list of payloads to actually carry: nil keeps the original payload,
// an empty slice swallows the packet, and multiple entries duplicate it
// (each drawn an independent jitter). Payload corruption is modelled by
// returning a rewritten copy. Used for Byzantine chaos injection.
//
// It aliases transport.MangleFunc so *Network satisfies the
// transport.Mangleable capability interface.
type Mangler = transport.MangleFunc

// Network is a simulated network fabric.
type Network struct {
	opts Options

	mu      sync.RWMutex
	nodes   map[transport.NodeID]*Node
	blocked map[[2]transport.NodeID]bool

	linkMu sync.RWMutex
	links  map[[2]transport.NodeID]*linkRand

	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64

	// drop, when set, overrides Options.DropRate/DropFilter at runtime
	// (chaos drop bursts).
	drop atomic.Pointer[dropConfig]

	// tap, when set, observes every packet before delivery and may
	// rewrite or suppress it (returns deliver=false). Used to inject
	// Byzantine network behaviour in tests.
	tap atomic.Pointer[func(from, to transport.NodeID, payload []byte) bool]

	// mangler, when set, may swallow, rewrite or duplicate packets.
	mangler atomic.Pointer[Mangler]

	timerMu   sync.Mutex
	timerCond *sync.Cond
	timers    delayHeap
	closed    bool
}

// linkRand is the PCG stream owned by one directed link.
type linkRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// mix64 is a splitmix64-style finalizer used to derive per-link PCG
// seeds from (network seed, endpoint IDs).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// New creates a network.
func New(opts Options) *Network {
	if opts.InboxSize == 0 {
		opts.InboxSize = 65536
	}
	n := &Network{
		opts:    opts,
		nodes:   make(map[transport.NodeID]*Node),
		blocked: make(map[[2]transport.NodeID]bool),
		links:   make(map[[2]transport.NodeID]*linkRand),
	}
	n.timerCond = sync.NewCond(&n.timerMu)
	if opts.Latency > 0 || opts.Jitter > 0 {
		go n.timerLoop()
	}
	return n
}

// Seed returns the seed this network draws its randomness from, so
// harnesses can log it for replay.
func (n *Network) Seed() int64 { return n.opts.Seed }

// Fabric adapts a Network to transport.Fabric. The embedded *Network
// keeps every simnet capability — BlockNode, SetDrop, SetMangler, Seed,
// Stats — visible through the transport capability interfaces, so fault
// injection still works after the adaptation.
type Fabric struct{ *Network }

var (
	_ transport.Fabric       = Fabric{}
	_ transport.Partitioner  = Fabric{}
	_ transport.LossInjector = Fabric{}
	_ transport.Mangleable   = Fabric{}
	_ transport.Seeded       = Fabric{}
)

// Join implements transport.Fabric.
func (f Fabric) Join(id transport.NodeID) (transport.Conn, error) {
	return f.Network.Join(id), nil
}

// Close implements transport.Fabric.
func (f Fabric) Close() error {
	f.Network.Close()
	return nil
}

// linkRNG returns the PCG stream for the directed link from→to,
// creating it deterministically from the network seed on first use.
func (n *Network) linkRNG(from, to transport.NodeID) *linkRand {
	key := [2]transport.NodeID{from, to}
	n.linkMu.RLock()
	lr := n.links[key]
	n.linkMu.RUnlock()
	if lr != nil {
		return lr
	}
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	if lr = n.links[key]; lr == nil {
		s := uint64(n.opts.Seed)
		a := mix64(s ^ mix64(uint64(uint32(from))+0x9e3779b97f4a7c15))
		b := mix64(s ^ mix64(uint64(uint32(to))+0xc2b2ae3d27d4eb4f))
		lr = &linkRand{rng: rand.New(rand.NewPCG(a, b))}
		n.links[key] = lr
	}
	return lr
}

// Join attaches a node with the given ID and returns its connection.
// Joining an ID twice panics: IDs are assigned by the experiment harness.
// A closed node's ID may be reused, which is how the chaos harness models
// a crashed process restarting.
func (n *Network) Join(id transport.NodeID) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[id]; ok {
		panic("simnet: duplicate node ID")
	}
	nd := &Node{
		net:  n,
		id:   id,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	n.nodes[id] = nd
	go nd.deliveryLoop()
	return nd
}

// BlockLink blocks or unblocks the directed link from→to. Blocked links
// silently drop packets, modelling partitions and failed switches.
func (n *Network) BlockLink(from, to transport.NodeID, block bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if block {
		n.blocked[[2]transport.NodeID{from, to}] = true
	} else {
		delete(n.blocked, [2]transport.NodeID{from, to})
	}
}

// BlockNode blocks or unblocks all traffic to and from a node.
func (n *Network) BlockNode(id transport.NodeID, block bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.nodes {
		if block {
			n.blocked[[2]transport.NodeID{id, other}] = true
			n.blocked[[2]transport.NodeID{other, id}] = true
		} else {
			delete(n.blocked, [2]transport.NodeID{id, other})
			delete(n.blocked, [2]transport.NodeID{other, id})
		}
	}
}

// SetTap installs a packet observer/rewriter; pass nil to remove. The tap
// returns false to suppress delivery.
func (n *Network) SetTap(tap func(from, to transport.NodeID, payload []byte) bool) {
	if tap == nil {
		n.tap.Store(nil)
		return
	}
	n.tap.Store(&tap)
}

// SetMangler installs a packet mangler; pass nil to remove. The mangler
// runs after the tap and the random-drop decision, so duplicated packets
// each still draw independent jitter but share one drop decision.
func (n *Network) SetMangler(m Mangler) {
	if m == nil {
		n.mangler.Store(nil)
		return
	}
	n.mangler.Store(&m)
}

// SetDrop overrides the configured random-drop behaviour at runtime:
// rate applies to links matching filter (nil filter = all links).
// Passing a negative rate removes the override, restoring Options.
func (n *Network) SetDrop(rate float64, filter func(from, to transport.NodeID) bool) {
	if rate < 0 {
		n.drop.Store(nil)
		return
	}
	n.drop.Store(&dropConfig{rate: rate, filter: filter})
}

// Stats returns a snapshot of packet counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:      n.sent.Load(),
		Delivered: n.delivered.Load(),
		Dropped:   n.dropped.Load(),
	}
}

// Close shuts down the network and all node delivery loops.
func (n *Network) Close() {
	n.timerMu.Lock()
	n.closed = true
	n.timerCond.Broadcast()
	n.timerMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, nd := range n.nodes {
		nd.closeLocked()
	}
	n.nodes = map[transport.NodeID]*Node{}
}

func (n *Network) route(from, to transport.NodeID, payload []byte) {
	n.sent.Add(1)

	n.mu.RLock()
	dst, ok := n.nodes[to]
	blocked := n.blocked[[2]transport.NodeID{from, to}]
	n.mu.RUnlock()
	if !ok || blocked {
		n.dropped.Add(1)
		return
	}

	rate, filter := n.opts.DropRate, n.opts.DropFilter
	if dc := n.drop.Load(); dc != nil {
		rate, filter = dc.rate, dc.filter
	}
	if rate > 0 {
		if filter == nil || filter(from, to) {
			lr := n.linkRNG(from, to)
			lr.mu.Lock()
			drop := lr.rng.Float64() < rate
			lr.mu.Unlock()
			if drop {
				n.dropped.Add(1)
				return
			}
		}
	}

	if t := n.tap.Load(); t != nil {
		if !(*t)(from, to, payload) {
			n.dropped.Add(1)
			return
		}
	}

	if m := n.mangler.Load(); m != nil {
		if out := (*m)(from, to, payload); out != nil {
			if len(out) == 0 {
				n.dropped.Add(1)
				return
			}
			for _, p := range out[1:] {
				n.deliverOne(from, to, p, dst)
			}
			payload = out[0]
		}
	}

	n.deliverOne(from, to, payload, dst)
}

// deliverOne carries one payload over from→to, drawing its jitter from
// the link's stream.
func (n *Network) deliverOne(from, to transport.NodeID, payload []byte, dst *Node) {
	delay := n.opts.Latency
	if o := n.opts.LatencyOverride; o != nil {
		if d, ok := o(from, to); ok {
			delay = d
		}
	}
	if j := n.opts.Jitter; j > 0 {
		lr := n.linkRNG(from, to)
		lr.mu.Lock()
		delay += time.Duration(lr.rng.Int64N(int64(j)))
		lr.mu.Unlock()
	}
	p := packet{from: from, to: to, payload: payload}
	if delay == 0 {
		dst.enqueue(p)
		return
	}
	p.deliver = time.Now().Add(delay)
	n.timerMu.Lock()
	heap.Push(&n.timers, p)
	n.timerCond.Signal()
	n.timerMu.Unlock()
}

// timerLoop delivers delayed packets in timestamp order.
func (n *Network) timerLoop() {
	for {
		n.timerMu.Lock()
		for len(n.timers) == 0 && !n.closed {
			n.timerCond.Wait()
		}
		if n.closed {
			n.timerMu.Unlock()
			return
		}
		next := n.timers[0]
		now := time.Now()
		if wait := next.deliver.Sub(now); wait > 0 {
			n.timerMu.Unlock()
			if wait > time.Millisecond {
				// Long waits can afford the OS timer granularity.
				time.Sleep(wait)
			} else {
				// Sub-millisecond delays need better precision than the
				// runtime timer provides: yield-spin, giving the core to
				// runnable protocol goroutines in the meantime.
				for time.Now().Before(next.deliver) {
					runtime.Gosched()
				}
			}
			continue
		}
		heap.Pop(&n.timers)
		n.timerMu.Unlock()

		n.mu.RLock()
		dst, ok := n.nodes[next.to]
		n.mu.RUnlock()
		if ok {
			dst.enqueue(next)
		} else {
			n.dropped.Add(1)
		}
	}
}

// delayHeap orders packets by delivery time.
type delayHeap []packet

func (h delayHeap) Len() int            { return len(h) }
func (h delayHeap) Less(i, j int) bool  { return h[i].deliver.Before(h[j].deliver) }
func (h delayHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x interface{}) { *h = append(*h, x.(packet)) }
func (h *delayHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Node is one attachment point on the simulated network. It implements
// transport.Conn.
//
// Its inbox is a queue that grows with use rather than a channel of
// InboxSize slots, so an idle or lightly loaded node costs no memory for
// the bound it never reaches. queued counts every packet accepted and not
// yet handed to the handler, including those of a batch the delivery
// goroutine has taken and is still handing out, so the bound is the one
// a channel of that capacity would enforce.
type Node struct {
	net     *Network
	id      transport.NodeID
	handler atomic.Pointer[transport.Handler]
	done    chan struct{}
	closed  atomic.Bool

	mu     sync.Mutex
	inbox  []packet      // accepted, not yet taken by the delivery goroutine
	queued atomic.Int64  // accepted, not yet delivered
	wake   chan struct{} // signals the delivery goroutine that inbox is non-empty
}

var _ transport.Conn = (*Node)(nil)

// ID implements transport.Conn.
func (nd *Node) ID() transport.NodeID { return nd.id }

// Send implements transport.Conn.
func (nd *Node) Send(to transport.NodeID, payload []byte) {
	if nd.closed.Load() {
		return
	}
	nd.net.route(nd.id, to, payload)
}

// SetHandler implements transport.Conn.
func (nd *Node) SetHandler(h transport.Handler) {
	nd.handler.Store(&h)
}

// Close implements transport.Conn.
func (nd *Node) Close() error {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	if _, ok := nd.net.nodes[nd.id]; ok {
		delete(nd.net.nodes, nd.id)
		nd.closeLocked()
	}
	return nil
}

func (nd *Node) closeLocked() {
	if nd.closed.CompareAndSwap(false, true) {
		close(nd.done)
	}
}

func (nd *Node) enqueue(p packet) {
	if nd.queued.Add(1) > int64(nd.net.opts.InboxSize) {
		nd.queued.Add(-1)
		nd.net.dropped.Add(1) // inbox overflow: the network is unreliable
		return
	}
	nd.mu.Lock()
	nd.inbox = append(nd.inbox, p)
	nd.mu.Unlock()
	select {
	case nd.wake <- struct{}{}:
	default:
	}
}

// deliveryLoop hands packets to the handler one at a time, in the order
// they were accepted. It takes the whole inbox at once and swaps in the
// buffer of the batch before, so in steady state the queue allocates
// nothing.
func (nd *Node) deliveryLoop() {
	var batch []packet
	for {
		select {
		case <-nd.done:
			return
		case <-nd.wake:
		}
		nd.mu.Lock()
		batch, nd.inbox = nd.inbox, batch[:0]
		nd.mu.Unlock()
		for i, p := range batch {
			if nd.closed.Load() {
				return
			}
			batch[i] = packet{} // release the payload to the collector
			nd.queued.Add(-1)
			if h := nd.handler.Load(); h != nil {
				(*h)(p.from, p.payload)
				nd.net.delivered.Add(1)
			} else {
				nd.net.dropped.Add(1)
			}
		}
	}
}
