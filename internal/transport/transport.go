// Package transport defines the message-passing interface every protocol
// in this repository runs against, and the Fabric abstraction the system
// assembler builds clusters over. Two fabrics exist: the in-memory
// simulated data-center network (internal/simnet), used for all
// deterministic experiments, and a real UDP-socket transport
// (internal/transport/udpnet) that runs the same protocol code on actual
// sockets, in one process or many.
package transport

// NodeID identifies a participant on the network: replicas, clients, the
// sequencer switch, and the configuration service each get one.
type NodeID int32

// NilNode is an invalid node ID.
const NilNode NodeID = -1

// Handler processes one inbound packet. Implementations of Conn invoke
// the handler sequentially from a single goroutine per node, so protocol
// state machines need no internal locking for message processing. The
// packet's bytes are shared and read-only: a fabric may hand one slice
// to several handlers (simnet gives every member of a multicast the
// sender's slice, and a duplicated packet reaches one node twice), and
// the transport never reuses or mutates it after delivery. Decoders may
// therefore keep views into it for as long as they like; a handler that
// needs to write copies first.
type Handler func(from NodeID, packet []byte)

// Conn is one node's attachment to the network. Send is best-effort and
// non-blocking: the network may drop, delay or reorder packets, exactly
// the asynchronous/unreliable model aom and the BFT protocols assume.
type Conn interface {
	// ID returns this node's identity.
	ID() NodeID
	// Send transmits a packet to another node, best-effort. It must not
	// block on network I/O: a transport that cannot accept the packet
	// immediately drops it instead of stalling the caller.
	Send(to NodeID, packet []byte)
	// SetHandler installs the inbound packet handler. It must be called
	// before any packet is to be received.
	SetHandler(h Handler)
	// Close detaches the node from the network. After Close returns, no
	// new handler invocation starts (an invocation already in flight may
	// complete).
	Close() error
}

// Corker is an optional Conn capability for callers about to issue a run
// of sends (a multicast fan-out, a burst of replies). Cork opens a window;
// while any window is open the conn may hold packets, from every
// goroutine, and transmit them together, which on real sockets turns
// several system calls into one and several packets for one destination
// into one datagram. Windows nest by count, because several goroutines
// (a conn's reader, a runtime loop) cork the same conn: Flush transmits
// everything held, whoever sent it, and ends the caller's own window. The
// calls come in pairs: an unmatched Flush ends some other holder's window
// early (costing it its packing, never holding a packet back). A holder
// must Flush before it blocks, so no packet ever waits on a later event. Holding is bounded — a conn transmits on its own once its burst
// is full — and never reorders the packets one sender addresses to one
// destination. Only udpnet implements it (simnet hands packets over
// without a system call to save); callers go through CorkerOf, which
// makes the calls no-ops elsewhere.
type Corker interface {
	Cork()
	Flush()
}

// CorkerOf returns c's Corker, or one that does nothing when c (possibly
// nil) lacks the capability.
func CorkerOf(c Conn) Corker {
	if k, ok := c.(Corker); ok {
		return k
	}
	return noCork{}
}

type noCork struct{}

func (noCork) Cork()  {}
func (noCork) Flush() {}

// Fabric is a network nodes can join. The bench system assembler and the
// node lifecycle (crash–restart) run entirely against this interface, so
// a system builds identically over the simulated network and over real
// UDP sockets.
//
// Join attaches a node under the given ID. A previously closed node's ID
// may be rejoined — that is how a crashed process restarting is modeled.
// Joining an ID that is currently attached is an error (or a panic for
// fabrics whose IDs are assigned statically by a harness).
//
// Close detaches every node and releases the fabric's resources.
type Fabric interface {
	Join(id NodeID) (Conn, error)
	Close() error
}

// MangleFunc inspects a packet about to enter the fabric and returns the
// list of payloads to actually carry: nil keeps the original payload, an
// empty slice swallows the packet, and multiple entries duplicate it.
// Payload corruption is modelled by returning a rewritten copy. Used for
// Byzantine chaos injection.
type MangleFunc func(from, to NodeID, payload []byte) [][]byte

// The capability interfaces below are optional extensions a Fabric may
// implement. Fault injection needs omniscient control over packets in
// flight, which only the simulated network has; callers type-assert and
// degrade gracefully (the chaos executor records such events as skipped)
// when the fabric does not implement one.

// Partitioner can isolate nodes and links, modelling network partitions
// and failed switches. Only simnet implements it.
type Partitioner interface {
	// BlockNode blocks or unblocks all traffic to and from a node.
	BlockNode(id NodeID, block bool)
	// BlockLink blocks or unblocks the directed link from→to.
	BlockLink(from, to NodeID, block bool)
}

// LossInjector can override the fabric's random packet-loss behaviour at
// runtime (chaos drop bursts). A negative rate removes the override.
// Only simnet implements it.
type LossInjector interface {
	SetDrop(rate float64, filter func(from, to NodeID) bool)
}

// Mangleable can install a packet mangler that swallows, rewrites or
// duplicates packets in flight (Byzantine chaos injection); pass nil to
// remove. Only simnet implements it.
type Mangleable interface {
	SetMangler(m MangleFunc)
}

// Seeded reports the seed a fabric draws its randomness from, so
// harnesses can log it for deterministic replay. Only simnet implements
// it; fabrics over real networks have no replayable randomness.
type Seeded interface {
	Seed() int64
}
