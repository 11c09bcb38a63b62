// Package udpnet implements transport.Conn and transport.Fabric over
// real UDP sockets. It is the deployment-mode counterpart of
// internal/simnet: the same protocol code drives either. An address book
// maps node IDs to UDP endpoints; in a multi-process cluster the book is
// loaded from a peers file (cmd/neokv), while single-process harnesses
// let the fabric bind loopback port 0 and publish the bound addresses.
//
// Both directions run to completion on the goroutine that has the packet.
// Send frames the message into a pooled buffer and issues a non-blocking
// send itself; while the conn is corked (transport.Corker) a message joins
// the newest held datagram for its destination if that stays within one
// Ethernet MTU, so a cork window emits one datagram per destination, and
// up to a burst of datagrams leave in one sendmmsg. A full socket buffer,
// an unknown destination, an oversize payload or a socket error drops the
// messages concerned — counted per kind in the metrics registry, with a
// flight-recorder trace on the first occurrence of each kind — exactly
// the lossy-network behaviour the protocols already tolerate. One reader
// goroutine per conn pulls up to a burst of datagrams per recvmmsg and
// invokes the handler for each message of each, in arrival order, with
// the conn corked so everything the handlers send shares datagrams; a
// slow handler backs up into the kernel socket buffer, whose overflow the
// kernel counts and the conn reports. Where recvmmsg/sendmmsg are
// unavailable the same loops run with a burst of one (sockio_other.go).
package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"

	"neobft/internal/metrics"
	"neobft/internal/transport"
)

// Every datagram is one frame: sender u32 | { len u16 | message }+, all
// little-endian. A message sent outside a cork window, or too large to
// share, is a frame of one.
const (
	// headerLen is the sender ID that opens a frame, prefixLen the length
	// before each message.
	headerLen = 4
	prefixLen = 2
	// maxDatagram bounds receive and send staging buffers.
	maxDatagram = 65535
	// MaxPayload is the largest message Send accepts by default: the IPv4
	// UDP datagram limit minus the frame overhead of a lone message.
	MaxPayload = 65507 - headerLen - prefixLen
	// packLimit is the largest frame a message may join: the UDP payload
	// of one 1,500-byte Ethernet MTU, so packing never makes a datagram
	// IP-fragment whose messages alone would not have.
	packLimit = 1472
)

// AddressBook maps node IDs to UDP addresses. Entries may be added or
// replaced at runtime (a fabric in AutoBind mode publishes dynamically
// bound ports, and a restarted node republishes its new one); senders
// resolve the destination on every Send, so they follow rebinds.
type AddressBook struct {
	mu    sync.RWMutex
	addrs map[transport.NodeID]*net.UDPAddr
}

// NewAddressBook resolves the given id→"host:port" table. A nil or empty
// table is valid: entries can be published later with Set.
func NewAddressBook(entries map[transport.NodeID]string) (*AddressBook, error) {
	book := &AddressBook{addrs: make(map[transport.NodeID]*net.UDPAddr, len(entries))}
	for id, hostport := range entries {
		addr, err := net.ResolveUDPAddr("udp", hostport)
		if err != nil {
			return nil, fmt.Errorf("udpnet: resolving node %d address %q: %w", id, hostport, err)
		}
		book.addrs[id] = addr
	}
	return book, nil
}

// Lookup returns the current address for a node, or nil if unknown.
func (b *AddressBook) Lookup(id transport.NodeID) *net.UDPAddr {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.addrs[id]
}

// Set publishes (or replaces) a node's address.
func (b *AddressBook) Set(id transport.NodeID, addr *net.UDPAddr) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[id] = addr
}

// Config tunes one connection. The zero value is production-safe.
type Config struct {
	// RcvBuf and SndBuf size the socket's SO_RCVBUF / SO_SNDBUF in bytes
	// (0 keeps the OS default). The receive buffer is the only queue
	// between the network and the handler, so heavy-traffic deployments
	// want it in the megabytes to ride out bursts and scheduling hiccups.
	RcvBuf, SndBuf int
	// MaxPacket caps the payload size Send accepts and guards the
	// receive path (default MaxPayload). Larger payloads are dropped
	// with the oversize counter, never fragmented or truncated.
	MaxPacket int
	// Metrics receives the conn's tx/rx/drop counters and first-drop
	// flight-recorder traces (nil = a private registry).
	Metrics *metrics.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxPacket <= 0 || cfg.MaxPacket > MaxPayload {
		cfg.MaxPacket = MaxPayload
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return cfg
}

// dropKind classifies why a packet was dropped.
type dropKind uint8

const (
	dropTxUnknown  dropKind = iota // destination not in the address book
	dropTxOversize                 // payload exceeds MaxPacket
	dropTxOverflow                 // socket send buffer full (EAGAIN)
	dropTxSockErr                  // the send failed otherwise
	dropRxOverflow                 // kernel receive buffer full (SO_RXQ_OVFL)
	dropRxShort                    // datagram shorter than its frame says
	nDropKinds
)

var dropCounterNames = [nDropKinds]string{
	dropTxUnknown:  "udp_tx_drop_unknown_total",
	dropTxOversize: "udp_tx_drop_oversize_total",
	dropTxOverflow: "udp_tx_drop_overflow_total",
	dropTxSockErr:  "udp_tx_drop_sockerr_total",
	dropRxOverflow: "udp_rx_drop_overflow_total",
	dropRxShort:    "udp_rx_drop_short_total",
}

// Flight-recorder kinds: one trace per conn on the first drop of each
// kind, so a silent misconfiguration (wrong peer ID, undersized buffer)
// leaves a visible mark without flooding the ring on sustained loss.
var (
	traceTxDrop = metrics.RegisterTraceKind("udp_tx_drop")
	traceRxDrop = metrics.RegisterTraceKind("udp_rx_drop")
)

// Buffer pools for send staging. Two size classes: the small one holds any
// frame messages can join (packLimit); snapshots and aom packets with
// large payloads travel alone in full-datagram buffers.
const smallBufSize = 2048

var smallPool = sync.Pool{New: func() any { b := make([]byte, smallBufSize); return &b }}
var largePool = sync.Pool{New: func() any { b := make([]byte, maxDatagram); return &b }}

func getBuf(n int) *[]byte {
	if n <= smallBufSize {
		return smallPool.Get().(*[]byte)
	}
	return largePool.Get().(*[]byte)
}

func putBuf(b *[]byte) {
	if cap(*b) >= maxDatagram {
		largePool.Put(b)
	} else {
		smallPool.Put(b)
	}
}

// txBatch is the frames awaiting one send call: a single one-message
// frame normally, up to a burst of packed ones while the conn is corked.
type txBatch struct {
	n    int
	bufs [burst]*[]byte
	lens [burst]int
	msgs [burst]int // messages in the frame: what a refused datagram drops
	dsts [burst]*net.UDPAddr
}

// Conn is a UDP-socket attachment implementing transport.Conn and
// transport.Corker.
type Conn struct {
	id   transport.NodeID
	sock *net.UDPConn
	io   *sockIO
	book *AddressBook
	cfg  Config

	handler atomic.Pointer[transport.Handler]

	// txMu guards corks and tx, and is held across the send call (which
	// the socket's own write lock would serialize anyway). corks is the
	// number of open cork windows: the reader's and the runtime loop's
	// nest.
	txMu  sync.Mutex
	corks int
	tx    txBatch

	closeOnce sync.Once
	closed    atomic.Bool
	// onClose, when set (by a Fabric), releases the conn's ID for rejoin.
	onClose func()

	// Packets and drops count messages (transport.Conn's packets), so
	// packets ÷ datagrams ÷ syscalls are registry ratios.
	txPkts, rxPkts     *metrics.Counter
	txBytes, rxBytes   *metrics.Counter
	txDgrams, rxDgrams *metrics.Counter
	txCalls, rxCalls   *metrics.Counter
	drops              [nDropKinds]*metrics.Counter
	traced             [nDropKinds]atomic.Bool
}

var (
	_ transport.Conn   = (*Conn)(nil)
	_ transport.Corker = (*Conn)(nil)
)

// Listen binds the node's own address from the book and starts the
// reader goroutine.
func Listen(id transport.NodeID, book *AddressBook) (*Conn, error) {
	return ListenConfig(id, book, Config{})
}

// ListenConfig is Listen with explicit tuning.
func ListenConfig(id transport.NodeID, book *AddressBook, cfg Config) (*Conn, error) {
	self := book.Lookup(id)
	if self == nil {
		return nil, fmt.Errorf("udpnet: node %d not in address book", id)
	}
	return listenAddr(id, book, self, cfg)
}

func listenAddr(id transport.NodeID, book *AddressBook, bind *net.UDPAddr, cfg Config) (*Conn, error) {
	cfg = cfg.withDefaults()
	sock, err := net.ListenUDP("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %v: %w", bind, err)
	}
	// Buffer sizing is best-effort: the kernel clamps to rmem_max/wmem_max.
	if cfg.RcvBuf > 0 {
		_ = sock.SetReadBuffer(cfg.RcvBuf)
	}
	if cfg.SndBuf > 0 {
		_ = sock.SetWriteBuffer(cfg.SndBuf)
	}
	io, err := newSockIO(sock)
	if err != nil {
		sock.Close()
		return nil, fmt.Errorf("udpnet: listen %v: %w", bind, err)
	}
	c := &Conn{id: id, sock: sock, io: io, book: book, cfg: cfg}
	reg := cfg.Metrics
	c.txPkts = reg.Counter("udp_tx_packets_total")
	c.rxPkts = reg.Counter("udp_rx_packets_total")
	c.txBytes = reg.Counter("udp_tx_bytes_total")
	c.rxBytes = reg.Counter("udp_rx_bytes_total")
	c.txDgrams = reg.Counter("udp_tx_datagrams_total")
	c.rxDgrams = reg.Counter("udp_rx_datagrams_total")
	c.txCalls = reg.Counter("udp_tx_syscalls_total")
	c.rxCalls = reg.Counter("udp_rx_syscalls_total")
	for k := range c.drops {
		c.drops[k] = reg.Counter(dropCounterNames[k])
	}
	go c.readLoop()
	return c, nil
}

// ID implements transport.Conn.
func (c *Conn) ID() transport.NodeID { return c.id }

// Send implements transport.Conn. It never blocks: the message is framed
// into a pooled buffer and sent with a non-blocking call on the caller's
// goroutine, or, while the conn is corked, held for the next Flush — in
// the newest held frame for the same destination when that frame stays
// within packLimit, in a frame of its own otherwise. If the socket buffer
// is full, the destination unknown, or the payload oversize, the message
// is dropped and counted. UDP is best-effort and the protocols tolerate
// loss, so no error surfaces to the caller.
func (c *Conn) Send(to transport.NodeID, packet []byte) {
	if c.closed.Load() {
		return
	}
	if len(packet) > c.cfg.MaxPacket {
		c.drop(dropTxOversize, 1, to, uint64(len(packet)))
		return
	}
	addr := c.book.Lookup(to)
	if addr == nil {
		c.drop(dropTxUnknown, 1, to, 0)
		return
	}
	need := prefixLen + len(packet)
	c.txMu.Lock()
	b := &c.tx
	i := b.n - 1
	for i >= 0 && b.dsts[i] != addr {
		i--
	}
	if i < 0 || b.lens[i]+need > packLimit {
		// A new frame goes behind every held one, so messages to one
		// destination keep their order across frames.
		if b.n == burst {
			c.flushLocked()
		}
		i = b.n
		b.n++
		b.bufs[i], b.lens[i], b.msgs[i], b.dsts[i] = getBuf(headerLen+need), headerLen, 0, addr
		binary.LittleEndian.PutUint32(*b.bufs[i], uint32(c.id))
	}
	putMessage((*b.bufs[i])[b.lens[i]:], packet)
	b.lens[i] += need
	b.msgs[i]++
	if c.corks == 0 {
		c.flushLocked()
	}
	c.txMu.Unlock()
}

// Cork implements transport.Corker: it opens a cork window. While any
// window is open, Sends (from any goroutine) are held.
func (c *Conn) Cork() {
	c.txMu.Lock()
	c.corks++
	c.txMu.Unlock()
}

// Flush implements transport.Corker: it transmits everything held, whoever
// sent it, and closes the caller's window (a Flush with none open only
// transmits).
func (c *Conn) Flush() {
	c.txMu.Lock()
	if c.corks > 0 {
		c.corks--
	}
	c.flushLocked()
	c.txMu.Unlock()
}

// flushLocked sends the held frames, in order, and returns their buffers
// to the pool. A frame the socket refuses is dropped, counting every
// message it carried; the ones behind it are still tried.
func (c *Conn) flushLocked() {
	b := &c.tx
	var sentMsgs, sentBytes uint64
	for i := 0; i < b.n; {
		sent, err := c.io.send(b, i)
		c.txCalls.Inc()
		switch {
		case err == nil:
			c.txDgrams.Add(uint64(sent))
			for end := i + sent; i < end; i++ {
				sentMsgs += uint64(b.msgs[i])
				sentBytes += uint64(b.lens[i])
			}
		case errors.Is(err, net.ErrClosed):
			i = b.n // racing Close: the rest goes the way of a Send after it
		case errors.Is(err, syscall.EAGAIN), errors.Is(err, syscall.ENOBUFS):
			c.drop(dropTxOverflow, uint64(b.msgs[i]), transport.NilNode, uint64(b.lens[i]))
			i++
		default:
			c.drop(dropTxSockErr, uint64(b.msgs[i]), transport.NilNode, 0)
			i++
		}
	}
	c.txPkts.Add(sentMsgs)
	c.txBytes.Add(sentBytes)
	for i := 0; i < b.n; i++ {
		putBuf(b.bufs[i])
		b.bufs[i] = nil
	}
	b.n = 0
}

// SetHandler implements transport.Conn.
func (c *Conn) SetHandler(h transport.Handler) { c.handler.Store(&h) }

// Close implements transport.Conn. After it returns no new handler
// invocation starts; a delivery already in flight may complete.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		err = c.sock.Close()
		if c.onClose != nil {
			c.onClose()
		}
	})
	return err
}

// LocalAddr returns the bound socket address (useful with port 0).
func (c *Conn) LocalAddr() *net.UDPAddr {
	return c.sock.LocalAddr().(*net.UDPAddr)
}

// drop counts n dropped packets of one kind and leaves a flight-recorder
// trace on the kind's first occurrence. peer is the destination of a
// send-side drop; receive-side drops record the conn's own ID.
func (c *Conn) drop(kind dropKind, n uint64, peer transport.NodeID, detail uint64) {
	c.drops[kind].Add(n)
	if c.traced[kind].CompareAndSwap(false, true) {
		tk := traceTxDrop
		if kind >= dropRxOverflow {
			tk = traceRxDrop
		}
		c.cfg.Metrics.Recorder().Record(tk, uint64(uint32(peer)), uint64(kind)<<32|detail&0xffffffff)
	}
}

// readLoop is the conn's single delivery goroutine — the transport.Conn
// contract. Each receive call fills up to a burst of staging slots, and
// the handler runs for each message of each datagram in arrival order
// before the next call, so a busy handler leaves datagrams in the kernel
// socket buffer; what overflows there the kernel counts (in datagrams),
// and the count rides in on the next datagram received. The burst is a
// cork window: what its handlers send — a sequencer's fan-out for every
// request of the burst, replies — and what other goroutines send
// meanwhile leaves packed, at the latest before the reader blocks again.
func (c *Conn) readLoop() {
	defer c.io.initRx()()
	var kernelDrops uint32
	for {
		n, err := c.io.recv()
		if err != nil {
			return // socket closed
		}
		c.rxCalls.Inc()
		c.rxDgrams.Add(uint64(n))
		c.Cork()
		for i := 0; i < n; i++ {
			c.deliver(c.io.datagram(i))
		}
		c.Flush()
		if d := c.io.rxDropped(); d != kernelDrops {
			c.drop(dropRxOverflow, uint64(d-kernelDrops), c.id, uint64(d))
			kernelDrops = d
		}
	}
}

// deliver hands one datagram's messages to the handler. The frame body is
// copied out of the staging slot once, because handlers keep views into
// what they receive; each message is a sub-slice capped at its own end,
// so an append cannot reach its neighbour. A length that overruns the
// datagram ends the walk: the messages before it are delivered, the rest
// counts as one short drop.
func (c *Conn) deliver(dgram []byte) {
	if len(dgram) < headerLen {
		c.drop(dropRxShort, 1, c.id, uint64(len(dgram)))
		return
	}
	h := c.handler.Load()
	if h == nil {
		return
	}
	from := transport.NodeID(binary.LittleEndian.Uint32(dgram))
	body := make([]byte, len(dgram)-headerLen)
	copy(body, dgram[headerLen:])
	for len(body) > 0 && !c.closed.Load() {
		msg, rest, ok := nextMessage(body)
		if !ok {
			c.drop(dropRxShort, 1, c.id, uint64(len(dgram)))
			return
		}
		body = rest
		c.rxPkts.Inc()
		c.rxBytes.Add(uint64(len(msg)))
		(*h)(from, msg)
	}
}

// putMessage writes msg with its length prefix at the start of at.
func putMessage(at, msg []byte) {
	binary.LittleEndian.PutUint16(at, uint16(len(msg)))
	copy(at[prefixLen:], msg)
}

// nextMessage splits the first message off a frame body. ok is false when
// the body is too short for the length it states.
func nextMessage(body []byte) (msg, rest []byte, ok bool) {
	if len(body) < prefixLen {
		return nil, nil, false
	}
	end := prefixLen + int(binary.LittleEndian.Uint16(body))
	if end > len(body) {
		return nil, nil, false
	}
	return body[prefixLen:end:end], body[end:], true
}
