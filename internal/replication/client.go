package replication

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"neobft/internal/crypto/auth"
	"neobft/internal/metrics"
	"neobft/internal/transport"
)

// ClientConfig configures a protocol client.
type ClientConfig struct {
	// Conn is the client's network attachment.
	Conn transport.Conn
	// N and F are the replication parameters.
	N, F int
	// Quorum is how many matching replies complete an invocation
	// (NeoBFT: 2f+1; PBFT/HotStuff/MinBFT: f+1; Zyzzyva uses its own
	// client).
	Quorum int
	// MatchPosition additionally requires replies to agree on
	// (View, Slot, LogHash), as NeoBFT does (§5.3).
	MatchPosition bool
	// Auth authenticates requests and verifies replies.
	Auth *auth.ClientSide
	// Submit sends a request into the protocol; retry is true on
	// retransmissions (NeoBFT then also unicasts to all replicas).
	Submit func(req *Request, retry bool)
	// Timeout is the initial retransmission interval (default 100ms).
	// Each unanswered retransmission doubles it up to MaxTimeout, so a
	// partitioned client backs off instead of storming the network.
	Timeout time.Duration
	// MaxTimeout caps the retransmission backoff (default 8×Timeout).
	MaxTimeout time.Duration
	// Window is how many operations may be in flight at once (default
	// 1 — the classical closed-loop client). Start blocks while the
	// window is full; completions are released in issue order either
	// way, so window=1 behaves exactly like the pre-pipelining client.
	Window int
	// Metrics, when non-nil, receives the client_* series
	// (retransmissions, timeouts, in-flight gauge).
	Metrics *metrics.Registry
	// OnReplyHook, if set, observes every authenticated reply (used by
	// protocol clients to track the current primary from Reply.View).
	OnReplyHook func(*Reply)
}

// Tuning bundles the client-side knobs every protocol constructor
// threads into ClientConfig: the in-flight window, the retransmission
// backoff, and the metrics registry for the client_* series. The zero
// value is the classical closed-loop client (window 1, 100ms initial
// retransmit, 8× backoff cap, no metrics).
type Tuning struct {
	Window     int
	Timeout    time.Duration
	MaxTimeout time.Duration
	Metrics    *metrics.Registry
}

// Apply copies the tuning onto a ClientConfig.
func (t Tuning) Apply(cfg *ClientConfig) {
	cfg.Window = t.Window
	cfg.Timeout = t.Timeout
	cfg.MaxTimeout = t.MaxTimeout
	cfg.Metrics = t.Metrics
}

// Call is one in-flight operation started with Start. Wait blocks until
// the operation completes (quorum of matching replies, or its deadline)
// AND every operation started before it has completed — completions are
// released strictly in issue order, which keeps per-client request
// semantics identical to the closed-loop client.
type Call interface {
	Wait() ([]byte, error)
}

// Client is a windowed pipelined BFT client: up to Window operations in
// flight, each with its own quorum tracking and retransmission backoff,
// with in-order completion. Invoke (Start + Wait) preserves the
// closed-loop API.
type Client struct {
	cfg ClientConfig

	// slots is the in-flight window semaphore: Start acquires, finish
	// (quorum or timeout) releases.
	slots chan struct{}

	mu      sync.Mutex
	reqID   uint64
	pending map[uint64]*call // reqID → in-flight call
	queue   []*call          // issue order, for in-order release

	mRetrans  *metrics.Counter
	mTimeouts *metrics.Counter
	gInflight *metrics.Gauge
}

// vote is one distinct reply to a call and the replicas that sent it.
type vote struct {
	view    uint64
	slot    uint64
	logHash [32]byte
	result  []byte
	voters  []uint64 // bit i: replica i sent this reply
	count   int
}

type call struct {
	c   *Client
	req *Request
	// votes holds one entry per distinct reply: replicas that agree share
	// one, so a call rarely has more than one.
	votes []vote
	// quorum receives the result when enough matching replies arrive.
	quorum chan []byte
	// ready is closed when this call and every earlier one finished.
	ready    chan struct{}
	finished bool
	result   []byte
	err      error
}

// NewClient creates a client. The caller must route inbound packets to
// HandlePacket (typically from the Conn handler).
func NewClient(cfg ClientConfig) *Client {
	if cfg.Timeout == 0 {
		cfg.Timeout = 100 * time.Millisecond
	}
	if cfg.MaxTimeout == 0 {
		cfg.MaxTimeout = 8 * cfg.Timeout
	}
	if cfg.MaxTimeout < cfg.Timeout {
		cfg.MaxTimeout = cfg.Timeout
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	c := &Client{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Window),
		pending: make(map[uint64]*call),
	}
	if reg := cfg.Metrics; reg != nil {
		c.mRetrans = reg.Counter("client_retransmits_total")
		c.mTimeouts = reg.Counter("client_timeouts_total")
		c.gInflight = reg.Gauge("client_inflight")
	}
	return c
}

// ID returns the client's node ID.
func (c *Client) ID() transport.NodeID { return c.cfg.Conn.ID() }

// Start submits one operation and returns its Call. It blocks while the
// in-flight window is full.
func (c *Client) Start(op []byte, deadline time.Duration) Call {
	c.slots <- struct{}{}
	c.mu.Lock()
	c.reqID++
	req := &Request{Client: c.cfg.Conn.ID(), ReqID: c.reqID, Op: op}
	var body [256]byte // a larger body grows onto the heap
	req.Auth = c.cfg.Auth.TagVector(req.AppendSignedBody(body[:0]))
	k := &call{
		c:      c,
		req:    req,
		quorum: make(chan []byte, 1),
		ready:  make(chan struct{}),
	}
	c.pending[req.ReqID] = k
	c.queue = append(c.queue, k)
	c.gInflight.Set(int64(len(c.pending)))
	c.mu.Unlock()

	c.cfg.Submit(req, false)
	go k.run(deadline)
	return k
}

// Invoke executes one operation and blocks until it is successful
// (quorum of matching, authenticated replies) or the deadline passes.
func (c *Client) Invoke(op []byte, deadline time.Duration) ([]byte, error) {
	return c.Start(op, deadline).Wait()
}

// Wait implements Call.
func (k *call) Wait() ([]byte, error) {
	<-k.ready
	return k.result, k.err
}

// run owns the call's one timer, which fires at the next
// retransmission or at the deadline, whichever comes first. Each
// unanswered retransmission doubles the interval up to MaxTimeout.
func (k *call) run(deadline time.Duration) {
	c := k.c
	interval := c.cfg.Timeout
	end := time.Now().Add(deadline)
	t := time.NewTimer(min(interval, deadline))
	defer t.Stop()
	for {
		select {
		case result := <-k.quorum:
			k.finish(result, nil)
			return
		case <-t.C:
			if time.Until(end) <= 0 {
				c.mTimeouts.Inc()
				k.finish(nil, fmt.Errorf("client %d: request %d timed out", c.cfg.Conn.ID(), k.req.ReqID))
				return
			}
			c.cfg.Submit(k.req, true)
			c.mRetrans.Inc()
			interval = min(2*interval, c.cfg.MaxTimeout)
			t.Reset(min(interval, time.Until(end)))
		}
	}
}

// finish records the call's outcome, frees its window slot, and releases
// every completion that is now at the head of the issue order.
func (k *call) finish(result []byte, err error) {
	c := k.c
	c.mu.Lock()
	k.result = result
	k.err = err
	k.finished = true
	delete(c.pending, k.req.ReqID)
	c.gInflight.Set(int64(len(c.pending)))
	for len(c.queue) > 0 && c.queue[0].finished {
		close(c.queue[0].ready)
		c.queue = c.queue[1:]
	}
	c.mu.Unlock()
	<-c.slots
}

// HandlePacket consumes a reply packet; it returns true if the packet was
// a reply envelope.
func (c *Client) HandlePacket(from transport.NodeID, pkt []byte) bool {
	if len(pkt) == 0 || pkt[0] != KindReply {
		return false
	}
	rep, err := UnmarshalReply(pkt[1:])
	if err != nil {
		return true
	}
	c.OnReply(rep)
	return true
}

// OnReply feeds a decoded reply into the quorum counter of the call it
// answers.
func (c *Client) OnReply(rep *Reply) {
	if int(rep.Replica) >= c.cfg.N {
		return
	}
	var body [256]byte // a larger body grows onto the heap
	if !c.cfg.Auth.VerifyFrom(int(rep.Replica), rep.AppendSignedBody(body[:0]), rep.Auth) {
		return
	}
	if c.cfg.OnReplyHook != nil {
		c.cfg.OnReplyHook(rep)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.pending[rep.ReqID]
	if k == nil {
		return
	}
	var view, slot uint64
	var logHash [32]byte
	if c.cfg.MatchPosition {
		view, slot, logHash = rep.View, rep.Slot, rep.LogHash
	}
	i := slices.IndexFunc(k.votes, func(v vote) bool {
		return v.view == view && v.slot == slot && v.logHash == logHash && bytes.Equal(v.result, rep.Result)
	})
	if i < 0 {
		i = len(k.votes)
		k.votes = append(k.votes, vote{view: view, slot: slot, logHash: logHash, result: rep.Result,
			voters: make([]uint64, (c.cfg.N+63)/64)})
	}
	v := &k.votes[i]
	word, bit := rep.Replica/64, uint64(1)<<(rep.Replica%64)
	if v.voters[word]&bit == 0 {
		v.voters[word] |= bit
		v.count++
	}
	if v.count >= c.cfg.Quorum {
		select {
		case k.quorum <- rep.Result:
		default:
		}
	}
}
