package neobft

import (
	"sync/atomic"
	"time"

	"neobft/internal/aom"
	"neobft/internal/configsvc"
	"neobft/internal/replication"
	"neobft/internal/transport"
)

// Client is a NeoBFT client: it multicasts signed requests through the
// aom primitive and waits for 2f+1 matching replies (§5.3). If replies
// are slow it retransmits via aom *and* unicasts the request to all
// replicas, which drives the sequencer-suspicion path. A reply from a
// newer epoch moves the client to that epoch's sequencer.
type Client struct {
	base   *replication.Client
	sender *aom.Sender
	conn   transport.Conn
	svc    *configsvc.Service
	group  uint32
	repls  []transport.NodeID
	// epoch is the epoch whose sequencer sender routes to.
	epoch atomic.Uint32
}

// ClientOptions configures a NeoBFT client.
type ClientOptions struct {
	Conn transport.Conn
	// Master seeds client↔replica authentication.
	Master []byte
	N, F   int
	// Replicas are the replica node IDs.
	Replicas []transport.NodeID
	// Group and Svc locate the aom group and its current sequencer.
	Group uint32
	Svc   *configsvc.Service
	// Timeout is the initial retransmission interval.
	Timeout time.Duration
	// Tune carries the windowing/backoff/metrics knobs. A non-zero
	// Timeout above overrides Tune.Timeout (legacy field).
	Tune replication.Tuning
}

// NewClient creates a client and installs its packet handler.
func NewClient(o ClientOptions) (*Client, error) {
	view, err := o.Svc.View(o.Group)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:   o.Conn,
		svc:    o.Svc,
		group:  o.Group,
		repls:  o.Replicas,
		sender: aom.NewSender(o.Conn, o.Group, view.Sequencer),
	}
	c.epoch.Store(view.Epoch)
	cfg := replication.ClientConfig{
		Conn:          o.Conn,
		N:             o.N,
		F:             o.F,
		Quorum:        2*o.F + 1,
		MatchPosition: true,
		Submit:        c.submit,
		OnReplyHook: func(rep *replication.Reply) {
			if UnpackView(rep.View).Epoch > c.epoch.Load() {
				c.refreshSequencer()
			}
		},
	}
	o.Tune.Apply(&cfg)
	if o.Timeout != 0 {
		cfg.Timeout = o.Timeout
	}
	c.base = replication.NewWiredClient(cfg, o.Master)
	return c, nil
}

func (c *Client) submit(req *replication.Request, retry bool) {
	if retry {
		// The sequencer may have been replaced; refresh the group route.
		c.refreshSequencer()
		// Unicast to all replicas so they can suspect the sequencer
		// (§5.3) while we keep resending through aom.
		pkt := req.Marshal()
		for _, m := range c.repls {
			c.conn.Send(m, pkt)
		}
	}
	c.sender.Send(req.Marshal())
}

// refreshSequencer routes the client to the group's current sequencer.
func (c *Client) refreshSequencer() {
	if view, err := c.svc.View(c.group); err == nil {
		c.sender.SetSequencer(view.Sequencer)
		c.epoch.Store(view.Epoch)
	}
}

// Invoke executes one operation against the replicated service.
func (c *Client) Invoke(op []byte, deadline time.Duration) ([]byte, error) {
	return c.base.Invoke(op, deadline)
}

// Start submits one operation into the pipeline (see replication.Call).
func (c *Client) Start(op []byte, deadline time.Duration) replication.Call {
	return c.base.Start(op, deadline)
}

// ID returns the client's node ID.
func (c *Client) ID() transport.NodeID { return c.conn.ID() }
