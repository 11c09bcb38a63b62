package tracing

import (
	"time"

	"neobft/internal/transport"
)

// conn decorates a transport.Conn with trace-context propagation:
// outbound packets inherit the tracer's active context (attached as a
// wire envelope only when a sampled trace is active), and inbound
// envelopes are peeled and stashed on the tracer before the inner
// handler runs. Peeling happens on the conn's single delivery
// goroutine, which is what makes the one-slot inbound stash sufficient.
type conn struct {
	inner transport.Conn
	tr    *Tracer
}

// WrapConn returns c decorated with trace propagation via tr. A nil
// tracer returns c unchanged — the no-tracing configuration composes no
// wrapper at all, so the fast path is untouched.
func WrapConn(c transport.Conn, tr *Tracer) transport.Conn {
	if tr == nil {
		return c
	}
	return &conn{inner: c, tr: tr}
}

func (c *conn) ID() transport.NodeID { return c.inner.ID() }
func (c *conn) Close() error         { return c.inner.Close() }

func (c *conn) Send(to transport.NodeID, pkt []byte) {
	// One atomic load when no trace is active; the envelope allocation
	// is confined to sampled sends.
	if trace, parent := c.tr.Active(); trace != 0 {
		pkt = Attach(Ctx{Trace: trace, Parent: parent}, time.Now().UnixNano(), pkt)
	}
	c.inner.Send(to, pkt)
}

// Cork and Flush forward transport.Corker to the inner conn.
func (c *conn) Cork()  { transport.CorkerOf(c.inner).Cork() }
func (c *conn) Flush() { transport.CorkerOf(c.inner).Flush() }

func (c *conn) SetHandler(h transport.Handler) {
	c.inner.SetHandler(func(from transport.NodeID, pkt []byte) {
		// Stash unconditionally: a non-enveloped packet stores a zero
		// context, so a stale sampled context can never leak onto the
		// wrong message.
		ctx, inner, _ := Peel(pkt)
		c.tr.StashInbound(ctx)
		h(from, inner)
	})
}
