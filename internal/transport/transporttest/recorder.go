package transporttest

import (
	"sync"

	"neobft/internal/transport"
)

// Packet is one packet a Recorder was asked to send.
type Packet struct {
	To    transport.NodeID
	Bytes []byte
}

// Recorder is a Conn that delivers nothing and keeps a copy of every
// packet sent through it, for tests that pin the exact bytes a node
// emits. Drive the node by calling its handler directly.
type Recorder struct {
	Self transport.NodeID

	mu   sync.Mutex
	sent []Packet
}

// ID implements transport.Conn.
func (r *Recorder) ID() transport.NodeID { return r.Self }

// Send implements transport.Conn.
func (r *Recorder) Send(to transport.NodeID, pkt []byte) {
	r.mu.Lock()
	r.sent = append(r.sent, Packet{To: to, Bytes: append([]byte(nil), pkt...)})
	r.mu.Unlock()
}

// SetHandler implements transport.Conn; nothing is ever delivered.
func (r *Recorder) SetHandler(transport.Handler) {}

// Close implements transport.Conn.
func (r *Recorder) Close() error { return nil }

// Sent returns the packets sent so far whose first byte is kind, oldest
// first.
func (r *Recorder) Sent(kind uint8) []Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Packet
	for _, p := range r.sent {
		if len(p.Bytes) > 0 && p.Bytes[0] == kind {
			out = append(out, p)
		}
	}
	return out
}
