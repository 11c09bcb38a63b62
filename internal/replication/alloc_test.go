package replication

import (
	"testing"
	"time"

	"neobft/internal/crypto/auth"
	"neobft/internal/transport"
)

// TestUnmarshalAllocs pins the decoders to one allocation, the struct:
// Op, Result and Auth are views into the packet.
func TestUnmarshalAllocs(t *testing.T) {
	req := (&Request{Client: 7, ReqID: 9, Op: []byte("op"), Auth: make([]byte, 32)}).Marshal()[1:]
	rep := (&Reply{View: 1, Replica: 2, Slot: 3, ReqID: 9, Result: []byte("result"), Auth: make([]byte, 8)}).Marshal()[1:]
	if allocs := testing.AllocsPerRun(100, func() { _, _ = UnmarshalRequest(req) }); allocs != 1 {
		t.Errorf("UnmarshalRequest allocates %v times, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = UnmarshalReply(rep) }); allocs != 1 {
		t.Errorf("UnmarshalReply allocates %v times, want 1", allocs)
	}
}

// nullConn is a Conn that drops what it is sent.
type nullConn struct{ id transport.NodeID }

func (c nullConn) ID() transport.NodeID        { return c.id }
func (nullConn) Send(transport.NodeID, []byte) {}
func (nullConn) SetHandler(transport.Handler)  {}
func (nullConn) Close() error                  { return nil }

// TestOnReplyAllocs pins a vote on a call that already has one to zero
// allocations: checking the reply's MAC and recording its voter cost
// nothing once the first matching reply made the call's vote entry.
func TestOnReplyAllocs(t *testing.T) {
	const n, runs = 64, 50
	master := []byte("client-master")
	c := NewClient(ClientConfig{
		Conn: nullConn{id: 100}, N: n, Quorum: n, MatchPosition: true,
		Auth:    auth.NewClientSide(master, 100, n),
		Submit:  func(*Request, bool) {},
		Timeout: time.Hour,
	})
	c.Start([]byte("op"), time.Hour)
	replies := make([]*Reply, n)
	for i := range replies {
		rep := &Reply{View: 1, Replica: uint32(i), Slot: 5, ReqID: 1, Result: []byte("result")}
		rep.Auth = auth.NewReplicaSide(master, i).TagFor(100, rep.SignedBody())
		replies[i] = rep
	}
	c.OnReply(replies[0])
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		c.OnReply(replies[next])
		next++
	})
	if allocs != 0 {
		t.Errorf("OnReply allocates %v times per vote, want 0", allocs)
	}
	k := c.pending[1]
	if len(k.votes) != 1 || k.votes[0].count != runs+2 {
		t.Fatalf("votes %+v, want one reply with %d voters", k.votes, runs+2)
	}
}
