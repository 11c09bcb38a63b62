package replication

import (
	"errors"
	"sort"

	"neobft/internal/transport"
	"neobft/internal/wire"
)

// ClientTable provides at-most-once execution semantics: it remembers the
// highest request ID executed per client and caches the reply so
// retransmitted requests are answered without re-execution (§C.1,
// "standard at-most-once techniques").
type ClientTable struct {
	entries map[transport.NodeID]*clientEntry
}

type clientEntry struct {
	lastReqID uint64
	lastReply *Reply
}

// NewClientTable creates an empty table.
func NewClientTable() *ClientTable {
	return &ClientTable{entries: make(map[transport.NodeID]*clientEntry)}
}

// Check classifies an incoming request ID for a client:
// fresh (execute it), duplicate (resend cached reply, returned non-nil),
// or stale (older than the last executed; ignore).
func (t *ClientTable) Check(client transport.NodeID, reqID uint64) (fresh bool, cached *Reply) {
	e, ok := t.entries[client]
	if !ok {
		return true, nil
	}
	switch {
	case reqID > e.lastReqID:
		return true, nil
	case reqID == e.lastReqID:
		return false, e.lastReply
	default:
		return false, nil
	}
}

// Store records the reply for a client's latest executed request.
func (t *ClientTable) Store(client transport.NodeID, reqID uint64, reply *Reply) {
	e, ok := t.entries[client]
	if !ok {
		e = &clientEntry{}
		t.entries[client] = e
	}
	if reqID >= e.lastReqID {
		e.lastReqID = reqID
		e.lastReply = reply
	}
}

// Last returns the client's entry: the ID of its latest executed request
// and the reply to it. ok is false when the client has no entry.
func (t *ClientTable) Last(client transport.NodeID) (reqID uint64, reply *Reply, ok bool) {
	if e, ok := t.entries[client]; ok {
		return e.lastReqID, e.lastReply, true
	}
	return 0, nil, false
}

// Revert puts back a client's entry as Last returned it, rolling back
// the speculative executions since: with ok false the client is deleted.
func (t *ClientTable) Revert(client transport.NodeID, reqID uint64, reply *Reply, ok bool) {
	if !ok {
		delete(t.entries, client)
		return
	}
	t.entries[client] = &clientEntry{lastReqID: reqID, lastReply: reply}
}

// Len returns the number of tracked clients.
func (t *ClientTable) Len() int { return len(t.entries) }

// Snapshot serializes the table deterministically (clients in ascending
// ID order). The client table must travel with application snapshots
// during state transfer: without it a restored replica would re-execute
// duplicate client requests that occupy later log slots, diverging from
// replicas that deduplicated them.
func (t *ClientTable) Snapshot() []byte {
	ids := make([]transport.NodeID, 0, len(t.entries))
	for id := range t.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w := wire.NewWriter(16 + 64*len(ids))
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		e := t.entries[id]
		w.U32(uint32(id))
		w.U64(e.lastReqID)
		if e.lastReply != nil {
			// Canonicalize the cached reply: View, Replica and Auth are
			// per-replica, so they must not leak into snapshot bytes that
			// checkpoint digests are computed over. A restoring replica
			// re-stamps them with Reauth.
			c := *e.lastReply
			c.View = 0
			c.Replica = 0
			c.Auth = nil
			w.VarBytes(c.Marshal())
		} else {
			w.VarBytes(nil)
		}
	}
	return w.Bytes()
}

// Reauth re-stamps every cached reply as belonging to this replica:
// after Restore, the replies carry canonicalized (zeroed) Replica and
// Auth fields, and a duplicate request must be answered with a reply the
// client can authenticate. mac computes the replica-to-client MAC over
// the reply's signed body.
func (t *ClientTable) Reauth(replica uint32, mac func(client transport.NodeID, body []byte) []byte) {
	for id, e := range t.entries {
		if e.lastReply == nil {
			continue
		}
		e.lastReply.Replica = replica
		e.lastReply.Auth = mac(id, e.lastReply.SignedBody())
	}
}

var errClientTableSnapshot = errors.New("replication: malformed client-table snapshot")

// Restore replaces the table contents with a Snapshot's.
func (t *ClientTable) Restore(data []byte) error {
	rd := wire.NewReader(data)
	n := rd.U32()
	if rd.Err() != nil || n > 1<<24 {
		return errClientTableSnapshot
	}
	entries := make(map[transport.NodeID]*clientEntry, n)
	for i := uint32(0); i < n; i++ {
		id := transport.NodeID(rd.U32())
		e := &clientEntry{lastReqID: rd.U64()}
		if repB := rd.VarBytes(); len(repB) > 0 {
			rep, err := UnmarshalReply(repB[1:]) // skip the kind byte
			if err != nil {
				return errClientTableSnapshot
			}
			e.lastReply = rep
		}
		entries[id] = e
	}
	if err := rd.Done(); err != nil {
		return errClientTableSnapshot
	}
	t.entries = entries
	return nil
}
