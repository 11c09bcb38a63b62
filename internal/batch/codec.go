package batch

import (
	"neobft/internal/replication"
	"neobft/internal/wire"
)

// MaxWireCount bounds the request count a decoder will accept — the
// same 2^16 cap every leader protocol enforced before the codec was
// shared, so a forged header cannot force a huge allocation.
const MaxWireCount = 1 << 16

// MarshalInto appends the canonical batch encoding: a uint32 request
// count followed by each request as a length-prefixed body with the
// envelope kind stripped. This is byte-identical to the encoding the
// four leader protocols previously produced inline, so ordering
// messages remain wire-compatible across the refactor (PROTOCOL.md).
func MarshalInto(w *wire.Writer, reqs []*replication.Request) {
	w.U32(uint32(len(reqs)))
	for _, req := range reqs {
		w.VarBytes(req.Marshal()[1:]) // strip envelope kind
	}
}

// Unmarshal decodes a batch produced by MarshalInto. It reports ok=false
// on a truncated or malformed encoding, or a count above MaxWireCount.
func Unmarshal(rd *wire.Reader) ([]*replication.Request, bool) {
	n := rd.U32()
	if rd.Err() != nil || n > MaxWireCount {
		return nil, false
	}
	reqs := make([]*replication.Request, n)
	for i := range reqs {
		req, err := replication.UnmarshalRequest(rd.VarBytes())
		if err != nil {
			return nil, false
		}
		reqs[i] = req
	}
	return reqs, true
}

// Digest chains the request digests of a batch: the batch digest that
// Zyzzyva, HotStuff and MinBFT ordering messages commit to.
func Digest(reqs []*replication.Request) [32]byte {
	var acc [32]byte
	for _, req := range reqs {
		acc = replication.ChainHash(acc, replication.RequestDigest(req))
	}
	return acc
}

// requestWireSize is the bytes MarshalInto spends on one request: the
// uint32 length prefix plus the body (client, reqID, var Op, var Auth).
func requestWireSize(r *replication.Request) int {
	return 4 + 4 + 8 + 4 + len(r.Op) + 4 + len(r.Auth)
}
