package replication

import (
	"bytes"
	"testing"

	"neobft/internal/transport"
)

// FuzzUnmarshal exercises the wire.Reader-based decoders with arbitrary
// bytes: decoders must never panic, any value that decodes must
// round-trip exactly through Marshal (after stripping the envelope
// kind), and an append to a decoded field, a view into the input, must
// leave the input and the bytes after it unchanged.
func FuzzUnmarshal(f *testing.F) {
	req := &Request{Client: 10007, ReqID: 42, Op: []byte("get k"), Auth: []byte("mac-vector")}
	rep := &Reply{View: 3, Replica: 2, Slot: 99, ReqID: 42, Result: []byte("v"),
		Speculative: true, Auth: []byte("mac")}
	rep.LogHash[0] = 0xAA
	f.Add(req.Marshal()[1:])
	f.Add(rep.Marshal()[1:])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append(bytes.Clone(data), "tail"...)
		msg, before := buf[:len(data)], bytes.Clone(buf)
		if r, err := UnmarshalRequest(msg); err == nil {
			if got := r.Marshal()[1:]; !bytes.Equal(got, data) {
				t.Fatalf("request did not round-trip:\n in  %x\n out %x", data, got)
			}
			// SignedBody and digest must be computable on any decoded value.
			_ = r.SignedBody()
			_ = RequestDigest(r)
			grow(r.Op, r.Auth)
		}
		if r, err := UnmarshalReply(msg); err == nil {
			if got := r.Marshal()[1:]; !bytes.Equal(got, data) {
				t.Fatalf("reply did not round-trip:\n in  %x\n out %x", data, got)
			}
			_ = r.SignedBody()
			grow(r.Result, r.Auth)
		}
		if !bytes.Equal(buf, before) {
			t.Fatalf("an append to a decoded field changed the input:\n was %x\n now %x", before, buf)
		}
	})
}

// grow appends a byte to each field, as a consumer that forgot the
// fields are views would.
func grow(fields ...[]byte) (n int) {
	for _, f := range fields {
		n += len(append(f, 0xFF))
	}
	return n
}

// FuzzRoundTrip drives the encoders from structured corpus values and
// checks decode(encode(v)) == v for both message types.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint64(7), []byte("op"), []byte("auth"))
	f.Add(uint32(0), uint64(0), []byte{}, []byte{})
	f.Add(uint32(1<<31), ^uint64(0), bytes.Repeat([]byte{0xAB}, 300), []byte{0})

	f.Fuzz(func(t *testing.T, client uint32, id uint64, op, mac []byte) {
		req := &Request{Client: transport.NodeID(client), ReqID: id, Op: op, Auth: mac}
		got, err := UnmarshalRequest(req.Marshal()[1:])
		if err != nil {
			t.Fatalf("request did not decode: %v", err)
		}
		if got.Client != req.Client || got.ReqID != req.ReqID ||
			!bytes.Equal(got.Op, req.Op) || !bytes.Equal(got.Auth, req.Auth) {
			t.Fatalf("request round-trip mismatch: %+v vs %+v", got, req)
		}
		rep := &Reply{View: id, Replica: client, Slot: id ^ 0x5555, ReqID: id, Result: op, Auth: mac}
		copy(rep.LogHash[:], mac)
		gotRep, err := UnmarshalReply(rep.Marshal()[1:])
		if err != nil {
			t.Fatalf("reply did not decode: %v", err)
		}
		if gotRep.View != rep.View || gotRep.Replica != rep.Replica ||
			gotRep.LogHash != rep.LogHash || !bytes.Equal(gotRep.Result, rep.Result) {
			t.Fatalf("reply round-trip mismatch: %+v vs %+v", gotRep, rep)
		}
	})
}
