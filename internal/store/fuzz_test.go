package store

import (
	"bytes"
	"io"
	"testing"
)

// FuzzWALRecord hammers the WAL frame codec: arbitrary bytes must
// never panic or yield a record that re-encodes differently, and a
// valid frame must round-trip exactly.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, Record{Index: 1, Slot: 7, Kind: RecordOp, Payload: []byte("hello")}))
	f.Add(appendFrame(nil, Record{Index: 2, Slot: 0, Kind: RecordCheckpoint, Payload: nil}))
	f.Add(appendFrame(nil, Record{Index: 4, Slot: 30, Kind: RecordDelta, Base: 20, Payload: []byte("delta")}))
	long := appendFrame(nil, Record{Index: 3, Slot: 9, Kind: RecordOp, Payload: bytes.Repeat([]byte{0x5a}, 300)})
	f.Add(long)
	f.Add(long[:len(long)-1]) // torn tail
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := readFrame(data)
		switch err {
		case nil:
			if n <= 0 || n > len(data) {
				t.Fatalf("consumed %d of %d", n, len(data))
			}
			if rec.Kind != RecordOp && rec.Kind != RecordCheckpoint && rec.Kind != RecordDelta {
				t.Fatalf("invalid kind %d accepted", rec.Kind)
			}
			// Canonical: re-encoding the decoded record reproduces
			// the consumed bytes exactly.
			if got := appendFrame(nil, rec); !bytes.Equal(got, data[:n]) {
				t.Fatalf("re-encode mismatch:\n got %x\nwant %x", got, data[:n])
			}
		case io.EOF:
			if len(data) != 0 {
				t.Fatalf("EOF with %d bytes left", len(data))
			}
		case errTorn:
			// Fine: damaged input is the codec's job to reject.
		default:
			t.Fatalf("unexpected error %v", err)
		}
	})
}

// FuzzWALRoundTrip checks multi-record streams: every prefix of a
// valid stream recovers exactly the records whose frames it wholly
// contains.
func FuzzWALRoundTrip(f *testing.F) {
	f.Add([]byte("ab"), []byte("cdef"), 5)
	f.Add([]byte{}, []byte{0xff}, 0)
	f.Fuzz(func(t *testing.T, p1, p2 []byte, cut int) {
		recs := []Record{
			{Index: 1, Slot: 10, Kind: RecordOp, Payload: p1},
			{Index: 2, Slot: 20, Kind: RecordCheckpoint, Payload: p2},
		}
		var stream []byte
		for _, r := range recs {
			stream = appendFrame(stream, r)
		}
		if cut < 0 {
			cut = -cut
		}
		cut %= len(stream) + 1
		data := stream[:cut]
		var got []Record
		for {
			r, n, err := readFrame(data)
			if err != nil {
				break
			}
			got = append(got, r)
			data = data[n:]
		}
		for i, r := range got {
			if r.Index != recs[i].Index || r.Kind != recs[i].Kind || !bytes.Equal(r.Payload, recs[i].Payload) {
				t.Fatalf("record %d mismatch", i)
			}
		}
	})
}
