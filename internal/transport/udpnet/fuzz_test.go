package udpnet

import (
	"bytes"
	"testing"
	"unsafe"
)

// FuzzFrame feeds arbitrary bytes to the receive side's frame walker as a
// datagram body. It must never panic, must yield exactly the messages an
// index-based reference loop yields — each one the body's own bytes at
// the expected place, capped at its own end so an append cannot reach its
// neighbour — and must take apart again whatever the send side packs: the
// same input, cut into messages at its own length bytes, is packed with
// putMessage and walked back.
func FuzzFrame(f *testing.F) {
	// Packed runs and malformed tails are in testdata/fuzz/FuzzFrame.
	f.Add([]byte{})
	f.Add(append([]byte{0xdc, 0x05}, make([]byte, 1500)...)) // one MTU-sized message
	f.Fuzz(func(t *testing.T, body []byte) {
		// Reference: offsets only.
		var want [][2]int
		off := 0
		for off+2 <= len(body) {
			end := off + 2 + (int(body[off]) | int(body[off+1])<<8)
			if end > len(body) {
				break
			}
			want = append(want, [2]int{off + 2, end})
			off = end
		}
		wellFormed := off == len(body)

		rest, n := body, 0
		for len(rest) > 0 {
			msg, next, ok := nextMessage(rest)
			if !ok {
				break
			}
			if n >= len(want) {
				t.Fatalf("walker yielded message %d, reference has %d", n, len(want))
			}
			lo, hi := want[n][0], want[n][1]
			if len(msg) != hi-lo || cap(msg) != len(msg) {
				t.Fatalf("message %d: len %d cap %d, want %d and no spare capacity", n, len(msg), cap(msg), hi-lo)
			}
			if len(msg) > 0 && unsafe.SliceData(msg) != &body[lo] {
				t.Fatalf("message %d is not body[%d:%d]", n, lo, hi)
			}
			rest, n = next, n+1
		}
		if n != len(want) || (len(rest) == 0) != wellFormed {
			t.Fatalf("walker yielded %d messages with %d bytes left, reference %d (well-formed: %v)", n, len(rest), len(want), wellFormed)
		}

		// Round trip: pack the reference's messages the way Send does.
		frame := make([]byte, 0, len(body))
		for _, w := range want {
			at := len(frame)
			frame = frame[:at+prefixLen+w[1]-w[0]]
			putMessage(frame[at:], body[w[0]:w[1]])
		}
		for i, w := range want {
			msg, next, ok := nextMessage(frame)
			if !ok || !bytes.Equal(msg, body[w[0]:w[1]]) {
				t.Fatalf("packed message %d did not come back (ok=%v)", i, ok)
			}
			frame = next
		}
		if len(frame) != 0 {
			t.Fatalf("%d bytes left after the packed messages", len(frame))
		}
	})
}
