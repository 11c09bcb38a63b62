package wire

import (
	"bytes"
	"testing"
)

// seedPacket encodes a representative aom packet for the fuzz corpus.
func seedPacket(kind AuthKind, signed bool, auth, payload []byte) []byte {
	w := NewWriter(128)
	EncodeAOM(w, &AOMHeader{
		Kind:         kind,
		Signed:       signed,
		Subgroup:     1,
		NumSubgroups: 3,
		Group:        1,
		Epoch:        2,
		Seq:          42,
		Digest:       Digest(payload),
		Auth:         auth,
	}, payload)
	return w.Bytes()
}

// withTail returns data in a buffer followed by more bytes, as a message
// shares its datagram with the next, and the whole buffer.
func withTail(data []byte) (msg, buf []byte) {
	buf = append(bytes.Clone(data), "tail"...)
	return buf[:len(data)], buf
}

// grow appends a byte to each field, as a consumer that forgot the
// fields are views would.
func grow(fields ...[]byte) (n int) {
	for _, f := range fields {
		n += len(append(f, 0xFF))
	}
	return n
}

// FuzzDecodeAOM checks that packet decoding never panics on arbitrary
// bytes, that every successfully decoded packet re-encodes to the exact
// input (decode is the inverse of encode on its image), and that an
// append to a decoded field, a view into the packet, leaves the packet
// and the bytes after it unchanged.
func FuzzDecodeAOM(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xB1, 0xA0})
	f.Add(seedPacket(AuthNone, false, nil, []byte("req")))
	f.Add(seedPacket(AuthHMAC, false, make([]byte, 16), bytes.Repeat([]byte("x"), 64)))
	f.Add(seedPacket(AuthPK, true, make([]byte, 64), []byte("op")))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, buf := withTail(data)
		h, payload, err := DecodeAOM(msg)
		if err != nil {
			return
		}
		before := bytes.Clone(buf)
		grow(h.Auth, payload)
		if !bytes.Equal(buf, before) {
			t.Fatalf("an append to a decoded field changed the buffer:\n was %x\n now %x", before, buf)
		}
		// These must not panic regardless of field values.
		_ = h.AuthInput()
		_ = h.PacketHash()
		w := NewWriter(len(data))
		EncodeAOM(w, h, payload)
		if !bytes.Equal(w.Bytes(), data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, w.Bytes())
		}
	})
}

// FuzzReader drives the primitive decoders over arbitrary input: no
// sequence of reads may panic or read out of bounds, and a sticky error
// must keep all subsequent reads at zero values.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xff}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		r.U8()
		r.U16()
		r.U32()
		r.U64()
		r.Bool()
		r.Bytes32()
		b := r.VarBytes()
		if r.Err() != nil && len(b) != 0 {
			t.Fatalf("VarBytes returned %d bytes after error %v", len(b), r.Err())
		}
		rest := r.Raw()
		if r.Err() != nil && len(rest) != 0 {
			t.Fatalf("Raw returned %d bytes after error %v", len(rest), r.Err())
		}
	})
}
