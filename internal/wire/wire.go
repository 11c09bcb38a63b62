// Package wire implements the binary encodings used on the wire: a
// compact append-style Writer and sticky-error Reader for protocol
// message codecs, and the aom packet header (§4.1 of the paper).
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrTruncated is reported when a Reader runs out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// ErrMalformed marks a field whose bytes decode to no valid value (e.g.
// a boolean that is neither 0 nor 1).
var ErrMalformed = errors.New("wire: malformed field")

// Writer appends fixed-width little-endian fields to a buffer. The zero
// value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// AppendTo returns a Writer that appends to buf, for an encoder that
// writes into its caller's buffer.
func AppendTo(buf []byte) *Writer { return &Writer{buf: buf} }

// Grow returns buf with room for n more bytes. When buf is too small it
// copies buf into one new buffer of exactly len(buf)+n, so an encoder
// that knows its size allocates once and leaves no spare capacity.
func Grow(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	grown := make([]byte, len(buf), len(buf)+n)
	copy(grown, buf)
	return grown
}

// Bytes returns the encoded buffer. The buffer is owned by the Writer
// until Reset is called.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the buffer, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes32 appends a fixed 32-byte value.
func (w *Writer) Bytes32(v [32]byte) { w.buf = append(w.buf, v[:]...) }

// VarBytes appends a length-prefixed (uint32) byte string.
func (w *Writer) VarBytes(v []byte) { w.buf = AppendVarBytes(w.buf, v) }

// AppendVarBytes is VarBytes for an encoder that appends to a plain
// slice: unlike a Writer's buffer, such a slice may live on the
// caller's stack.
func AppendVarBytes(buf, v []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(buf, uint32(len(v))), v...)
}

// VarAppend appends a length-prefixed byte string that fn appends to the
// buffer it is given, so a large value is encoded in place instead of
// being built elsewhere and copied in. The bytes are those VarBytes
// writes for the same value.
func (w *Writer) VarAppend(fn func(buf []byte) []byte) {
	off := len(w.buf)
	w.U32(0)
	w.buf = fn(w.buf)
	binary.LittleEndian.PutUint32(w.buf[off:], uint32(len(w.buf)-off-4))
}

// VarAppendIf is VarAppend for an fn that may decline: when fn reports
// false, the Writer is left as it was and VarAppendIf reports false.
func (w *Writer) VarAppendIf(fn func(buf []byte) ([]byte, bool)) bool {
	off := len(w.buf)
	w.U32(0)
	buf, ok := fn(w.buf)
	if !ok {
		w.buf = w.buf[:off]
		return false
	}
	w.buf = buf
	binary.LittleEndian.PutUint32(w.buf[off:], uint32(len(w.buf)-off-4))
	return true
}

// Raw appends bytes with no length prefix.
func (w *Writer) Raw(v []byte) { w.buf = append(w.buf, v...) }

// Reader consumes fixed-width little-endian fields from a buffer. Errors
// are sticky: after the first short read every accessor returns zero
// values and Err reports ErrTruncated.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding. The Reader does not copy buf: the
// byte strings it returns are views into it.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns nil if the buffer was fully consumed without error.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return errors.New("wire: trailing bytes")
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Prefix consumes len(s) bytes and reports whether they equal s. On a
// short buffer it reports false with the sticky error set.
func (r *Reader) Prefix(s string) bool {
	b := r.take(len(s))
	return b != nil && string(b) == s
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 consumes a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 consumes a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 consumes a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bool consumes a one-byte boolean. Only 0 and 1 are valid: any other
// value sets the sticky error, so every message has exactly one
// encoding (decode→encode is the identity on accepted inputs).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = ErrMalformed
		}
		return false
	}
}

// Bytes32 consumes a fixed 32-byte value.
func (r *Reader) Bytes32() (out [32]byte) {
	b := r.take(32)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// VarBytes consumes a length-prefixed byte string. The returned slice
// aliases the Reader's buffer and is capped at its own end, so an
// append to it copies instead of writing over the bytes that follow.
func (r *Reader) VarBytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > uint64(r.Remaining()) {
		r.err = ErrTruncated
		return nil
	}
	return r.take(int(n))
}

// Raw consumes all remaining bytes. Like every other read it yields
// nothing once the sticky error is set.
func (r *Reader) Raw() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off:len(r.buf):len(r.buf)]
	r.off = len(r.buf)
	return b
}
