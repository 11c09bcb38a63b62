package secp256k1

import "math/bits"

// Generic 256-bit little-endian limb helpers shared by the field and
// scalar types. A [4]uint64 holds a 256-bit integer with limb 0 least
// significant. All routines are allocation-free; none are constant-time
// (this package models an FPGA signer in a research reproduction — see
// the package comment).

// add256 returns x + y and the carry out.
func add256(x, y *[4]uint64) (r [4]uint64, carry uint64) {
	var c uint64
	r[0], c = bits.Add64(x[0], y[0], 0)
	r[1], c = bits.Add64(x[1], y[1], c)
	r[2], c = bits.Add64(x[2], y[2], c)
	r[3], c = bits.Add64(x[3], y[3], c)
	return r, c
}

// sub256 returns x − y and the borrow out.
func sub256(x, y *[4]uint64) (r [4]uint64, borrow uint64) {
	var b uint64
	r[0], b = bits.Sub64(x[0], y[0], 0)
	r[1], b = bits.Sub64(x[1], y[1], b)
	r[2], b = bits.Sub64(x[2], y[2], b)
	r[3], b = bits.Sub64(x[3], y[3], b)
	return r, b
}

// ge256 reports x ≥ y.
func ge256(x, y *[4]uint64) bool {
	_, borrow := sub256(x, y)
	return borrow == 0
}

func isZero256(x *[4]uint64) bool {
	return x[0]|x[1]|x[2]|x[3] == 0
}

// mul256 returns the full 512-bit product x·y, schoolbook with unrolled
// rows over math/bits.Mul64.
func mul256(x, y *[4]uint64) (r [8]uint64) {
	var c, t uint64

	// Row 0: x[0]·y.
	c, r[0] = bits.Mul64(x[0], y[0])
	t, r[1] = mulAdd(x[0], y[1], c)
	c, r[2] = mulAdd(x[0], y[2], t)
	t, r[3] = mulAdd(x[0], y[3], c)
	r[4] = t

	// Row 1: x[1]·y shifted one limb.
	c, r[1] = mulAdd(x[1], y[0], r[1])
	t, r[2] = mulAdd2(x[1], y[1], r[2], c)
	c, r[3] = mulAdd2(x[1], y[2], r[3], t)
	t, r[4] = mulAdd2(x[1], y[3], r[4], c)
	r[5] = t

	// Row 2.
	c, r[2] = mulAdd(x[2], y[0], r[2])
	t, r[3] = mulAdd2(x[2], y[1], r[3], c)
	c, r[4] = mulAdd2(x[2], y[2], r[4], t)
	t, r[5] = mulAdd2(x[2], y[3], r[5], c)
	r[6] = t

	// Row 3.
	c, r[3] = mulAdd(x[3], y[0], r[3])
	t, r[4] = mulAdd2(x[3], y[1], r[4], c)
	c, r[5] = mulAdd2(x[3], y[2], r[5], t)
	t, r[6] = mulAdd2(x[3], y[3], r[6], c)
	r[7] = t
	return r
}

// mulAdd returns a·b + add as (hi, lo).
func mulAdd(a, b, add uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	lo, c := bits.Add64(lo, add, 0)
	hi += c
	return hi, lo
}

// mulAdd2 returns a·b + add1 + add2 as (hi, lo). The sum cannot overflow
// 128 bits: (2⁶⁴−1)² + 2(2⁶⁴−1) = 2¹²⁸ − 1.
func mulAdd2(a, b, add1, add2 uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	lo, c := bits.Add64(lo, add1, 0)
	hi += c
	lo, c = bits.Add64(lo, add2, 0)
	hi += c
	return hi, lo
}

// be32ToLimbs decodes a 32-byte big-endian integer.
func be32ToLimbs(b *[32]byte) [4]uint64 {
	var x [4]uint64
	for i := 0; i < 4; i++ {
		off := 24 - 8*i
		x[i] = uint64(b[off])<<56 | uint64(b[off+1])<<48 | uint64(b[off+2])<<40 | uint64(b[off+3])<<32 |
			uint64(b[off+4])<<24 | uint64(b[off+5])<<16 | uint64(b[off+6])<<8 | uint64(b[off+7])
	}
	return x
}

// limbsToBe32 encodes to 32 bytes big-endian.
func limbsToBe32(x *[4]uint64) (b [32]byte) {
	for i := 0; i < 4; i++ {
		off := 24 - 8*i
		v := x[i]
		b[off] = byte(v >> 56)
		b[off+1] = byte(v >> 48)
		b[off+2] = byte(v >> 40)
		b[off+3] = byte(v >> 32)
		b[off+4] = byte(v >> 24)
		b[off+5] = byte(v >> 16)
		b[off+6] = byte(v >> 8)
		b[off+7] = byte(v)
	}
	return b
}
