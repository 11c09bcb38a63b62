package secp256k1

import "math/bits"

// Scalar is an integer modulo the group order N, as 4 little-endian
// uint64 limbs, always fully reduced. The zero value is the scalar 0.
type Scalar struct {
	n [4]uint64
}

// scalarN is the group order N.
var scalarN = [4]uint64{0xBFD25E8CD0364141, 0xBAAEDCE6AF48A03B, 0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF}

// scalarNm1 is N − 1 (GenerateKey reduces into [1, N−1]).
var scalarNm1 = [4]uint64{0xBFD25E8CD0364140, 0xBAAEDCE6AF48A03B, 0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF}

// scalarHalfN is ⌊N/2⌋, for low-s signature normalization.
var scalarHalfN = [4]uint64{0xDFE92F46681B20A0, 0x5D576E7357A4501D, 0xFFFFFFFFFFFFFFFF, 0x7FFFFFFFFFFFFFFF}

// scalarDelta is 2²⁵⁶ − N (129 bits): 2²⁵⁶ ≡ delta (mod N).
var scalarDelta = [4]uint64{0x402DA1732FC9BEBF, 0x4551231950B75FC4, 0x1, 0}

// NewScalar decodes a 32-byte big-endian integer, reporting whether it
// was canonical (< N). Non-canonical input is reduced mod N anyway.
func NewScalar(b [32]byte) (Scalar, bool) {
	x := be32ToLimbs(&b)
	ok := !ge256(&x, &scalarN)
	if !ok {
		x, _ = sub256(&x, &scalarN)
	}
	return Scalar{x}, ok
}

// NewScalarReduced decodes a 32-byte big-endian integer mod N.
func NewScalarReduced(b [32]byte) Scalar {
	s, _ := NewScalar(b)
	return s
}

// Bytes returns the canonical 32-byte big-endian encoding.
func (s Scalar) Bytes() [32]byte { return limbsToBe32(&s.n) }

// IsZero reports whether s is the scalar 0.
func (s Scalar) IsZero() bool { return isZero256(&s.n) }

// Equal reports whether two scalars are the same value.
func (s Scalar) Equal(t Scalar) bool { return s.n == t.n }

// scAdd returns x + y mod N.
func scAdd(x, y Scalar) Scalar {
	s, cy := add256(&x.n, &y.n)
	if cy != 0 {
		// x + y − 2²⁵⁶ + delta = x + y − N < N; delta add cannot carry
		// because the wrapped value is < 2N − 2²⁵⁶ ≈ 2²⁵⁶ − 2¹³⁰.
		s, _ = add256(&s, &scalarDelta)
	} else if ge256(&s, &scalarN) {
		s, _ = sub256(&s, &scalarN)
	}
	return Scalar{s}
}

// scSub returns x − y mod N.
func scSub(x, y Scalar) Scalar {
	s, borrow := sub256(&x.n, &y.n)
	if borrow != 0 {
		s, _ = add256(&s, &scalarN)
	}
	return Scalar{s}
}

// scMul returns x·y mod N.
func scMul(x, y Scalar) Scalar {
	r := mul256(&x.n, &y.n)
	return Scalar{scReduce512(&r)}
}

// scReduce512 reduces a 512-bit value mod N by repeatedly folding the
// high 256 bits: v = hi·2²⁵⁶ + lo ≡ hi·delta + lo. delta is 129 bits, so
// each fold shrinks hi fast; three folds always reach hi = 0.
func scReduce512(r *[8]uint64) [4]uint64 {
	lo := [4]uint64{r[0], r[1], r[2], r[3]}
	hi := [4]uint64{r[4], r[5], r[6], r[7]}
	for !isZero256(&hi) {
		p := mul256(&hi, &scalarDelta)
		var cy uint64
		ph := [4]uint64{p[0], p[1], p[2], p[3]}
		lo, cy = add256(&ph, &lo)
		hi = [4]uint64{p[4], p[5], p[6], p[7]}
		hi[0], cy = bits.Add64(hi[0], cy, 0)
		hi[1], cy = bits.Add64(hi[1], cy, 0)
		hi[2], cy = bits.Add64(hi[2], cy, 0)
		hi[3] += cy
	}
	if ge256(&lo, &scalarN) {
		lo, _ = sub256(&lo, &scalarN)
	}
	return lo
}

// scInv returns s⁻¹ mod N (0 for 0). Variable time, also on Sign's
// secret nonce: see the package comment.
func scInv(s Scalar) Scalar {
	return Scalar{invMod(&s.n, &scalarNInfo)}
}

// scIsHigh reports s > N/2.
func scIsHigh(s Scalar) bool {
	return ge256(&s.n, &scalarHalfN) && s.n != scalarHalfN
}

// scNeg returns −s mod N.
func scNeg(s Scalar) Scalar {
	if s.IsZero() {
		return s
	}
	r, _ := sub256(&scalarN, &s.n)
	return Scalar{r}
}

// hashBytes32 maps a message digest to 32 bytes per SEC 1 §4.1.3: the
// leftmost 256 bits of the digest, right-aligned when shorter. This is
// the exact byte string the RFC 6979 nonce derivation consumes (it is
// not reduced mod N).
func hashBytes32(digest []byte) [32]byte {
	var b [32]byte
	if len(digest) >= 32 {
		copy(b[:], digest[:32])
	} else {
		copy(b[32-len(digest):], digest)
	}
	return b
}

// hashToScalar converts a message digest to a scalar per SEC 1 §4.1.3.
func hashToScalar(digest []byte) Scalar {
	b := hashBytes32(digest)
	return NewScalarReduced(b)
}

// montBatchInvN inverts every nonzero scalar in vals (at most chunkSigs
// of them) in place with Montgomery's simultaneous-inversion trick: one
// real inversion plus 3(n−1) multiplications. Zero entries stay zero.
func montBatchInvN(vals []Scalar) {
	var prods [chunkSigs]Scalar
	m := 0
	acc := Scalar{[4]uint64{1}}
	for _, v := range vals {
		if v.IsZero() {
			continue
		}
		acc = scMul(acc, v)
		prods[m] = acc
		m++
	}
	if m == 0 {
		return
	}
	inv := scInv(acc)
	for i := len(vals) - 1; i >= 0; i-- {
		if vals[i].IsZero() {
			continue
		}
		m--
		if m == 0 {
			vals[i] = inv
			return
		}
		vi := scMul(inv, prods[m-1])
		inv = scMul(inv, vals[i])
		vals[i] = vi
	}
}
