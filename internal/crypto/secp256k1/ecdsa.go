package secp256k1

import (
	"crypto/sha256"
	"errors"
)

// PrivateKey is a secp256k1 signing key.
type PrivateKey struct {
	D   Scalar
	Pub PublicKey
}

// PublicKey is a point on the curve.
type PublicKey struct {
	Point
}

// Signature is an ECDSA signature with s normalized to the low half of
// the group order. Both components are fixed-width scalars — no heap
// allocation per signature.
type Signature struct {
	R, S Scalar
}

var (
	// ErrInvalidKey is returned for out-of-range or zero private scalars.
	ErrInvalidKey = errors.New("secp256k1: invalid private key")
	// ErrInvalidSignature is returned when decoding a malformed signature.
	ErrInvalidSignature = errors.New("secp256k1: invalid signature encoding")
	// ErrInvalidPoint is returned when decoding a point not on the curve.
	ErrInvalidPoint = errors.New("secp256k1: point not on curve")
)

// GenerateKey derives a private key deterministically from seed material.
// The seed is hashed (with a domain separator) and reduced into [1, N−1];
// the sequencer switch and the configuration service use this to derive
// per-epoch keys from installed secrets. The derivation is bit-identical
// to the original math/big implementation.
func GenerateKey(seed []byte) (*PrivateKey, error) {
	h := sha256.New()
	h.Write([]byte("neobft/secp256k1/keygen/v1"))
	h.Write(seed)
	hh := sha256.Sum256(append(h.Sum(nil), 0))
	// d = hh mod (N−1) + 1 ∈ [1, N−1]: hh < 2²⁵⁶ < 2(N−1), so one
	// conditional subtract reduces it.
	d := be32ToLimbs(&hh)
	if ge256(&d, &scalarNm1) {
		d, _ = sub256(&d, &scalarNm1)
	}
	one := [4]uint64{1}
	d, _ = add256(&d, &one)
	return NewPrivateKey(Scalar{d})
}

// NewPrivateKey wraps an explicit scalar as a private key.
func NewPrivateKey(d Scalar) (*PrivateKey, error) {
	if d.IsZero() {
		return nil, ErrInvalidKey
	}
	return &PrivateKey{D: d, Pub: PublicKey{BaseMult(d)}}, nil
}

// nonceRFC6979 derives a deterministic nonce k from the key and digest
// following the HMAC-DRBG construction of RFC 6979. extra distinguishes
// retry attempts.
func nonceRFC6979(d Scalar, digest []byte, extra byte) Scalar {
	var k, v [32]byte
	for i := range v {
		v[i] = 0x01
	}
	// msg is V ‖ sep ‖ int2octets(d) ‖ bits2octets(h) ‖ extra.
	var msg [98]byte
	x := d.Bytes()
	h1 := hashBytes32(digest)
	copy(msg[33:], x[:])
	copy(msg[65:], h1[:])
	msg[97] = extra

	// update sets K = HMAC_K(V ‖ sep ‖ msg[33:n]), then V = HMAC_K(V).
	update := func(sep byte, n int) {
		copy(msg[:32], v[:])
		msg[32] = sep
		k = hmacSHA256(&k, msg[:n])
		v = hmacSHA256(&k, v[:])
	}
	update(0x00, len(msg))
	update(0x01, len(msg))

	for i := 0; i < 1000; i++ {
		v = hmacSHA256(&k, v[:])
		if t, ok := NewScalar(v); ok && !t.IsZero() {
			return t
		}
		update(0x00, 33)
	}
	panic("secp256k1: nonce generation failed to converge")
}

// hmacSHA256 returns HMAC-SHA256(key, msg) (RFC 2104) in stack buffers:
// the 32-byte key is shorter than SHA-256's 64-byte block, so it is
// zero-padded, not hashed. msg is at most 98 bytes.
func hmacSHA256(key *[32]byte, msg []byte) [32]byte {
	var in [64 + 98]byte
	var out [64 + 32]byte
	for i := 0; i < 64; i++ {
		var b byte
		if i < 32 {
			b = key[i]
		}
		in[i] = b ^ 0x36
		out[i] = b ^ 0x5c
	}
	n := copy(in[64:], msg)
	inner := sha256.Sum256(in[:64+n])
	copy(out[64:], inner[:])
	return sha256.Sum256(out[:])
}

// fieldToScalar reduces a canonical field element mod N (x < p < 2N, so
// one conditional subtract). This is the r = x(R) mod N step of ECDSA.
func fieldToScalar(x *fieldElem) Scalar {
	v := [4]uint64(*x)
	if ge256(&v, &scalarN) {
		v, _ = sub256(&v, &scalarN)
	}
	return Scalar{v}
}

// Sign produces an ECDSA signature over a 32-byte message digest. The
// nonce is deterministic, so identical (key, digest) pairs yield identical
// signatures — matching the FPGA signer, which has no entropy source.
func (priv *PrivateKey) Sign(digest []byte) Signature {
	z := hashToScalar(digest)
	for extra := byte(0); ; extra++ {
		k := nonceRFC6979(priv.D, digest, extra)
		p := BaseMult(k)
		r := fieldToScalar(&p.x)
		if r.IsZero() {
			continue
		}
		s := scMul(scAdd(z, scMul(r, priv.D)), scInv(k))
		if s.IsZero() {
			continue
		}
		if scIsHigh(s) { // low-s normalization
			s = scNeg(s)
		}
		return Signature{R: r, S: s}
	}
}

// sigRangeOK rejects out-of-range signature components (zero scalars;
// the Scalar type is canonical by construction).
func sigRangeOK(sig Signature) bool {
	return !sig.R.IsZero() && !sig.S.IsZero()
}

// jacXMatchesR checks x(sum) ≡ r (mod N) without converting the Jacobian
// sum to affine: for each candidate x' ∈ {r, r+N} below p, test
// x'·Z² ≡ X (mod p). This avoids a modular inversion per verification.
func jacXMatchesR(sum *jacPoint, r Scalar) bool {
	var z2 fieldElem
	z2.sqr(&sum.z)
	cand := r.n // r < N < p: always a valid field element
	for {
		ce := fieldElem(cand)
		var t fieldElem
		t.mul(&ce, &z2)
		if t.equal(&sum.x) {
			return true
		}
		var cy uint64
		cand, cy = add256(&cand, &scalarN)
		if cy != 0 || ge256(&cand, &fieldP) {
			return false
		}
	}
}

// Verify checks an ECDSA signature over a 32-byte message digest.
func (pub PublicKey) Verify(digest []byte, sig Signature) bool {
	if pub.Infinity() || !pub.OnCurve() {
		return false
	}
	if !sigRangeOK(sig) {
		return false
	}
	z := hashToScalar(digest)
	w := scInv(sig.S)
	u1 := scMul(z, w)
	u2 := scMul(sig.R, w)

	var acc, p2 jacPoint
	generatorTable().mulAcc(&acc, u1)
	scalarMultJac(&p2, &pub.Point, u2)
	acc.add(&acc, &p2)
	if acc.infinity() {
		return false
	}
	return jacXMatchesR(&acc, sig.R)
}
