// Package secp256k1 implements the secp256k1 elliptic curve and ECDSA
// signatures from scratch on fixed-width 4×uint64 limb arithmetic.
//
// NeoBFT's aom-pk variant signs every aom message (or a hash-chained
// subset of them) with secp256k1 on an FPGA co-processor. This package is
// the software equivalent: it provides the same curve, the same
// precomputed-generator-table optimization the FPGA uses to accelerate
// scalar point multiplication, and deterministic (RFC 6979 style) nonces
// so signing requires no random-number generator — mirroring the
// hardware's avoidance of on-chip randomness.
//
// The arithmetic is a Solinas-style specialization: the field prime
// p = 2²⁵⁶ − 2³² − 977 makes 2²⁵⁶ ≡ 2³² + 977 (mod p), so a 512-bit
// product folds to 256 bits with two small multiplies. Receivers verify
// the sequencer's signatures with a TableVerifier: u1·G + u2·Q is a sum
// of byte-window table points, added as a tree in affine coordinates with
// one field inversion per tree level shared across the batch. Signing
// and verifying allocate nothing. None of it is constant-time — this
// models hardware in a research reproduction, it does not protect
// long-lived secrets on shared machines (DESIGN.md §15). math/big
// survives only in the test reference implementation.
package secp256k1

import "sync"

// Point is an affine point on the curve y² = x³ + 7 over GF(p). The zero
// value is the point at infinity. (No point on secp256k1 has x = 0 or
// y = 0, so (0,0) is unambiguous.)
type Point struct {
	x, y fieldElem
}

// generator returns the base point G.
func generator() Point {
	return Point{
		x: fieldElem{0x59F2815B16F81798, 0x029BFCDB2DCE28D9, 0x55A06295CE870B07, 0x79BE667EF9DCBBAC},
		y: fieldElem{0x9C47D08FFB10D4B8, 0xFD17B448A6855419, 0x5DA4FBFC0E1108A8, 0x483ADA7726A3C465},
	}
}

// curveB is the curve constant 7.
var curveB = fieldElem{7}

// Infinity reports whether p is the point at infinity.
func (p Point) Infinity() bool { return p.x.isZero() && p.y.isZero() }

// OnCurve reports whether p satisfies the curve equation (the point at
// infinity is considered on the curve).
func (p Point) OnCurve() bool {
	if p.Infinity() {
		return true
	}
	var lhs, rhs fieldElem
	lhs.sqr(&p.y)
	rhs.sqr(&p.x)
	rhs.mul(&rhs, &p.x)
	rhs.add(&rhs, &curveB)
	return lhs.equal(&rhs)
}

// Equal reports whether two points are the same affine point.
func (p Point) Equal(q Point) bool {
	return p.x.equal(&q.x) && p.y.equal(&q.y)
}

// XBytes returns the 32-byte big-endian affine x coordinate (zero for
// the point at infinity).
func (p Point) XBytes() [32]byte { return p.x.bytes() }

// jacPoint is a point in Jacobian projective coordinates:
// x = X/Z², y = Y/Z³. Z = 0 marks the point at infinity.
type jacPoint struct {
	x, y, z fieldElem
}

func (j *jacPoint) infinity() bool { return j.z.isZero() }

func (j *jacPoint) setAffine(p Point) {
	if p.Infinity() {
		*j = jacPoint{}
		return
	}
	j.x = p.x
	j.y = p.y
	j.z = fieldElem{1}
}

func (j *jacPoint) toAffine() Point {
	if j.infinity() {
		return Point{}
	}
	var zinv, zinv2, zinv3 fieldElem
	zinv.inv(&j.z)
	zinv2.sqr(&zinv)
	zinv3.mul(&zinv2, &zinv)
	var p Point
	p.x.mul(&j.x, &zinv2)
	p.y.mul(&j.y, &zinv3)
	return p
}

// double sets j = 2a using the a=0 Jacobian doubling formulas (M = 3X²).
// j may alias a.
func (j *jacPoint) double(a *jacPoint) {
	if a.infinity() || a.y.isZero() {
		*j = jacPoint{}
		return
	}
	// S = 4XY²; M = 3X²
	var y2, s, m, t fieldElem
	y2.sqr(&a.y)
	s.mul(&a.x, &y2)
	s.add(&s, &s)
	s.add(&s, &s)
	m.sqr(&a.x)
	t.add(&m, &m)
	m.add(&t, &m)
	// X' = M² − 2S
	var x fieldElem
	x.sqr(&m)
	x.sub(&x, &s)
	x.sub(&x, &s)
	// Y' = M(S − X') − 8Y⁴
	var y4, y fieldElem
	y4.sqr(&y2)
	y4.add(&y4, &y4)
	y4.add(&y4, &y4)
	y4.add(&y4, &y4)
	y.sub(&s, &x)
	y.mul(&y, &m)
	y.sub(&y, &y4)
	// Z' = 2YZ
	var z fieldElem
	z.mul(&a.y, &a.z)
	z.add(&z, &z)
	j.x, j.y, j.z = x, y, z
}

// addMixed sets j = a + b where b is affine and not infinity. j may
// alias a.
func (j *jacPoint) addMixed(a *jacPoint, b *Point) {
	if a.infinity() {
		j.x = b.x
		j.y = b.y
		j.z = fieldElem{1}
		return
	}
	// U2 = X2·Z1², S2 = Y2·Z1³ (b has Z=1 so U1 = X1, S1 = Y1).
	var z1z1, u2, s2, h, r fieldElem
	z1z1.sqr(&a.z)
	u2.mul(&b.x, &z1z1)
	s2.mul(&b.y, &z1z1)
	s2.mul(&s2, &a.z)
	h.sub(&u2, &a.x)
	r.sub(&s2, &a.y)
	if h.isZero() {
		if r.isZero() {
			j.double(a)
			return
		}
		*j = jacPoint{}
		return
	}
	var h2, h3, v fieldElem
	h2.sqr(&h)
	h3.mul(&h2, &h)
	v.mul(&a.x, &h2)
	// X3 = r² − h³ − 2v
	var x fieldElem
	x.sqr(&r)
	x.sub(&x, &h3)
	x.sub(&x, &v)
	x.sub(&x, &v)
	// Y3 = r(v − X3) − Y1·h³
	var y, t fieldElem
	y.sub(&v, &x)
	y.mul(&y, &r)
	t.mul(&a.y, &h3)
	y.sub(&y, &t)
	// Z3 = Z1·h
	var z fieldElem
	z.mul(&a.z, &h)
	j.x, j.y, j.z = x, y, z
}

// add sets j = a + b for general Jacobian points. j may alias a or b.
func (j *jacPoint) add(a, b *jacPoint) {
	if a.infinity() {
		*j = *b
		return
	}
	if b.infinity() {
		*j = *a
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r fieldElem
	z1z1.sqr(&a.z)
	z2z2.sqr(&b.z)
	u1.mul(&a.x, &z2z2)
	u2.mul(&b.x, &z1z1)
	s1.mul(&a.y, &z2z2)
	s1.mul(&s1, &b.z)
	s2.mul(&b.y, &z1z1)
	s2.mul(&s2, &a.z)
	h.sub(&u2, &u1)
	r.sub(&s2, &s1)
	if h.isZero() {
		if r.isZero() {
			j.double(a)
			return
		}
		*j = jacPoint{}
		return
	}
	var h2, h3, v fieldElem
	h2.sqr(&h)
	h3.mul(&h2, &h)
	v.mul(&u1, &h2)
	var x fieldElem
	x.sqr(&r)
	x.sub(&x, &h3)
	x.sub(&x, &v)
	x.sub(&x, &v)
	var y, t fieldElem
	y.sub(&v, &x)
	y.mul(&y, &r)
	t.mul(&s1, &h3)
	y.sub(&y, &t)
	var z fieldElem
	z.mul(&a.z, &b.z)
	z.mul(&z, &h)
	j.x, j.y, j.z = x, y, z
}

// Add returns p + q.
func Add(p, q Point) Point {
	if q.Infinity() {
		return p
	}
	var jp, out jacPoint
	jp.setAffine(p)
	out.addMixed(&jp, &q)
	return out.toAffine()
}

// Double returns 2p.
func Double(p Point) Point {
	var jp jacPoint
	jp.setAffine(p)
	jp.double(&jp)
	return jp.toAffine()
}

// Neg returns −p.
func Neg(p Point) Point {
	if p.Infinity() {
		return p
	}
	var y fieldElem
	y.neg(&p.y)
	return Point{x: p.x, y: y}
}

// ScalarMult returns k·p using plain double-and-add.
func ScalarMult(p Point, k Scalar) Point {
	var acc jacPoint
	scalarMultJac(&acc, &p, k)
	return acc.toAffine()
}

// scalarMultJac sets acc = k·p (Jacobian) by double-and-add, MSB first.
func scalarMultJac(acc *jacPoint, p *Point, k Scalar) {
	*acc = jacPoint{}
	if p.Infinity() || k.IsZero() {
		return
	}
	kb := k.Bytes()
	started := false
	for _, b := range kb {
		for bit := 7; bit >= 0; bit-- {
			if started {
				acc.double(acc)
			}
			if b>>uint(bit)&1 == 1 {
				acc.addMixed(acc, p)
				started = true
			}
		}
	}
}

// pointTable holds windowed multiples of a fixed point:
// tab[w][v] = (v+1) · 2^(8w) · P for window w in [0,32) and digit v in
// [0,255]. This mirrors the aom-pk FPGA's pre-compute module, which
// continuously fills a block-RAM table of generator multiples so the
// signer can compute k·G with table lookups and additions only — no
// doublings at all. Receivers build the same table for the sequencer's
// *public* key so verification is cheap too (~512 KiB per table).
type pointTable [32][255]Point

func buildPointTable(p Point) *pointTable {
	t := new(pointTable)
	var jacs [256]jacPoint // window entries plus the next window's base
	base := p              // 2^(8w)·P
	for w := 0; w < 32; w++ {
		var acc jacPoint
		acc.setAffine(base)
		jacs[0] = acc
		for v := 1; v < 256; v++ {
			acc.addMixed(&acc, &base)
			jacs[v] = acc
		}
		// One shared inversion converts the whole window to affine
		// (Montgomery's trick), instead of 255 per-entry inversions.
		aff := t[w][:]
		batchToAffine(jacs[:255], aff)
		var next [1]Point
		batchToAffine(jacs[255:], next[:])
		base = next[0] // 256·2^(8w)·P = 2^(8(w+1))·P
	}
	return t
}

// batchToAffine converts src Jacobian points to affine in dst using one
// modular inversion for the whole batch. Entries at infinity become the
// zero Point.
func batchToAffine(src []jacPoint, dst []Point) {
	// prefix[i] = product of the first i+1 nonzero z's.
	prefix := make([]fieldElem, len(src))
	acc := fieldElem{1}
	any := false
	for i := range src {
		if !src[i].infinity() {
			acc.mul(&acc, &src[i].z)
			any = true
		}
		prefix[i] = acc
	}
	if !any {
		for i := range dst {
			dst[i] = Point{}
		}
		return
	}
	var inv fieldElem
	inv.inv(&acc)
	for i := len(src) - 1; i >= 0; i-- {
		if src[i].infinity() {
			dst[i] = Point{}
			continue
		}
		var zinv fieldElem
		if i == 0 {
			zinv = inv
		} else {
			zinv.mul(&inv, &prefix[i-1])
		}
		inv.mul(&inv, &src[i].z)
		var zinv2, zinv3 fieldElem
		zinv2.sqr(&zinv)
		zinv3.mul(&zinv2, &zinv)
		dst[i].x.mul(&src[i].x, &zinv2)
		dst[i].y.mul(&src[i].y, &zinv3)
	}
}

// mulAcc folds k·(table base) into acc: one mixed addition per nonzero
// byte of k, no doublings. Interleaving calls for two tables implements
// Shamir's trick for u1·G + u2·Q in a single pass.
func (t *pointTable) mulAcc(acc *jacPoint, k Scalar) {
	kb := k.Bytes() // big-endian
	for i, b := range kb {
		if b == 0 {
			continue
		}
		w := 31 - i // byte significance → window index
		acc.addMixed(acc, &t[w][int(b)-1])
	}
}

// gather appends the table points that sum to k·(table base): one per
// nonzero byte of k.
func (t *pointTable) gather(dst []Point, k Scalar) []Point {
	kb := k.Bytes() // big-endian
	for i, b := range kb {
		if b != 0 {
			dst = append(dst, t[31-i][int(b)-1])
		}
	}
	return dst
}

var (
	genTableOnce sync.Once
	genTable     *pointTable
)

func generatorTable() *pointTable {
	genTableOnce.Do(func() { genTable = buildPointTable(generator()) })
	return genTable
}

// BaseMult returns k·G using the windowed precomputed generator table.
func BaseMult(k Scalar) Point {
	var acc jacPoint
	generatorTable().mulAcc(&acc, k)
	return acc.toAffine()
}

// BaseMultSlow returns k·G without the precomputed table; it exists to
// benchmark the FPGA precompute-table design against the naive approach.
func BaseMultSlow(k Scalar) Point {
	return ScalarMult(generator(), k)
}
