package secp256k1

import "math/bits"

// fieldElem is an integer modulo the field prime
// p = 2²⁵⁶ − 2³² − 977, as 4 little-endian uint64 limbs, always kept
// fully reduced (canonical), so equality is plain limb comparison.
type fieldElem [4]uint64

// fieldP is the field prime p.
var fieldP = [4]uint64{0xFFFFFFFEFFFFFC2F, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF}

// fieldC is 2²⁵⁶ − p = 2³² + 977, the Solinas fold constant: 2²⁵⁶ ≡ c (mod p).
const fieldC uint64 = 0x1000003D1

// setBytes sets z to the big-endian value of b and reports whether it is
// canonical (< p). Non-canonical input leaves z reduced anyway.
func (z *fieldElem) setBytes(b *[32]byte) bool {
	x := be32ToLimbs(b)
	ok := !ge256(&x, &fieldP)
	if !ok {
		x, _ = sub256(&x, &fieldP)
	}
	*z = x
	return ok
}

func (z *fieldElem) bytes() [32]byte {
	x := [4]uint64(*z)
	return limbsToBe32(&x)
}

func (z *fieldElem) isZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

func (z *fieldElem) equal(x *fieldElem) bool {
	return z[0] == x[0] && z[1] == x[1] && z[2] == x[2] && z[3] == x[3]
}

func (z *fieldElem) isOdd() bool { return z[0]&1 == 1 }

// add sets z = x + y mod p.
func (z *fieldElem) add(x, y *fieldElem) {
	s0, c := bits.Add64(x[0], y[0], 0)
	s1, c := bits.Add64(x[1], y[1], c)
	s2, c := bits.Add64(x[2], y[2], c)
	s3, c := bits.Add64(x[3], y[3], c)
	if c != 0 {
		// x + y − 2²⁵⁶ + c = x + y − p, already < p since x + y < 2p.
		s0, c = bits.Add64(s0, fieldC, 0)
		s1, c = bits.Add64(s1, 0, c)
		s2, c = bits.Add64(s2, 0, c)
		s3, _ = bits.Add64(s3, 0, c)
	} else {
		s := [4]uint64{s0, s1, s2, s3}
		if ge256(&s, &fieldP) {
			s, _ = sub256(&s, &fieldP)
		}
		s0, s1, s2, s3 = s[0], s[1], s[2], s[3]
	}
	z[0], z[1], z[2], z[3] = s0, s1, s2, s3
}

// sub sets z = x − y mod p.
func (z *fieldElem) sub(x, y *fieldElem) {
	s0, b := bits.Sub64(x[0], y[0], 0)
	s1, b := bits.Sub64(x[1], y[1], b)
	s2, b := bits.Sub64(x[2], y[2], b)
	s3, b := bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		s0, c = bits.Add64(s0, fieldP[0], 0)
		s1, c = bits.Add64(s1, fieldP[1], c)
		s2, c = bits.Add64(s2, fieldP[2], c)
		s3, _ = bits.Add64(s3, fieldP[3], c)
	}
	z[0], z[1], z[2], z[3] = s0, s1, s2, s3
}

// neg sets z = −x mod p.
func (z *fieldElem) neg(x *fieldElem) {
	if x.isZero() {
		*z = fieldElem{}
		return
	}
	s, _ := sub256(&fieldP, (*[4]uint64)(x))
	*z = fieldElem(s)
}

// mul sets z = x·y mod p. The 512-bit schoolbook product and the Solinas
// fold are fused in one function so every intermediate stays in registers.
func (z *fieldElem) mul(x, y *fieldElem) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]

	var r0, r1, r2, r3, r4, r5, r6, r7 uint64
	var c, t uint64

	// Row 0: x0·y.
	c, r0 = bits.Mul64(x0, y0)
	t, r1 = mulAdd(x0, y1, c)
	c, r2 = mulAdd(x0, y2, t)
	t, r3 = mulAdd(x0, y3, c)
	r4 = t
	// Row 1.
	c, r1 = mulAdd(x1, y0, r1)
	t, r2 = mulAdd2(x1, y1, r2, c)
	c, r3 = mulAdd2(x1, y2, r3, t)
	t, r4 = mulAdd2(x1, y3, r4, c)
	r5 = t
	// Row 2.
	c, r2 = mulAdd(x2, y0, r2)
	t, r3 = mulAdd2(x2, y1, r3, c)
	c, r4 = mulAdd2(x2, y2, r4, t)
	t, r5 = mulAdd2(x2, y3, r5, c)
	r6 = t
	// Row 3.
	c, r3 = mulAdd(x3, y0, r3)
	t, r4 = mulAdd2(x3, y1, r4, c)
	c, r5 = mulAdd2(x3, y2, r5, t)
	t, r6 = mulAdd2(x3, y3, r6, c)
	r7 = t

	// Solinas fold with c = fieldC, 2²⁵⁶ ≡ c (mod p): t = high256·c
	// (c < 2³⁴, so t < 2²⁹⁰: five limbs), s = low256 + t with overflow
	// limb o < 2³⁵.
	h0, l0 := bits.Mul64(r4, fieldC)
	h1, l1 := bits.Mul64(r5, fieldC)
	h2, l2 := bits.Mul64(r6, fieldC)
	h3, l3 := bits.Mul64(r7, fieldC)
	t1, c := bits.Add64(l1, h0, 0)
	t2, c := bits.Add64(l2, h1, c)
	t3, c := bits.Add64(l3, h2, c)
	t4 := h3 + c
	s0, c := bits.Add64(r0, l0, 0)
	s1, c := bits.Add64(r1, t1, c)
	s2, c := bits.Add64(r2, t2, c)
	s3, c := bits.Add64(r3, t3, c)
	o := t4 + c
	// Fold o: o·c < 2⁶⁹, two limbs. A carry out of that wraps once more;
	// the wrapped value is tiny, so adding c cannot carry again.
	oh, ol := bits.Mul64(o, fieldC)
	s0, c = bits.Add64(s0, ol, 0)
	s1, c = bits.Add64(s1, oh, c)
	s2, c = bits.Add64(s2, 0, c)
	s3, c = bits.Add64(s3, 0, c)
	if c != 0 {
		s0, c = bits.Add64(s0, fieldC, 0)
		s1, c = bits.Add64(s1, 0, c)
		s2, c = bits.Add64(s2, 0, c)
		s3, _ = bits.Add64(s3, 0, c)
	}
	// Canonicalize: s ≥ p only when limbs 1–3 are all ones and limb 0 is
	// at least p's, and then s − p = s + c − 2²⁵⁶ fits in limb 0.
	if s1&s2&s3 == ^uint64(0) && s0 >= fieldP[0] {
		s0, s1, s2, s3 = s0+fieldC, 0, 0, 0
	}
	z[0], z[1], z[2], z[3] = s0, s1, s2, s3
}

// sqr sets z = x² mod p with a dedicated squaring: the six cross products
// are computed once and doubled, nearly halving the 64×64 multiplies.
func (z *fieldElem) sqr(x *fieldElem) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]

	// Cross terms into r1..r6: the chain x0x1, x0x2, x0x3, x1x3, x2x3
	// propagates its carry left; x1x2 is then added at position 3.
	var r1, r2, r3, r4, r5, r6 uint64
	var c, t, cc uint64
	c, r1 = bits.Mul64(x0, x1)
	t, r2 = mulAdd(x0, x2, c)
	c, r3 = mulAdd(x0, x3, t)
	t, r4 = mulAdd(x1, x3, c)
	c, r5 = mulAdd(x2, x3, t)
	r6 = c
	t, r3 = mulAdd(x1, x2, r3)
	r4, cc = bits.Add64(r4, t, 0)
	r5, cc = bits.Add64(r5, 0, cc)
	r6 += cc

	// Double the cross terms (carry into r7).
	r7 := r6 >> 63
	r6 = r6<<1 | r5>>63
	r5 = r5<<1 | r4>>63
	r4 = r4<<1 | r3>>63
	r3 = r3<<1 | r2>>63
	r2 = r2<<1 | r1>>63
	r1 = r1 << 1

	// Add the squares on the diagonal.
	var r0 uint64
	h, l := bits.Mul64(x0, x0)
	r0 = l
	r1, c = bits.Add64(r1, h, 0)
	h, l = bits.Mul64(x1, x1)
	r2, c = bits.Add64(r2, l, c)
	r3, c = bits.Add64(r3, h, c)
	h, l = bits.Mul64(x2, x2)
	r4, c = bits.Add64(r4, l, c)
	r5, c = bits.Add64(r5, h, c)
	h, l = bits.Mul64(x3, x3)
	r6, c = bits.Add64(r6, l, c)
	r7 += h + c

	// Solinas fold with c = fieldC, 2²⁵⁶ ≡ c (mod p): t = high256·c
	// (c < 2³⁴, so t < 2²⁹⁰: five limbs), s = low256 + t with overflow
	// limb o < 2³⁵.
	h0, l0 := bits.Mul64(r4, fieldC)
	h1, l1 := bits.Mul64(r5, fieldC)
	h2, l2 := bits.Mul64(r6, fieldC)
	h3, l3 := bits.Mul64(r7, fieldC)
	t1, c := bits.Add64(l1, h0, 0)
	t2, c := bits.Add64(l2, h1, c)
	t3, c := bits.Add64(l3, h2, c)
	t4 := h3 + c
	s0, c := bits.Add64(r0, l0, 0)
	s1, c := bits.Add64(r1, t1, c)
	s2, c := bits.Add64(r2, t2, c)
	s3, c := bits.Add64(r3, t3, c)
	o := t4 + c
	// Fold o: o·c < 2⁶⁹, two limbs. A carry out of that wraps once more;
	// the wrapped value is tiny, so adding c cannot carry again.
	oh, ol := bits.Mul64(o, fieldC)
	s0, c = bits.Add64(s0, ol, 0)
	s1, c = bits.Add64(s1, oh, c)
	s2, c = bits.Add64(s2, 0, c)
	s3, c = bits.Add64(s3, 0, c)
	if c != 0 {
		s0, c = bits.Add64(s0, fieldC, 0)
		s1, c = bits.Add64(s1, 0, c)
		s2, c = bits.Add64(s2, 0, c)
		s3, _ = bits.Add64(s3, 0, c)
	}
	// Canonicalize: s ≥ p only when limbs 1–3 are all ones and limb 0 is
	// at least p's, and then s − p = s + c − 2²⁵⁶ fits in limb 0.
	if s1&s2&s3 == ^uint64(0) && s0 >= fieldP[0] {
		s0, s1, s2, s3 = s0+fieldC, 0, 0, 0
	}
	z[0], z[1], z[2], z[3] = s0, s1, s2, s3
}

// inv sets z = x⁻¹ mod p (z = 0 if x = 0).
func (z *fieldElem) inv(x *fieldElem) {
	*z = fieldElem(invMod((*[4]uint64)(x), &fieldPInfo))
}

// sqrtExp is (p+1)/4; since p ≡ 3 (mod 4), a^((p+1)/4) is a square root
// of a whenever one exists.
var sqrtExp = [4]uint64{0xFFFFFFFFBFFFFF0C, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x3FFFFFFFFFFFFFFF}

// sqrt sets z to a square root of x and reports whether x is a quadratic
// residue (or zero). Cold path: only compressed-point decoding uses it.
func (z *fieldElem) sqrt(x *fieldElem) bool {
	var r fieldElem
	r.pow(x, &sqrtExp)
	var chk fieldElem
	chk.sqr(&r)
	ok := chk.equal(x)
	*z = r
	return ok
}

// pow sets z = x^e mod p by square-and-multiply, MSB first.
func (z *fieldElem) pow(x *fieldElem, e *[4]uint64) {
	r := fieldElem{1}
	started := false
	for i := 3; i >= 0; i-- {
		for bit := 63; bit >= 0; bit-- {
			if started {
				r.sqr(&r)
			}
			if e[i]>>uint(bit)&1 == 1 {
				if started {
					r.mul(&r, x)
				} else {
					r = *x
					started = true
				}
			}
		}
	}
	if !started {
		r = fieldElem{1}
	}
	*z = r
}
