package secp256k1

import "math/bits"

// Modular inversion by Bernstein–Yang divsteps ("Fast constant-time gcd
// computation and modular inversion", TCHES 2019), in the variable-time
// form of libsecp256k1's modinv64_var. Each round runs 62 divsteps on the
// low limbs of f and g alone, folding them into a 2×2 matrix scaled by
// 2⁶², then applies that matrix to the full-width (f, g) and to the
// cofactors (d, e) mod m. Numbers are held as signed 62-bit limbs so
// the matrix products and carries fit in 128 bits. Like the rest of the
// package, it is not constant-time (see the package comment).

// signed62 is the integer Σ v[i]·2⁶²ⁱ. Limbs 0–3 are normally in
// [0, 2⁶²); the top limb carries the sign.
type signed62 [5]int64

// modInfo describes a modulus m for invMod.
type modInfo struct {
	m      signed62
	mInv62 uint64 // m⁻¹ mod 2⁶²
}

var (
	// fieldPInfo is p = 2²⁵⁶ − 0x1000003D1.
	fieldPInfo = modInfo{signed62{-0x1000003D1, 0, 0, 0, 256}, 0x27C7F6E22DDACACF}
	// scalarNInfo is the group order N.
	scalarNInfo = modInfo{signed62{0x3FD25E8CD0364141, 0x2ABB739ABD2280EE, -0x15, 0, 256}, 0x34F20099AA774EC1}
)

const mask62 = 1<<62 - 1

// trans2x2 is the divstep matrix [u v; q r], scaled by 2⁶²:
// after 62 divsteps, 2⁶²·(f', g') = (u·f + v·g, q·f + r·g).
type trans2x2 struct{ u, v, q, r int64 }

// invMod returns a⁻¹ mod m for a ∈ [0, m); 0 maps to 0.
func invMod(a *[4]uint64, mi *modInfo) [4]uint64 {
	d, e := signed62{}, signed62{1}
	f, g := mi.m, toSigned62(a)
	n := 5 // limbs still in use in f and g
	eta := int64(-1)
	for {
		var t trans2x2
		eta, t = divsteps62Var(eta, uint64(f[0]), uint64(g[0]))
		updateDE(&d, &e, &t, mi)
		updateFG(f[:n], g[:n], &t)
		if g[0] == 0 {
			var c int64
			for _, x := range g[1:n] {
				c |= x
			}
			if c == 0 {
				break
			}
		}
		// Drop the top limb once it is 0 or −1 in both f and g, folding
		// its sign into the limb below.
		fn, gn := f[n-1], g[n-1]
		if n > 1 && (fn^(fn>>63))|(gn^(gn>>63)) == 0 {
			f[n-2] |= int64(uint64(fn) << 62)
			g[n-2] |= int64(uint64(gn) << 62)
			n--
		}
	}
	// g = 0, so f = ±gcd = ±1 and d = ±a⁻¹.
	normalize(&d, f[n-1], mi)
	return fromSigned62(&d)
}

// divsteps62Var runs 62 divsteps on the low 64 bits of f (odd) and g,
// returning the new eta (= −delta) and the transition matrix. Runs of
// zeros in g are skipped at once; an odd g has up to 6 (eta < 0) or 4
// bits cleared per step by adding a multiple w of f.
func divsteps62Var(eta int64, f, g uint64) (int64, trans2x2) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	i := 62
	for {
		// The sentinel bits stop the count at i.
		zeros := bits.TrailingZeros64(g|^uint64(0)<<(i&63)) & 63
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= zeros
		if i == 0 {
			break
		}
		var w uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			// Cancel up to min(eta+1, i, 6) bits: f·(f²−2) ≡ −f⁻¹ (mod 64).
			limit := min(int(eta)+1, i)
			m := ^uint64(0) >> ((64 - limit) & 63) & 63
			w = f * g * (f*f - 2) & m
		} else {
			// Cancel up to min(eta+1, i, 4) bits: f + ((f+1)&4)<<1 ≡ f⁻¹ (mod 16).
			limit := min(int(eta)+1, i)
			m := ^uint64(0) >> ((64 - limit) & 63) & 15
			w = f + (f+1)&4<<1
			w = -w * g & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
	return eta, trans2x2{int64(u), int64(v), int64(q), int64(r)}
}

// smul returns the signed 128-bit product a·b as (hi, lo).
func smul(a, b int64) (hi, lo uint64) {
	hi, lo = bits.Mul64(uint64(a), uint64(b))
	hi -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	return hi, lo
}

// smulAdd returns (hi, lo) + a·b, signed.
func smulAdd(hi, lo uint64, a, b int64) (uint64, uint64) {
	ph, pl := smul(a, b)
	lo, c := bits.Add64(lo, pl, 0)
	return hi + ph + c, lo
}

// sar62 returns (hi, lo) >> 62, arithmetic.
func sar62(hi, lo uint64) (uint64, uint64) {
	return uint64(int64(hi) >> 62), lo>>62 | hi<<2
}

// updateDE sets (d, e) = t·(d, e) / 2⁶² mod m. The division is exact
// after adding the multiple (md, me) of m that clears the low 62 bits.
// d and e stay in (−2m, m).
func updateDE(d, e *signed62, t *trans2x2, mi *modInfo) {
	d0, d1, d2, d3, d4 := d[0], d[1], d[2], d[3], d[4]
	e0, e1, e2, e3, e4 := e[0], e[1], e[2], e[3], e[4]
	u, v, q, r := t.u, t.v, t.q, t.r
	m := &mi.m
	// Start (md, me) at [u, q] if d < 0 plus [v, r] if e < 0, which keeps
	// the results above −2m.
	sd, se := d4>>63, e4>>63
	md := u&sd + v&se
	me := q&sd + r&se

	dh, dl := smul(u, d0)
	dh, dl = smulAdd(dh, dl, v, e0)
	eh, el := smul(q, d0)
	eh, el = smulAdd(eh, el, r, e0)
	md -= int64((mi.mInv62*dl + uint64(md)) & mask62)
	me -= int64((mi.mInv62*el + uint64(me)) & mask62)
	dh, dl = smulAdd(dh, dl, m[0], md)
	eh, el = smulAdd(eh, el, m[0], me)
	dh, dl = sar62(dh, dl) // the low 62 bits are now zero
	eh, el = sar62(eh, el)

	dh, dl = smulAdd(dh, dl, u, d1)
	dh, dl = smulAdd(dh, dl, v, e1)
	eh, el = smulAdd(eh, el, q, d1)
	eh, el = smulAdd(eh, el, r, e1)
	if m[1] != 0 {
		dh, dl = smulAdd(dh, dl, m[1], md)
		eh, el = smulAdd(eh, el, m[1], me)
	}
	d[0], e[0] = int64(dl&mask62), int64(el&mask62)
	dh, dl = sar62(dh, dl)
	eh, el = sar62(eh, el)

	dh, dl = smulAdd(dh, dl, u, d2)
	dh, dl = smulAdd(dh, dl, v, e2)
	eh, el = smulAdd(eh, el, q, d2)
	eh, el = smulAdd(eh, el, r, e2)
	if m[2] != 0 {
		dh, dl = smulAdd(dh, dl, m[2], md)
		eh, el = smulAdd(eh, el, m[2], me)
	}
	d[1], e[1] = int64(dl&mask62), int64(el&mask62)
	dh, dl = sar62(dh, dl)
	eh, el = sar62(eh, el)

	dh, dl = smulAdd(dh, dl, u, d3)
	dh, dl = smulAdd(dh, dl, v, e3)
	eh, el = smulAdd(eh, el, q, d3)
	eh, el = smulAdd(eh, el, r, e3)
	if m[3] != 0 {
		dh, dl = smulAdd(dh, dl, m[3], md)
		eh, el = smulAdd(eh, el, m[3], me)
	}
	d[2], e[2] = int64(dl&mask62), int64(el&mask62)
	dh, dl = sar62(dh, dl)
	eh, el = sar62(eh, el)

	dh, dl = smulAdd(dh, dl, u, d4)
	dh, dl = smulAdd(dh, dl, v, e4)
	eh, el = smulAdd(eh, el, q, d4)
	eh, el = smulAdd(eh, el, r, e4)
	dh, dl = smulAdd(dh, dl, m[4], md)
	eh, el = smulAdd(eh, el, m[4], me)
	d[3], e[3] = int64(dl&mask62), int64(el&mask62)
	_, dl = sar62(dh, dl)
	_, el = sar62(eh, el)
	d[4], e[4] = int64(dl), int64(el)
}

// updateFG sets (f, g) = t·(f, g) / 2⁶² over their first len(f) limbs;
// the division is exact by construction of t.
func updateFG(f, g []int64, t *trans2x2) {
	g = g[:len(f)]
	u, v, q, r := t.u, t.v, t.q, t.r
	fh, fl := smul(u, f[0])
	fh, fl = smulAdd(fh, fl, v, g[0])
	gh, gl := smul(q, f[0])
	gh, gl = smulAdd(gh, gl, r, g[0])
	fh, fl = sar62(fh, fl)
	gh, gl = sar62(gh, gl)
	for i := 1; i < len(f); i++ {
		fi, gi := f[i], g[i]
		fh, fl = smulAdd(fh, fl, u, fi)
		fh, fl = smulAdd(fh, fl, v, gi)
		gh, gl = smulAdd(gh, gl, q, fi)
		gh, gl = smulAdd(gh, gl, r, gi)
		f[i-1], g[i-1] = int64(fl&mask62), int64(gl&mask62)
		fh, fl = sar62(fh, fl)
		gh, gl = sar62(gh, gl)
	}
	f[len(f)-1], g[len(f)-1] = int64(fl), int64(gl)
}

// normalize brings r from (−2m, m) into [0, m), negating it first if
// sign < 0.
func normalize(r *signed62, sign int64, mi *modInfo) {
	addIfNegative := func() {
		c := r[4] >> 63
		for i := range r {
			r[i] += mi.m[i] & c
		}
	}
	carry := func() {
		for i := 0; i < 4; i++ {
			r[i+1] += r[i] >> 62
			r[i] &= mask62
		}
	}
	// Add m if r < 0, then negate if asked: r ∈ (−m, m).
	addIfNegative()
	neg := sign >> 63
	for i := range r {
		r[i] = r[i] ^ neg - neg
	}
	carry()
	// Add m again if still negative: r ∈ [0, m).
	addIfNegative()
	carry()
}

func toSigned62(a *[4]uint64) signed62 {
	return signed62{
		int64(a[0] & mask62),
		int64((a[0]>>62 | a[1]<<2) & mask62),
		int64((a[1]>>60 | a[2]<<4) & mask62),
		int64((a[2]>>58 | a[3]<<6) & mask62),
		int64(a[3] >> 56),
	}
}

// fromSigned62 converts a normalized r (limbs 0–3 in [0, 2⁶²), r < 2²⁵⁶).
func fromSigned62(r *signed62) [4]uint64 {
	r0, r1, r2, r3, r4 := uint64(r[0]), uint64(r[1]), uint64(r[2]), uint64(r[3]), uint64(r[4])
	return [4]uint64{r0 | r1<<62, r1>>2 | r2<<60, r2>>4 | r3<<58, r3>>6 | r4<<56}
}
