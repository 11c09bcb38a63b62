package secp256k1

// TableVerifier verifies many signatures under one fixed public key — the
// aom receiver's workload, since every aom-pk packet in an epoch is
// signed by the same sequencer key. It precomputes the same byte-window
// table for the public key that the generator uses, so u1·G + u2·Q is a
// sum of at most 64 table points (one per nonzero byte of u1 and u2) and
// no doublings. Verification sums those points as a tree in affine
// coordinates, with one field inversion per tree level shared by every
// signature of the batch, and allocates nothing. Building the table
// costs a few milliseconds once per epoch; one TableVerifier is safe for
// concurrent use.
type TableVerifier struct {
	pub   PublicKey
	table *pointTable
}

// NewTableVerifier precomputes the verification table for pub.
func NewTableVerifier(pub PublicKey) *TableVerifier {
	if pub.Infinity() || !pub.OnCurve() {
		return &TableVerifier{pub: pub}
	}
	return &TableVerifier{pub: pub, table: buildPointTable(pub.Point)}
}

// PublicKey returns the key this verifier checks against.
func (tv *TableVerifier) PublicKey() PublicKey { return tv.pub }

// Verify checks sig over a digest (SEC 1 truncation: see hashBytes32).
// It is VerifyBatchInto with a batch of one.
func (tv *TableVerifier) Verify(digest []byte, sig Signature) bool {
	var ok [1]bool
	digests := [1][32]byte{hashBytes32(digest)}
	sigs := [1]Signature{sig}
	tv.VerifyBatchInto(ok[:], digests[:], sigs[:])
	return ok[0]
}

// VerifyBatchInto checks each sigs[i] over digests[i] under the
// verifier's key and writes the verdict to ok[i] (len(ok) ==
// len(digests) == len(sigs)). Each verdict is exactly the one the
// signature gets alone; the batch only shares inversions — one for the
// s values mod N and one per affine tree level — among up to
// chunkSigs signatures at a time.
func (tv *TableVerifier) VerifyBatchInto(ok []bool, digests [][32]byte, sigs []Signature) {
	ok = ok[:len(sigs)]
	if tv.table == nil {
		clear(ok)
		return
	}
	var sc verifyScratch
	for lo := 0; lo < len(sigs); lo += chunkSigs {
		hi := min(lo+chunkSigs, len(sigs))
		tv.verifyChunk(&sc, ok[lo:hi], digests[lo:hi], sigs[lo:hi])
	}
}

// chunkSigs is how many signatures share one scratch pass, and so one
// inversion per tree level. Sixteen (at most 1024 points) covers the
// replica runtime's common 16-packet drain in one pass, and the 81 KiB
// scratch still fits the compiler's 128 KiB limit for a stack variable.
// Against a chunk of 8 it measured 7 % less per signature at batch 16,
// 14 % less at 32, and the same at 1–8.
const chunkSigs = 16

// sigPoints bounds the table points one signature sums: one per nonzero
// byte of u1 and of u2.
const sigPoints = 64

// affineMinPairs is the fewest pairs, over the whole chunk, for which a
// tree level runs in affine form. An affine level pays one field
// inversion I and then saves J − A on each pair, where J is a Jacobian
// mixed addition and A an affine addition including its 3M share of
// Montgomery's trick. It pays off from I ÷ (J − A) pairs: on a 2-vCPU
// Xeon, with the safegcd inversion, BenchmarkFieldInv ≈ 2.3 µs,
// BenchmarkAddMixed ≈ 410 ns and BenchmarkAddAffine ≈ 235 ns (medians
// of 9 runs at -cpu 1; the ratio per run ranged 10–25, median 12.5),
// so ≈ 12. A lone signature almost always has 63 or 64 points, so
// levels of 31–32, 16 and 8 pairs: any value from 9 to 16 gives it the
// same two affine levels.
const affineMinPairs = 12

// verifyScratch is the per-call working memory of VerifyBatchInto. It
// holds no pointers into itself, so it stays on the caller's stack.
type verifyScratch struct {
	// pts[i*sigPoints:][:n[i]] are signature i's points still to be
	// summed; n[i] is 0 once the signature has left the tree.
	pts [chunkSigs * sigPoints]Point
	n   [chunkSigs]int
	// inv holds one level's prefix products of x-differences, then the
	// inverses of the differences themselves.
	inv [chunkSigs * sigPoints / 2]fieldElem
}

func (sc *verifyScratch) points(i int) []Point {
	return sc.pts[i*sigPoints : i*sigPoints+sc.n[i]]
}

// verifyChunk verifies at most chunkSigs signatures:
//  1. one batch inversion of the s values mod N gives u1 and u2;
//  2. each signature gathers its table points for u1·G + u2·Q;
//  3. affine tree levels halve the points while a level has at least
//     affineMinPairs pairs;
//  4. each signature adds its last few points with addMixed and checks
//     x ≡ r without an inversion (jacXMatchesR).
//
// A signature whose tree meets a pair with equal x (a doubling or
// P + (−P), which the affine formula cannot add) leaves the tree and is
// verified alone by verifyJacobian.
func (tv *TableVerifier) verifyChunk(sc *verifyScratch, ok []bool, digests [][32]byte, sigs []Signature) {
	var w, u1, u2 [chunkSigs]Scalar
	k := len(sigs)
	for i := range sigs {
		if sigRangeOK(sigs[i]) {
			w[i] = sigs[i].S
		}
	}
	montBatchInvN(w[:k]) // zero (rejected) entries stay zero

	gen := generatorTable()
	for i := 0; i < k; i++ {
		sc.n[i] = 0
		if w[i].IsZero() {
			continue
		}
		u1[i] = scMul(NewScalarReduced(digests[i]), w[i])
		u2[i] = scMul(sigs[i].R, w[i])
		pts := sc.pts[i*sigPoints : i*sigPoints]
		pts = gen.gather(pts, u1[i])
		pts = tv.table.gather(pts, u2[i])
		sc.n[i] = len(pts) // ≥ 1: u2 = r·s⁻¹ ≠ 0
	}

	sc.sumAffine(k)

	for i := 0; i < k; i++ {
		switch {
		case w[i].IsZero():
			ok[i] = false
		case sc.n[i] == 0:
			ok[i] = tv.verifyJacobian(u1[i], u2[i], sigs[i].R)
		default:
			p := sc.points(i)
			var acc jacPoint
			acc.setAffine(p[0])
			for j := 1; j < len(p); j++ {
				acc.addMixed(&acc, &p[j])
			}
			ok[i] = !acc.infinity() && jacXMatchesR(&acc, sigs[i].R)
		}
	}
}

// verifyJacobian checks x(u1·G + u2·Q) ≡ r with Jacobian mixed additions
// only, which handle every case the affine tree refuses.
func (tv *TableVerifier) verifyJacobian(u1, u2, r Scalar) bool {
	var acc jacPoint
	generatorTable().mulAcc(&acc, u1)
	tv.table.mulAcc(&acc, u2)
	return !acc.infinity() && jacXMatchesR(&acc, r)
}

// sumAffine runs affine tree levels over the first k signatures' points
// while a level has at least affineMinPairs pairs.
func (sc *verifyScratch) sumAffine(k int) {
	for {
		pairs := 0
		for i := 0; i < k; i++ {
			pairs += sc.n[i] / 2
		}
		if pairs < affineMinPairs {
			return
		}
		sc.affineLevel(k)
	}
}

// affineLevel replaces each signature's points p[2j], p[2j+1] with their
// sum p[j] (an odd last point moves down unchanged), so every count
// halves, rounding up. All additions of the level share one field
// inversion by Montgomery's trick. A signature with a pair of equal x
// leaves the tree (its count drops to 0) before anything is inverted.
func (sc *verifyScratch) affineLevel(k int) {
	// Forward: prefix products of every pair's x-difference.
	acc := fieldElem{1}
	m := 0
	for i := 0; i < k; i++ {
		p := sc.points(i)
		m0, acc0 := m, acc
		for j := 0; j+1 < len(p); j += 2 {
			var dx fieldElem
			dx.sub(&p[j+1].x, &p[j].x)
			if dx.isZero() {
				sc.n[i] = 0
				m, acc = m0, acc0
				break
			}
			acc.mul(&acc, &dx)
			sc.inv[m] = acc
			m++
		}
	}
	if m == 0 {
		return
	}

	// Backward: one inversion, then peel off each difference's inverse.
	var inv fieldElem
	inv.inv(&acc)
	for i := k - 1; i >= 0; i-- {
		p := sc.points(i)
		for j := len(p)&^1 - 2; j >= 0; j -= 2 {
			m--
			var dx fieldElem
			dx.sub(&p[j+1].x, &p[j].x)
			if m > 0 {
				sc.inv[m].mul(&inv, &sc.inv[m-1])
			} else {
				sc.inv[m] = inv
			}
			inv.mul(&inv, &dx)
		}
	}

	// Forward again: the additions, written in place (pair j reads slots
	// 2j and 2j+1, both at or past slot j).
	for i := 0; i < k; i++ {
		p := sc.points(i)
		n := len(p)
		for j := 0; j+1 < n; j += 2 {
			addAffine(&p[j/2], &p[j], &p[j+1], &sc.inv[m])
			m++
		}
		if n%2 == 1 {
			p[n/2] = p[n-1]
		}
		sc.n[i] = (n + 1) / 2
	}
}

// addAffine sets r = a + b for affine points with a.x ≠ b.x, given
// dxInv = (b.x − a.x)⁻¹: λ = (b.y − a.y)·dxInv, x = λ² − a.x − b.x,
// y = λ(a.x − x) − a.y. r may alias a or b.
func addAffine(r, a, b *Point, dxInv *fieldElem) {
	var lam, x, y fieldElem
	lam.sub(&b.y, &a.y)
	lam.mul(&lam, dxInv)
	x.sqr(&lam)
	x.sub(&x, &a.x)
	x.sub(&x, &b.x)
	y.sub(&a.x, &x)
	y.mul(&y, &lam)
	y.sub(&y, &a.y)
	r.x, r.y = x, y
}
