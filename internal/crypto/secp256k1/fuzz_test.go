package secp256k1

// Differential fuzzing: every limb operation is cross-checked against the
// retained math/big reference implementation in ref_test.go. Seeds run on
// every CI push (go test -run Fuzz); the nightly workflow gives each
// target real fuzzing time.

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"testing"
)

func fuzzPair(data []byte) (a, b *big.Int) {
	var buf [64]byte
	copy(buf[:], data)
	return new(big.Int).SetBytes(buf[:32]), new(big.Int).SetBytes(buf[32:])
}

// FuzzFieldOps checks field add/sub/neg/mul/sqr/inv/sqrt and byte
// round-trips against math/big.
func FuzzFieldOps(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	pb := refP.FillBytes(make([]byte, 32))
	f.Add(append(pb, pb...)) // both inputs exactly p: non-canonical edge
	f.Add(append(bytes.Repeat([]byte{0}, 63), 1))
	// 3 · (p+2)/3 = p + 2: a product whose fold lands in [p, 2²⁵⁶), so
	// only the final canonicalizing subtract brings it below p.
	third, _ := new(big.Int).SetString("55555555555555555555555555555555555555555555555555555554fffffebb", 16)
	f.Add(append(big.NewInt(3).FillBytes(make([]byte, 32)), third.FillBytes(make([]byte, 32))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ba, bb := fuzzPair(data)
		ba.Mod(ba, refP)
		bb.Mod(bb, refP)
		fa := fieldFromBig(ba)
		fb := fieldFromBig(bb)

		check := func(op string, got *fieldElem, want *big.Int) {
			w := new(big.Int).Mod(want, refP)
			if fieldToBig(got).Cmp(w) != 0 {
				t.Fatalf("%s: limb=%x big=%x (a=%x b=%x)", op, fieldToBig(got), w, ba, bb)
			}
		}

		var r fieldElem
		r.add(&fa, &fb)
		check("add", &r, new(big.Int).Add(ba, bb))
		r.sub(&fa, &fb)
		check("sub", &r, new(big.Int).Sub(ba, bb))
		r.neg(&fa)
		check("neg", &r, new(big.Int).Neg(ba))
		r.mul(&fa, &fb)
		check("mul", &r, new(big.Int).Mul(ba, bb))
		r.sqr(&fa)
		check("sqr", &r, new(big.Int).Mul(ba, ba))
		if ba.Sign() != 0 {
			r.inv(&fa)
			check("inv", &r, new(big.Int).ModInverse(ba, refP))
		}
		if ok := r.sqrt(&fa); ok {
			var chk fieldElem
			chk.sqr(&r)
			if !chk.equal(&fa) {
				t.Fatalf("sqrt returned non-root: a=%x", ba)
			}
		} else if new(big.Int).ModSqrt(ba, refP) != nil {
			t.Fatalf("sqrt missed a quadratic residue: a=%x", ba)
		}

		// Byte round-trip and canonicity flag.
		var raw [32]byte
		copy(raw[:], data)
		var fe fieldElem
		ok := fe.setBytes(&raw)
		want := new(big.Int).SetBytes(raw[:])
		if ok != (want.Cmp(refP) < 0) {
			t.Fatalf("setBytes canonicity flag wrong for %x", raw)
		}
		check("setBytes", &fe, want)
		back := fe.bytes()
		if new(big.Int).SetBytes(back[:]).Cmp(new(big.Int).Mod(want, refP)) != 0 {
			t.Fatalf("bytes round trip mismatch for %x", raw)
		}
	})
}

// FuzzScalarOps checks scalar add/sub/neg/mul/inv, the half-order test,
// and byte round-trips against math/big.
func FuzzScalarOps(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	nb := refN.FillBytes(make([]byte, 32))
	f.Add(append(nb, nb...))
	hb := refHalfN.FillBytes(make([]byte, 32))
	f.Add(append(hb, hb...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ba, bb := fuzzPair(data)
		ba.Mod(ba, refN)
		bb.Mod(bb, refN)
		sa := scalarFromBig(ba)
		sb := scalarFromBig(bb)

		check := func(op string, got Scalar, want *big.Int) {
			w := new(big.Int).Mod(want, refN)
			if scalarToBig(got).Cmp(w) != 0 {
				t.Fatalf("%s: limb=%x big=%x (a=%x b=%x)", op, scalarToBig(got), w, ba, bb)
			}
		}

		check("add", scAdd(sa, sb), new(big.Int).Add(ba, bb))
		check("sub", scSub(sa, sb), new(big.Int).Sub(ba, bb))
		check("neg", scNeg(sa), new(big.Int).Neg(ba))
		check("mul", scMul(sa, sb), new(big.Int).Mul(ba, bb))
		if ba.Sign() != 0 {
			check("inv", scInv(sa), new(big.Int).ModInverse(ba, refN))
		}
		if scIsHigh(sa) != (ba.Cmp(refHalfN) > 0) {
			t.Fatalf("scIsHigh(%x) disagrees with big.Int", ba)
		}

		var raw [32]byte
		copy(raw[:], data)
		s, ok := NewScalar(raw)
		want := new(big.Int).SetBytes(raw[:])
		if ok != (want.Cmp(refN) < 0) {
			t.Fatalf("NewScalar canonicity flag wrong for %x", raw)
		}
		check("NewScalar", s, want)
		back := s.Bytes()
		if new(big.Int).SetBytes(back[:]).Cmp(new(big.Int).Mod(want, refN)) != 0 {
			t.Fatalf("Bytes round trip mismatch for %x", raw)
		}

		// Full 512-bit products through scReduce512.
		wide, _ := fuzzPair(data)
		prod := new(big.Int).Mul(wide, wide)
		var r8 [8]uint64
		pb := prod.FillBytes(make([]byte, 64))
		for i := 0; i < 8; i++ {
			off := 56 - 8*i
			for j := 0; j < 8; j++ {
				r8[i] = r8[i]<<8 | uint64(pb[off+j])
			}
		}
		check("reduce512", Scalar{scReduce512(&r8)}, prod)
	})
}

// FuzzVerifyVsRef cross-checks the full ECDSA pipeline: limb Sign must
// satisfy the math/big verifier, and arbitrary (possibly invalid)
// signatures must get the same accept/reject verdict from the limb
// verifiers (generic, table, batch) and the reference. In the batch the
// candidate sits at a fuzz-chosen position among 9 valid signatures, so
// its points go through the affine tree levels.
func FuzzVerifyVsRef(f *testing.F) {
	f.Add([]byte("seed"), []byte("digest material"), make([]byte, 64))
	f.Add([]byte("s2"), []byte{0}, bytes.Repeat([]byte{0xFF}, 64))
	priv, _ := GenerateKey([]byte("fuzz-fixed-key"))
	tv := NewTableVerifier(priv.Pub)
	refPub := pointToRef(priv.Pub.Point)
	refD := refGenerateKeyScalar([]byte("fuzz-fixed-key"))
	const others = 9
	var otherDigests [others][32]byte
	var otherSigs [others]Signature
	for i := range otherSigs {
		otherDigests[i] = sha256.Sum256([]byte{byte(i), 0xf0})
		otherSigs[i] = priv.Sign(otherDigests[i][:])
	}
	f.Fuzz(func(t *testing.T, seed, msg, sigBytes []byte) {
		digest := sha256.Sum256(msg)

		// A fresh signature from the limb signer must verify everywhere,
		// including under the math/big reference.
		sig := priv.Sign(digest[:])
		rr, rs := refSign(refD, digest[:])
		if scalarToBig(sig.R).Cmp(rr) != 0 || scalarToBig(sig.S).Cmp(rs) != 0 {
			t.Fatal("limb signature differs from reference signature")
		}
		if !refVerify(refPub, digest[:], scalarToBig(sig.R), scalarToBig(sig.S)) {
			t.Fatal("reference verifier rejected limb signature")
		}
		if !tv.Verify(digest[:], sig) || !priv.Pub.Verify(digest[:], sig) {
			t.Fatal("limb verifier rejected its own signature")
		}

		// Arbitrary signature bytes: all verifiers must agree with the
		// reference verdict.
		var raw [64]byte
		copy(raw[:], sigBytes)
		cand, err := DecodeSignature(raw[:])
		br := new(big.Int).SetBytes(raw[:32])
		bs := new(big.Int).SetBytes(raw[32:])
		refOK := refVerify(refPub, digest[:], br, bs)
		if err != nil {
			// Out-of-range encodings never verify under the reference
			// either (it range-checks r, s).
			if refOK {
				t.Fatal("reference accepted a signature the decoder rejects")
			}
			return
		}
		got := tv.Verify(digest[:], cand)
		if got != refOK {
			t.Fatalf("table verifier %v, reference %v (r=%x s=%x)", got, refOK, br, bs)
		}
		if priv.Pub.Verify(digest[:], cand) != refOK {
			t.Fatalf("generic verifier disagrees with reference (r=%x s=%x)", br, bs)
		}

		pos := 0
		if len(seed) > 0 {
			pos = int(seed[0]) % (others + 1)
		}
		digests := make([][32]byte, 0, others+1)
		sigs := make([]Signature, 0, others+1)
		digests = append(append(append(digests, otherDigests[:pos]...), digest), otherDigests[pos:]...)
		sigs = append(append(append(sigs, otherSigs[:pos]...), cand), otherSigs[pos:]...)
		ok := make([]bool, len(sigs))
		tv.VerifyBatchInto(ok, digests, sigs)
		for i := range ok {
			if want := i != pos || refOK; ok[i] != want {
				t.Fatalf("batch entry %d (candidate at %d): got %v, want %v", i, pos, ok[i], want)
			}
		}
	})
}
