package secp256k1

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"testing"
	"testing/quick"
)

// scalarU64 builds a Scalar from a small integer.
func scalarU64(v uint64) Scalar {
	var b [32]byte
	for i := 0; i < 8; i++ {
		b[31-i] = byte(v >> (8 * i))
	}
	return NewScalarReduced(b)
}

// scalarHex builds a Scalar from a big-endian hex string (reduced mod N).
func scalarHex(t testing.TB, s string) Scalar {
	t.Helper()
	raw, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	var b [32]byte
	copy(b[32-len(raw):], raw)
	return NewScalarReduced(b)
}

// pointHex builds an affine Point from big-endian hex coordinates.
func pointHex(t testing.TB, xs, ys string) Point {
	t.Helper()
	xr, err := hex.DecodeString(xs)
	if err != nil {
		t.Fatal(err)
	}
	yr, err := hex.DecodeString(ys)
	if err != nil {
		t.Fatal(err)
	}
	var xb, yb [32]byte
	copy(xb[32-len(xr):], xr)
	copy(yb[32-len(yr):], yr)
	var p Point
	if !p.x.setBytes(&xb) || !p.y.setBytes(&yb) {
		t.Fatal("non-canonical coordinate")
	}
	return p
}

// nBytes is the canonical big-endian encoding of the group order N.
func nBytes() [32]byte {
	var b [32]byte
	refN.FillBytes(b[:])
	return b
}

func TestGeneratorOnCurve(t *testing.T) {
	if !generator().OnCurve() {
		t.Fatal("generator not on curve")
	}
}

// TestKnownMultiples checks k·G against the well-known public keys of
// private keys 1 and 2.
func TestKnownMultiples(t *testing.T) {
	g := generator()
	one := BaseMult(scalarU64(1))
	if !one.Equal(g) {
		t.Fatalf("1·G = %v, want G", one)
	}
	two := BaseMult(scalarU64(2))
	want := pointHex(t,
		"c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
		"1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a")
	if !two.Equal(want) {
		t.Fatalf("2·G = (%x, %x), want (%x, %x)", two.x.bytes(), two.y.bytes(), want.x.bytes(), want.y.bytes())
	}
	if !two.OnCurve() {
		t.Fatal("2·G not on curve")
	}
	if !two.Equal(Double(g)) {
		t.Fatal("Double(G) != 2·G")
	}
	if !two.Equal(Add(g, g)) {
		t.Fatal("Add(G, G) != 2·G")
	}
}

func TestOrderAnnihilatesGenerator(t *testing.T) {
	kN := NewScalarReduced(nBytes()) // N mod N = 0
	if !kN.IsZero() {
		t.Fatal("N did not reduce to the zero scalar")
	}
	if !BaseMult(kN).Infinity() {
		t.Fatal("N·G is not the point at infinity")
	}
	if !ScalarMult(generator(), kN).Infinity() {
		t.Fatal("slow N·G is not the point at infinity")
	}
}

func TestBaseMultMatchesSlow(t *testing.T) {
	ks := []Scalar{
		scalarU64(3),
		scalarU64(255),
		scalarU64(256),
		scalarU64(65537),
		scalarFromBig(new(big.Int).Sub(refN, big.NewInt(1))),
		scalarFromBig(new(big.Int).Rsh(refN, 1)),
	}
	for _, k := range ks {
		fast := BaseMult(k)
		slow := BaseMultSlow(k)
		if !fast.Equal(slow) {
			t.Fatalf("BaseMult(%x) != BaseMultSlow", k.Bytes())
		}
	}
}

func TestScalarMultDistributes(t *testing.T) {
	// (a+b)·G == a·G + b·G for random-ish scalars.
	f := func(a, b uint64) bool {
		ba := new(big.Int).SetUint64(a)
		bb := new(big.Int).SetUint64(b)
		// Stretch into full-width scalars so the whole table is exercised.
		ba.Mul(ba, ba).Mul(ba, ba)
		bb.Mul(bb, bb).Mul(bb, bb)
		sum := new(big.Int).Add(ba, bb)
		lhs := BaseMult(scalarFromBig(sum))
		rhs := Add(BaseMult(scalarFromBig(ba)), BaseMult(scalarFromBig(bb)))
		return lhs.Equal(rhs)
	}
	cfg := &quick.Config{MaxCount: 16}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAddCommutesAndAssociates(t *testing.T) {
	p := BaseMult(scalarU64(11))
	q := BaseMult(scalarU64(29))
	r := BaseMult(scalarU64(1020304))
	if !Add(p, q).Equal(Add(q, p)) {
		t.Fatal("addition not commutative")
	}
	if !Add(Add(p, q), r).Equal(Add(p, Add(q, r))) {
		t.Fatal("addition not associative")
	}
}

func TestNegation(t *testing.T) {
	p := BaseMult(scalarU64(12345))
	if !Add(p, Neg(p)).Infinity() {
		t.Fatal("p + (−p) is not infinity")
	}
	nm1 := scalarFromBig(new(big.Int).Sub(refN, big.NewInt(12345)))
	if !BaseMult(nm1).Equal(Neg(p)) {
		t.Fatal("(N−k)·G != −(k·G)")
	}
}

func TestSignVerify(t *testing.T) {
	priv, err := GenerateKey([]byte("sequencer-epoch-7"))
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("aom message 42"))
	sig := priv.Sign(digest[:])
	if !priv.Pub.Verify(digest[:], sig) {
		t.Fatal("valid signature rejected")
	}
	// Tampered digest must fail.
	bad := digest
	bad[0] ^= 1
	if priv.Pub.Verify(bad[:], sig) {
		t.Fatal("signature accepted for wrong digest")
	}
	// Tampered signature must fail.
	badSig := Signature{R: scAdd(sig.R, scalarU64(1)), S: sig.S}
	if priv.Pub.Verify(digest[:], badSig) {
		t.Fatal("tampered signature accepted")
	}
	// Wrong key must fail.
	other, _ := GenerateKey([]byte("different key"))
	if other.Pub.Verify(digest[:], sig) {
		t.Fatal("signature accepted under wrong public key")
	}
}

func TestSignDeterministic(t *testing.T) {
	priv, _ := GenerateKey([]byte("det"))
	digest := sha256.Sum256([]byte("msg"))
	s1 := priv.Sign(digest[:])
	s2 := priv.Sign(digest[:])
	if !s1.R.Equal(s2.R) || !s1.S.Equal(s2.S) {
		t.Fatal("deterministic signing produced differing signatures")
	}
}

func TestSignLowS(t *testing.T) {
	priv, _ := GenerateKey([]byte("lows"))
	for i := 0; i < 8; i++ {
		digest := sha256.Sum256([]byte{byte(i)})
		sig := priv.Sign(digest[:])
		if scIsHigh(sig.S) {
			t.Fatal("signature s not normalized to low half")
		}
	}
}

// TestSignMatchesRef pins the limb signer to the original math/big
// implementation: same seeds, same digests, byte-identical signatures.
func TestSignMatchesRef(t *testing.T) {
	for i := 0; i < 8; i++ {
		seed := []byte{byte(i), 0xA5}
		priv, err := GenerateKey(seed)
		if err != nil {
			t.Fatal(err)
		}
		refD := refGenerateKeyScalar(seed)
		if scalarToBig(priv.D).Cmp(refD) != 0 {
			t.Fatalf("seed %v: key derivation diverged from math/big reference", seed)
		}
		digest := sha256.Sum256(seed)
		sig := priv.Sign(digest[:])
		rr, rs := refSign(refD, digest[:])
		if scalarToBig(sig.R).Cmp(rr) != 0 || scalarToBig(sig.S).Cmp(rs) != 0 {
			t.Fatalf("seed %v: signature diverged from math/big reference", seed)
		}
	}
}

func TestSignatureEncoding(t *testing.T) {
	priv, _ := GenerateKey([]byte("enc"))
	digest := sha256.Sum256([]byte("round trip"))
	sig := priv.Sign(digest[:])
	enc := sig.Encode()
	dec, err := DecodeSignature(enc[:])
	if err != nil {
		t.Fatal(err)
	}
	if !dec.R.Equal(sig.R) || !dec.S.Equal(sig.S) {
		t.Fatal("signature encode/decode mismatch")
	}
	if _, err := DecodeSignature(enc[:40]); err == nil {
		t.Fatal("short signature accepted")
	}
	var zero [SignatureSize]byte
	if _, err := DecodeSignature(zero[:]); err == nil {
		t.Fatal("zero signature accepted")
	}
	// Components ≥ N must be rejected, not silently reduced.
	var big [SignatureSize]byte
	nb := nBytes()
	copy(big[:32], nb[:])
	copy(big[32:], enc[32:])
	if _, err := DecodeSignature(big[:]); err == nil {
		t.Fatal("r = N accepted")
	}
}

func TestPointCompression(t *testing.T) {
	for _, seed := range []string{"a", "b", "c", "d"} {
		priv, _ := GenerateKey([]byte(seed))
		enc := priv.Pub.EncodeCompressed()
		dec, err := DecodeCompressed(enc[:])
		if err != nil {
			t.Fatalf("seed %q: %v", seed, err)
		}
		if !dec.Equal(priv.Pub.Point) {
			t.Fatalf("seed %q: compression round trip mismatch", seed)
		}
	}
	// x with no square root must be rejected.
	var bad [CompressedPointSize]byte
	bad[0] = 0x02
	bad[32] = 0x05 // x=5: 5³+7=132 is not a QR mod p for secp256k1
	if _, err := DecodeCompressed(bad[:]); err == nil {
		// If 132 happens to be a QR the decode succeeds but must be on curve.
		pub, _ := DecodeCompressed(bad[:])
		if !pub.OnCurve() {
			t.Fatal("off-curve point decoded")
		}
	}
}

func TestInvalidKeys(t *testing.T) {
	if _, err := NewPrivateKey(Scalar{}); err == nil {
		t.Fatal("zero key accepted")
	}
	if s, ok := NewScalar(nBytes()); ok || !s.IsZero() {
		t.Fatal("scalar = N reported canonical")
	}
}

func TestGenerateKeyDistinct(t *testing.T) {
	a, _ := GenerateKey([]byte("x"))
	b, _ := GenerateKey([]byte("y"))
	if a.D.Equal(b.D) {
		t.Fatal("different seeds produced identical keys")
	}
	a2, _ := GenerateKey([]byte("x"))
	if !a.D.Equal(a2.D) {
		t.Fatal("key generation is not deterministic in the seed")
	}
}

func BenchmarkSign(b *testing.B) {
	priv, _ := GenerateKey([]byte("bench"))
	digest := sha256.Sum256([]byte("bench msg"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priv.Sign(digest[:])
	}
}

func BenchmarkVerify(b *testing.B) {
	priv, _ := GenerateKey([]byte("bench"))
	digest := sha256.Sum256([]byte("bench msg"))
	sig := priv.Sign(digest[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !priv.Pub.Verify(digest[:], sig) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkBaseMult(b *testing.B) {
	k := scalarHex(b, "deadbeefcafebabe0123456789abcdef00000000000000000000000000001234")
	BaseMult(k) // warm table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BaseMult(k)
	}
}

func BenchmarkBaseMultSlow(b *testing.B) {
	k := scalarHex(b, "deadbeefcafebabe0123456789abcdef00000000000000000000000000001234")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BaseMultSlow(k)
	}
}

func TestTableVerifier(t *testing.T) {
	priv, _ := GenerateKey([]byte("tv"))
	tv := NewTableVerifier(priv.Pub)
	digest := sha256.Sum256([]byte("msg"))
	sig := priv.Sign(digest[:])
	if !tv.Verify(digest[:], sig) {
		t.Fatal("table verifier rejected valid signature")
	}
	bad := digest
	bad[5] ^= 1
	if tv.Verify(bad[:], sig) {
		t.Fatal("table verifier accepted wrong digest")
	}
	other, _ := GenerateKey([]byte("tv2"))
	if NewTableVerifier(other.Pub).Verify(digest[:], sig) {
		t.Fatal("table verifier accepted signature under wrong key")
	}
	if NewTableVerifier(PublicKey{}).Verify(digest[:], sig) {
		t.Fatal("infinity-key verifier accepted a signature")
	}
}

func TestTableVerifierMatchesGeneric(t *testing.T) {
	priv, _ := GenerateKey([]byte("cmp"))
	tv := NewTableVerifier(priv.Pub)
	for i := 0; i < 4; i++ {
		digest := sha256.Sum256([]byte{byte(i)})
		sig := priv.Sign(digest[:])
		if tv.Verify(digest[:], sig) != priv.Pub.Verify(digest[:], sig) {
			t.Fatal("table and generic verifiers disagree")
		}
	}
}

func BenchmarkTableVerify(b *testing.B) {
	priv, _ := GenerateKey([]byte("bench"))
	tv := NewTableVerifier(priv.Pub)
	digest := sha256.Sum256([]byte("bench msg"))
	sig := priv.Sign(digest[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tv.Verify(digest[:], sig) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkVerifyFixedKey is the benchgate-tracked name for the fixed-key
// single-signature verification path (same work as BenchmarkTableVerify).
func BenchmarkVerifyFixedKey(b *testing.B) {
	priv, _ := GenerateKey([]byte("bench"))
	tv := NewTableVerifier(priv.Pub)
	digest := sha256.Sum256([]byte("bench msg"))
	sig := priv.Sign(digest[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tv.Verify(digest[:], sig) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkVerifyBatch reports per-signature cost of the batched path
// (batch of 32 per outer iteration).
func BenchmarkVerifyBatch(b *testing.B) {
	priv, _ := GenerateKey([]byte("bench"))
	tv := NewTableVerifier(priv.Pub)
	const batch = 32
	digests := make([][32]byte, batch)
	sigs := make([]Signature, batch)
	for i := range digests {
		digests[i] = sha256.Sum256([]byte{byte(i)})
		sigs[i] = priv.Sign(digests[i][:])
	}
	ok := make([]bool, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tv.VerifyBatchInto(ok, digests, sigs)
		if !ok[0] || !ok[batch-1] {
			b.Fatal("batch verify failed")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/sig")
}

func TestNonceDomainSeparation(t *testing.T) {
	// Different digests must produce different nonces (same key): if two
	// signatures shared a nonce, r would repeat and the key would leak.
	priv, _ := GenerateKey([]byte("nonce"))
	seen := map[[32]byte]bool{}
	for i := 0; i < 16; i++ {
		digest := sha256.Sum256([]byte{byte(i)})
		sig := priv.Sign(digest[:])
		r := sig.R.Bytes()
		if seen[r] {
			t.Fatal("nonce (r value) repeated across distinct digests")
		}
		seen[r] = true
	}
}

func TestDecodeCompressedGenerator(t *testing.T) {
	g := PublicKey{generator()}
	enc := g.EncodeCompressed()
	dec, err := DecodeCompressed(enc[:])
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(g.Point) {
		t.Fatal("generator compression round trip failed")
	}
	// Flipped parity bit decodes to the negated point.
	enc[0] ^= 1
	neg, err := DecodeCompressed(enc[:])
	if err != nil {
		t.Fatal(err)
	}
	if !neg.Equal(Neg(g.Point)) {
		t.Fatal("parity flip did not negate the point")
	}
}
