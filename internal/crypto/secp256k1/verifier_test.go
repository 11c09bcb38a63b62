package secp256k1

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// batchCase is one (digest, signature) entry with the verdict the math/big
// reference gives it.
type batchCase struct {
	digest [32]byte
	sig    Signature
	want   bool
}

// refCase builds a batchCase, checking the generic verifier against the
// reference on the way.
func refCase(t *testing.T, priv *PrivateKey, digest [32]byte, sig Signature) batchCase {
	t.Helper()
	want := refVerify(pointToRef(priv.Pub.Point), digest[:], scalarToBig(sig.R), scalarToBig(sig.S))
	if got := priv.Pub.Verify(digest[:], sig); got != want {
		t.Fatalf("generic Verify = %v, reference = %v (digest %x)", got, want, digest)
	}
	return batchCase{digest, sig, want}
}

// checkBatch runs cases through VerifyBatchInto and compares each verdict
// with the reference's.
func checkBatch(t *testing.T, tv *TableVerifier, cases []batchCase, label string) {
	t.Helper()
	digests := make([][32]byte, len(cases))
	sigs := make([]Signature, len(cases))
	for i, c := range cases {
		digests[i], sigs[i] = c.digest, c.sig
	}
	ok := make([]bool, len(cases))
	tv.VerifyBatchInto(ok, digests, sigs)
	for i, c := range cases {
		if ok[i] != c.want {
			t.Fatalf("%s: entry %d of %d: VerifyBatchInto = %v, reference = %v", label, i, len(cases), ok[i], c.want)
		}
	}
}

// TestVerifyBatch checks every batch size from 1 to 33 with each kind of
// invalid entry at every position against the math/big reference.
func TestVerifyBatch(t *testing.T) {
	priv, _ := GenerateKey([]byte("batch"))
	tv := NewTableVerifier(priv.Pub)
	const maxN = 33
	valid := make([]batchCase, maxN)
	for i := range valid {
		d := sha256.Sum256([]byte{byte(i), 0x42})
		valid[i] = refCase(t, priv, d, priv.Sign(d[:]))
		if !valid[i].want {
			t.Fatalf("reference rejected valid signature %d", i)
		}
	}
	// bad[k][p] is corruption kind k of the valid entry at position p.
	kinds := []string{"wrong r", "zero s", "wrong digest", "signature for another digest"}
	bad := make([][]batchCase, len(kinds))
	for k := range kinds {
		bad[k] = make([]batchCase, maxN)
		for p, c := range valid {
			d, sig := c.digest, c.sig
			switch k {
			case 0:
				sig.R = scAdd(sig.R, scalarU64(1))
			case 1:
				sig.S = Scalar{}
			case 2:
				d[3] ^= 0x80
			case 3:
				sig = valid[(p+1)%maxN].sig
			}
			bad[k][p] = refCase(t, priv, d, sig)
			if bad[k][p].want {
				t.Fatalf("reference accepted %s at %d", kinds[k], p)
			}
		}
	}

	// Each batch corrupts every third position from an offset, so three
	// batches per size and kind put that kind at every position.
	const stride = 3
	cases := make([]batchCase, maxN)
	for n := 1; n <= maxN; n++ {
		checkBatch(t, tv, valid[:n], fmt.Sprintf("all valid, n=%d", n))
		for k, kind := range kinds {
			for off := 0; off < stride && off < n; off++ {
				copy(cases, valid[:n])
				for p := off; p < n; p += stride {
					cases[p] = bad[k][p]
				}
				checkBatch(t, tv, cases[:n], fmt.Sprintf("%s at %d+%dk, n=%d", kind, off, stride, n))
			}
		}
	}

	// Empty batch and infinity-key verifier are safe.
	tv.VerifyBatchInto(nil, nil, nil)
	ok := []bool{true, true}
	digests := [][32]byte{valid[0].digest, valid[1].digest}
	NewTableVerifier(PublicKey{}).VerifyBatchInto(ok, digests, []Signature{valid[0].sig, valid[1].sig})
	if ok[0] || ok[1] {
		t.Fatal("infinity-key verifier accepted a batched signature")
	}
}

// degenerateCases builds, under the key d = 1 (Q = G), signatures whose
// u1 and u2 put equal or opposite points into the tree: u1 = u2 = one
// nonzero byte, so the first pair is a doubling (a valid signature), and
// u2 = N − u1, so the two halves cancel (rejected).
func degenerateCases(t *testing.T, priv *PrivateKey) []batchCase {
	u1 := scMul(scalarU64(0x5a), scalarU64(1<<24)) // byte 0x5a in window 3

	// Doubling: R = 2·u1·G, digest = r, s = r·u1⁻¹ gives u1 = u2.
	R := BaseMult(scAdd(u1, u1))
	r := fieldToScalar(&R.x)
	dbl := refCase(t, priv, r.Bytes(), Signature{R: r, S: scMul(r, scInv(u1))})
	if !dbl.want {
		t.Fatal("reference rejected the doubling signature")
	}

	// Cancellation: u2 = N − u1 with r fixed; s = r·u2⁻¹, z = u1·s.
	u2 := scNeg(u1)
	r = scalarU64(0x1234567)
	s := scMul(r, scInv(u2))
	cancel := refCase(t, priv, scMul(u1, s).Bytes(), Signature{R: r, S: s})
	if cancel.want {
		t.Fatal("reference accepted the cancelling signature")
	}
	return []batchCase{dbl, cancel}
}

// TestVerifyDegeneratePairs checks inputs whose affine tree meets a
// doubling or P + (−P), alone and inside a batch of 16 valid signatures,
// where the affine levels run.
func TestVerifyDegeneratePairs(t *testing.T) {
	priv, err := NewPrivateKey(scalarU64(1))
	if err != nil {
		t.Fatal(err)
	}
	tv := NewTableVerifier(priv.Pub)
	valid := make([]batchCase, 16)
	for i := range valid {
		d := sha256.Sum256([]byte{byte(i), 0xde})
		valid[i] = refCase(t, priv, d, priv.Sign(d[:]))
	}
	for ci, c := range degenerateCases(t, priv) {
		if got := tv.Verify(c.digest[:], c.sig); got != c.want {
			t.Fatalf("case %d alone: Verify = %v, reference = %v", ci, got, c.want)
		}
		checkBatch(t, tv, []batchCase{c}, fmt.Sprintf("case %d, batch of one", ci))
		for p := 0; p <= len(valid); p++ {
			cases := append(append(append([]batchCase{}, valid[:p]...), c), valid[p:]...)
			checkBatch(t, tv, cases, fmt.Sprintf("case %d at %d of 17", ci, p))
		}
	}
}

// TestAffineLevelDegenerate drives one tree level directly: a signature
// whose pair is P + P or P + (−P) leaves the tree, and the others' sums
// are still right.
func TestAffineLevelDegenerate(t *testing.T) {
	p := BaseMult(scalarU64(7))
	q := BaseMult(scalarU64(11))
	u := BaseMult(scalarU64(13))
	inputs := [][]Point{
		{q, u, p, q, u},
		{p, p},            // doubling
		{q, u, p, Neg(p)}, // cancellation in the second pair
		{u, q, p},
	}
	var sc verifyScratch
	for i, pts := range inputs {
		sc.n[i] = copy(sc.pts[i*sigPoints:], pts)
	}
	sc.affineLevel(len(inputs))
	if sc.n[1] != 0 || sc.n[2] != 0 {
		t.Fatalf("degenerate signatures stayed in the tree: n = %v", sc.n[:len(inputs)])
	}
	want := [][]Point{
		{Add(q, u), Add(p, q), u},
		nil,
		nil,
		{Add(u, q), p},
	}
	for i, w := range want {
		got := sc.points(i)
		if len(got) != len(w) {
			t.Fatalf("signature %d: %d points after the level, want %d", i, len(got), len(w))
		}
		for j := range w {
			if !got[j].Equal(w[j]) {
				t.Fatalf("signature %d point %d: affine sum differs from Add", i, j)
			}
		}
	}
}

// TestVerifyConcurrent shares one TableVerifier among goroutines calling
// Verify and VerifyBatchInto (run it under -race).
func TestVerifyConcurrent(t *testing.T) {
	priv, _ := GenerateKey([]byte("concurrent"))
	tv := NewTableVerifier(priv.Pub)
	const n = 12
	digests := make([][32]byte, n)
	sigs := make([]Signature, n)
	for i := range digests {
		digests[i] = sha256.Sum256([]byte{byte(i), 0xcc})
		sigs[i] = priv.Sign(digests[i][:])
	}
	sigs[5].S = scAdd(sigs[5].S, scalarU64(1))

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ok := make([]bool, n)
			for iter := 0; iter < 3; iter++ {
				tv.VerifyBatchInto(ok, digests, sigs)
				for i := range ok {
					if ok[i] != (i != 5) {
						errs <- fmt.Sprintf("goroutine %d: batch entry %d = %v", g, i, ok[i])
						return
					}
				}
				i := (g + iter) % n
				if tv.Verify(digests[i][:], sigs[i]) != (i != 5) {
					errs <- fmt.Sprintf("goroutine %d: Verify(%d) wrong", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkVerifyBatchSizes reports the per-signature cost of
// VerifyBatchInto at the batch sizes the replica runtime produces. Each
// size rotates through 64 distinct batches, as BenchmarkVerifyN1 does,
// so the variable-time inversions never see a repeated input.
func BenchmarkVerifyBatchSizes(b *testing.B) {
	priv, _ := GenerateKey([]byte("bench"))
	tv := NewTableVerifier(priv.Pub)
	const batches = 64
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		digests := make([][32]byte, batches*n)
		sigs := make([]Signature, batches*n)
		for i := range digests {
			digests[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8), 2})
			sigs[i] = priv.Sign(digests[i][:])
		}
		ok := make([]bool, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % batches * n
				tv.VerifyBatchInto(ok, digests[j:j+n], sigs[j:j+n])
				if !ok[n-1] {
					b.Fatal("batch verify failed")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/sig")
		})
	}
}

// BenchmarkVerifyN1 compares the two ways to verify a lone signature,
// the common case once chain-linked runs need one signature each: tree
// is the affine-tree path every VerifyBatchInto call takes (Verify is a
// batch of one), jacobian checks the range, inverts s once and sums
// u1·G + u2·Q with Jacobian mixed additions only. Both rotate through 64
// signatures so no input stays hot.
func BenchmarkVerifyN1(b *testing.B) {
	priv, _ := GenerateKey([]byte("bench"))
	tv := NewTableVerifier(priv.Pub)
	const n = 64
	digests := make([][32]byte, n)
	sigs := make([]Signature, n)
	for i := range digests {
		digests[i] = sha256.Sum256([]byte{byte(i), 1})
		sigs[i] = priv.Sign(digests[i][:])
	}
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !tv.Verify(digests[i%n][:], sigs[i%n]) {
				b.Fatal("tree verify failed")
			}
		}
	})
	b.Run("jacobian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, sig := digests[i%n], sigs[i%n]
			if !sigRangeOK(sig) {
				b.Fatal("signature out of range")
			}
			w := scInv(sig.S)
			u1 := scMul(NewScalarReduced(hashBytes32(d[:])), w)
			u2 := scMul(sig.R, w)
			if !tv.verifyJacobian(u1, u2, sig.R) {
				b.Fatal("jacobian verify failed")
			}
		}
	})
}
