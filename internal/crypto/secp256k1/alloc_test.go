package secp256k1

import (
	"crypto/sha256"
	"testing"
)

// The fixed-key verify path sits on the aom-pk hot path: every sequenced
// packet goes through TableVerifier.Verify (or VerifyBatchInto), and the
// sequencer signs every stamped packet. After the one-time table build
// neither may allocate, or GC pressure shows up as commit-latency jitter
// at high load.

func TestVerifyZeroAlloc(t *testing.T) {
	priv, err := GenerateKey([]byte("alloc-guard-key"))
	if err != nil {
		t.Fatal(err)
	}
	tv := NewTableVerifier(priv.Pub)
	digest := sha256.Sum256([]byte("alloc guard message"))
	sig := priv.Sign(digest[:])
	if !tv.Verify(digest[:], sig) {
		t.Fatal("signature did not verify")
	}

	allocs := testing.AllocsPerRun(100, func() {
		if !tv.Verify(digest[:], sig) {
			t.Fatal("signature did not verify")
		}
	})
	if allocs != 0 {
		t.Fatalf("fixed-key Verify allocates %.1f times per op, want 0", allocs)
	}
}

func TestGenericVerifyZeroAlloc(t *testing.T) {
	priv, err := GenerateKey([]byte("alloc-guard-key-2"))
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("another alloc guard message"))
	sig := priv.Sign(digest[:])
	// Warm the lazily built generator table before measuring.
	if !priv.Pub.Verify(digest[:], sig) {
		t.Fatal("signature did not verify")
	}

	allocs := testing.AllocsPerRun(100, func() {
		if !priv.Pub.Verify(digest[:], sig) {
			t.Fatal("signature did not verify")
		}
	})
	if allocs != 0 {
		t.Fatalf("generic Verify allocates %.1f times per op, want 0", allocs)
	}
}

// VerifyBatchInto with caller-owned buffers keeps its scratch on the
// stack; guard against per-call heap growth with a small flat bound.
func TestVerifyBatchAllocBound(t *testing.T) {
	priv, err := GenerateKey([]byte("alloc-guard-key-3"))
	if err != nil {
		t.Fatal(err)
	}
	tv := NewTableVerifier(priv.Pub)
	const n = 32
	digests := make([][32]byte, n)
	sigs := make([]Signature, n)
	for i := range digests {
		digests[i] = sha256.Sum256([]byte{byte(i)})
		sigs[i] = priv.Sign(digests[i][:])
	}
	ok := make([]bool, n)
	tv.VerifyBatchInto(ok, digests, sigs)

	allocs := testing.AllocsPerRun(20, func() {
		tv.VerifyBatchInto(ok, digests, sigs)
	})
	if allocs > 8 {
		t.Fatalf("VerifyBatchInto allocates %.1f times per batch of %d, want <= 8", allocs, n)
	}
}

func TestSignZeroAlloc(t *testing.T) {
	priv, err := GenerateKey([]byte("alloc-guard-key-4"))
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("sign alloc guard message"))
	priv.Sign(digest[:]) // warm the generator table

	allocs := testing.AllocsPerRun(100, func() {
		priv.Sign(digest[:])
	})
	if allocs != 0 {
		t.Fatalf("Sign allocates %.1f times per op, want 0", allocs)
	}
}

// Both inversions run on every signature and every affine tree level.
func TestInvZeroAlloc(t *testing.T) {
	x := fieldElem{0x59F2815B16F81798, 0x029BFCDB2DCE28D9, 0x55A06295CE870B07, 0x79BE667EF9DCBBAC}
	if allocs := testing.AllocsPerRun(100, func() { x.inv(&x) }); allocs != 0 {
		t.Fatalf("fieldElem.inv allocates %.1f times per op, want 0", allocs)
	}
	s := scalarU64(0xdeadbeefcafebabe)
	if allocs := testing.AllocsPerRun(100, func() { s = scInv(s) }); allocs != 0 {
		t.Fatalf("scInv allocates %.1f times per op, want 0", allocs)
	}
}
