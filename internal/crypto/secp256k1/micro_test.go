package secp256k1

import "testing"

func BenchmarkFieldMul(b *testing.B) {
	x := fieldElem{0x59F2815B16F81798, 0x029BFCDB2DCE28D9, 0x55A06295CE870B07, 0x79BE667EF9DCBBAC}
	y := fieldElem{0x9C47D08FFB10D4B8, 0xFD17B448A6855419, 0x5DA4FBFC0E1108A8, 0x483ADA7726A3C465}
	var z fieldElem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.mul(&x, &y)
	}
	_ = z
}

// BenchmarkScInv, like BenchmarkFieldInv, feeds each inverse into the
// next call, so the variable-time inversion never sees a repeated input.
func BenchmarkScInv(b *testing.B) {
	s := scalarU64(0xdeadbeefcafebabe)
	for i := 0; i < b.N; i++ {
		s = scInv(s)
	}
}

func BenchmarkAddMixed(b *testing.B) {
	g := generator()
	var j jacPoint
	j.setAffine(g)
	j.double(&j)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.addMixed(&j, &g)
	}
}

// BenchmarkFieldInv and BenchmarkAddAffine, with BenchmarkAddMixed, are
// the inputs of affineMinPairs: an affine tree level pays one field
// inversion and saves AddMixed − AddAffine per pair.
func BenchmarkFieldInv(b *testing.B) {
	x := fieldElem{0x59F2815B16F81798, 0x029BFCDB2DCE28D9, 0x55A06295CE870B07, 0x79BE667EF9DCBBAC}
	for i := 0; i < b.N; i++ {
		x.inv(&x)
	}
}

// BenchmarkAddAffine is the per-pair cost of a large affine tree level:
// the addition plus its 3M share of Montgomery's trick, without the one
// inversion.
func BenchmarkAddAffine(b *testing.B) {
	g := generator()
	p := Double(g)
	var dx, acc, t fieldElem
	acc = fieldElem{1}
	for i := 0; i < b.N; i++ {
		dx.sub(&g.x, &p.x)
		acc.mul(&acc, &dx) // forward prefix product
		t.mul(&acc, &dx)   // backward: this pair's inverse
		acc.mul(&acc, &t)  // backward: peel the running inverse
		addAffine(&p, &p, &g, &t)
	}
}
