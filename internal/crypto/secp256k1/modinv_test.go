package secp256k1

import (
	"math/big"
	"math/rand"
	"testing"
)

// The safegcd inversion is checked against math/big's ModInverse for
// both moduli: structured edge values, random values, and the modulus
// descriptors themselves.

var invModuli = []struct {
	name string
	mi   *modInfo
	m    *big.Int
}{
	{"p", &fieldPInfo, refP},
	{"N", &scalarNInfo, refN},
}

func limbsFromBig(x *big.Int) [4]uint64 {
	var b [32]byte
	x.FillBytes(b[:])
	return be32ToLimbs(&b)
}

func limbsToBig(x *[4]uint64) *big.Int {
	b := limbsToBe32(x)
	return new(big.Int).SetBytes(b[:])
}

// checkInvMod compares invMod(x) with math/big; 0 must map to 0.
func checkInvMod(t testing.TB, mi *modInfo, m, x *big.Int) {
	t.Helper()
	a := limbsFromBig(x)
	got := invMod(&a, mi)
	want := new(big.Int)
	if x.Sign() != 0 {
		want.ModInverse(x, m)
	}
	if limbsToBig(&got).Cmp(want) != 0 {
		t.Fatalf("invMod(%#x) mod %#x = %#x, want %#x", x, m, limbsToBig(&got), want)
	}
}

// invEdgeValues returns structured inputs in [0, m): small values and
// m−1, m−2; every power of two; long runs of ones and zeros; and runs
// that straddle the 62/124/186/248-bit limb boundaries of signed62.
func invEdgeValues(m *big.Int) []*big.Int {
	one := big.NewInt(1)
	pow := func(k int) *big.Int { return new(big.Int).Lsh(one, uint(k)) }
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3),
		new(big.Int).Sub(m, one), new(big.Int).Sub(m, big.NewInt(2)),
		new(big.Int).Rsh(m, 1), new(big.Int).Add(new(big.Int).Rsh(m, 1), one),
	}
	all := new(big.Int).Sub(pow(256), one)
	for k := 0; k < 256; k++ {
		vals = append(vals,
			pow(k),                          // 2ᵏ
			new(big.Int).Sub(pow(k+1), one), // k+1 low ones
			new(big.Int).Sub(m, pow(k)),     // m − 2ᵏ
			new(big.Int).Xor(all, pow(k)),   // all ones but bit k
			new(big.Int).Sub(all, new(big.Int).Sub(pow(k), one)), // ones above k zeros
		)
	}
	for _, b := range []int{62, 124, 186, 248} {
		for _, w := range []int{1, 2, 8, 30} {
			lo := max(b-w, 0)
			hi := min(b+w, 255)
			run := new(big.Int).Sub(pow(hi), pow(lo)) // ones in [lo, hi)
			vals = append(vals, run,
				new(big.Int).Xor(all, run), // zeros in [lo, hi)
				new(big.Int).Add(pow(b), big.NewInt(int64(w))),
				new(big.Int).Sub(pow(b), big.NewInt(int64(w))))
		}
	}
	for _, pat := range []string{"55", "aa", "f0", "0f", "ff00", "00ff", "ffff0000", "0000ffff"} {
		s := ""
		for len(s) < 64 {
			s += pat
		}
		v, _ := new(big.Int).SetString(s[:64], 16)
		vals = append(vals, v)
	}
	for i, v := range vals {
		vals[i] = v.Mod(v, m)
	}
	return vals
}

func TestInvModEdgeValues(t *testing.T) {
	for _, mod := range invModuli {
		t.Run(mod.name, func(t *testing.T) {
			for _, x := range invEdgeValues(mod.m) {
				checkInvMod(t, mod.mi, mod.m, x)
			}
		})
	}
}

func TestInvModMatchesBig(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	for i, mod := range invModuli {
		t.Run(mod.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			x := new(big.Int)
			var b [32]byte
			for i := 0; i < n; i++ {
				rng.Read(b[:])
				x.SetBytes(b[:])
				x.Mod(x, mod.m)
				checkInvMod(t, mod.mi, mod.m, x)
			}
		})
	}
}

// TestInvModDescriptors checks that each signed-62 modulus is the limb
// modulus it stands for and that mInv62 is its inverse mod 2⁶².
func TestInvModDescriptors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mi    *modInfo
		limbs [4]uint64
	}{
		{"p", &fieldPInfo, fieldP},
		{"N", &scalarNInfo, scalarN},
	} {
		m := new(big.Int)
		for i := 4; i >= 0; i-- {
			m.Lsh(m, 62)
			m.Add(m, big.NewInt(tc.mi.m[i]))
		}
		if want := limbsToBig(&tc.limbs); m.Cmp(want) != 0 {
			t.Errorf("%s: signed62 modulus = %#x, want %#x", tc.name, m, want)
		}
		if got := uint64(tc.mi.m[0]) * tc.mi.mInv62 & mask62; got != 1 {
			t.Errorf("%s: m·mInv62 ≡ %#x (mod 2⁶²), want 1", tc.name, got)
		}
		if s := toSigned62(&tc.limbs); fromSigned62(&s) != tc.limbs {
			t.Errorf("%s: signed62 round trip changed the modulus", tc.name)
		}
	}
}

// FuzzInverse inverts one value modulo both p and N and checks each
// against math/big.
func FuzzInverse(f *testing.F) {
	one := big.NewInt(1)
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(one, k) }
	for _, x := range []*big.Int{
		big.NewInt(0), one, big.NewInt(2),
		new(big.Int).Sub(refP, one), new(big.Int).Sub(refP, big.NewInt(2)),
		new(big.Int).Sub(refN, one), new(big.Int).Sub(refN, big.NewInt(2)),
		pow(62), new(big.Int).Sub(pow(124), one), new(big.Int).Add(pow(186), one),
		new(big.Int).Sub(pow(252), pow(244)), // ones across the 248-bit boundary
		new(big.Int).Sub(pow(256), one),
	} {
		f.Add(x.FillBytes(make([]byte, 32)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [32]byte
		copy(b[:], data)
		for _, mod := range invModuli {
			x := new(big.Int).SetBytes(b[:])
			checkInvMod(t, mod.mi, mod.m, x.Mod(x, mod.m))
		}
	})
}
