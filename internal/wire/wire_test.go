package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.Bool(true)
	w.Bool(false)
	var b32 [32]byte
	for i := range b32 {
		b32[i] = byte(i)
	}
	w.Bytes32(b32)
	w.VarBytes([]byte("hello"))
	w.VarBytes(nil)
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.U16(); got != 0xbeef {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := r.Bytes32(); got != b32 {
		t.Fatal("Bytes32 mismatch")
	}
	if got := r.VarBytes(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("VarBytes = %q", got)
	}
	if got := r.VarBytes(); len(got) != 0 {
		t.Fatalf("empty VarBytes = %q", got)
	}
	if got := r.Raw(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestVarAppendMatchesVarBytes: a value appended in place encodes as the
// same value passed to VarBytes, behind whatever the buffer held, and a
// VarAppendIf that declines leaves the buffer as it was.
func TestVarAppendMatchesVarBytes(t *testing.T) {
	for _, v := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("ab"), 300)} {
		want := NewWriter(0)
		want.U8(9)
		want.VarBytes(v)
		got := AppendTo([]byte{9})
		got.VarAppend(func(buf []byte) []byte { return append(buf, v...) })
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("len %d: VarAppend %x, VarBytes %x", len(v), got.Bytes(), want.Bytes())
		}
		got = AppendTo([]byte{9})
		if !got.VarAppendIf(func(buf []byte) ([]byte, bool) { return append(buf, v...), true }) || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("len %d: VarAppendIf %x, VarBytes %x", len(v), got.Bytes(), want.Bytes())
		}
		if got.VarAppendIf(func(buf []byte) ([]byte, bool) { return append(buf, v...), false }) || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("len %d: a declined VarAppendIf left %x", len(v), got.Bytes())
		}
	}
}

func TestGrow(t *testing.T) {
	roomy := make([]byte, 2, 16)
	if got := Grow(roomy, 10); &got[:1][0] != &roomy[:1][0] {
		t.Fatal("Grow reallocated a buffer with room")
	}
	got := Grow([]byte("ab"), 10)
	if string(got) != "ab" || cap(got) != 12 {
		t.Fatalf("Grow = %q cap %d, want \"ab\" cap 12", got, cap(got))
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32()
	if r.Err() != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
	// Sticky: further reads keep failing and return zero values.
	if r.U64() != 0 || r.Err() != ErrTruncated {
		t.Fatal("error not sticky")
	}
}

func TestReaderVarBytesHugeLength(t *testing.T) {
	w := NewWriter(8)
	w.U32(0xffffffff) // length prefix far larger than the buffer
	r := NewReader(w.Bytes())
	if got := r.VarBytes(); got != nil {
		t.Fatalf("VarBytes = %v, want nil", got)
	}
	if r.Err() != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U8()
	if err := r.Done(); err == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

func TestAOMHeaderRoundTrip(t *testing.T) {
	payload := []byte("client request payload")
	h := &AOMHeader{
		Kind:         AuthHMAC,
		Group:        9,
		Epoch:        3,
		Seq:          123456789,
		Digest:       Digest(payload),
		Signed:       true,
		Subgroup:     1,
		NumSubgroups: 2,
		Auth:         []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
	}
	w := NewWriter(256)
	EncodeAOM(w, h, payload)
	got, gotPayload, err := DecodeAOM(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != h.Kind || got.Group != h.Group || got.Epoch != h.Epoch ||
		got.Seq != h.Seq || got.Digest != h.Digest || got.Chain != h.Chain ||
		got.Signed != h.Signed || got.Subgroup != h.Subgroup ||
		got.NumSubgroups != h.NumSubgroups || !bytes.Equal(got.Auth, h.Auth) {
		t.Fatalf("header mismatch: %+v vs %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload mismatch: %q", gotPayload)
	}
}

func TestAOMHeaderBadMagic(t *testing.T) {
	if _, _, err := DecodeAOM([]byte{0, 0, 1, 2, 3}); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, _, err := DecodeAOM(nil); err == nil {
		t.Fatal("empty packet accepted")
	}
}

func TestAOMHeaderTruncated(t *testing.T) {
	payload := []byte("x")
	h := &AOMHeader{Kind: AuthPK, Group: 1, Seq: 5, Digest: Digest(payload)}
	w := NewWriter(128)
	EncodeAOM(w, h, payload)
	full := w.Bytes()
	for i := 1; i < len(full); i++ {
		if _, _, err := DecodeAOM(full[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
}

func TestAuthInputBindsAllFields(t *testing.T) {
	base := AOMHeader{Group: 1, Epoch: 2, Seq: 3, Digest: Digest([]byte("m"))}
	variants := []AOMHeader{base, base, base, base}
	variants[1].Group = 9
	variants[2].Epoch = 9
	variants[3].Seq = 9
	seen := map[string]bool{}
	for _, v := range variants {
		seen[string(v.AuthInput())] = true
	}
	if len(seen) != 4 {
		t.Fatalf("AuthInput collisions across field variants: %d distinct", len(seen))
	}
	changedDigest := base
	changedDigest.Digest = Digest([]byte("other"))
	if bytes.Equal(changedDigest.AuthInput(), base.AuthInput()) {
		t.Fatal("AuthInput does not bind the digest")
	}
}

func TestPacketHashBindsChain(t *testing.T) {
	a := AOMHeader{Group: 1, Epoch: 1, Seq: 1, Digest: Digest([]byte("m"))}
	b := a
	b.Chain = [32]byte{1}
	if a.PacketHash() == b.PacketHash() {
		t.Fatal("PacketHash ignores the chain value")
	}
}

func TestAOMRoundTripProperty(t *testing.T) {
	f := func(group, epoch uint32, seq uint64, payload []byte, auth []byte, signed bool) bool {
		h := &AOMHeader{
			Kind: AuthPK, Group: group, Epoch: epoch, Seq: seq,
			Digest: Digest(payload), Signed: signed, Auth: auth,
		}
		w := NewWriter(64)
		EncodeAOM(w, h, payload)
		got, p2, err := DecodeAOM(w.Bytes())
		if err != nil {
			return false
		}
		return got.Group == group && got.Epoch == epoch && got.Seq == seq &&
			got.Signed == signed && bytes.Equal(p2, payload) && bytes.Equal(got.Auth, auth)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeAOMAllocs pins DecodeAOM to one allocation, the header: Auth
// and the payload are views into the packet, capped so that an append
// to either leaves the packet as it was.
func TestDecodeAOMAllocs(t *testing.T) {
	payload := []byte("payload")
	w := NewWriter(256)
	EncodeAOM(w, &AOMHeader{Kind: AuthHMAC, Seq: 1, Digest: Digest(payload), Auth: make([]byte, 16)}, payload)
	// The packet shares its buffer with the next one, as the messages
	// of one datagram do.
	buf := append(w.Bytes(), "next packet"...)
	pkt := buf[:w.Len()]
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = DecodeAOM(pkt) }); allocs != 1 {
		t.Errorf("DecodeAOM allocates %v times, want 1", allocs)
	}
	h, got, _ := DecodeAOM(pkt)
	before := bytes.Clone(buf)
	grow(h.Auth, got)
	if !bytes.Equal(buf, before) {
		t.Fatal("an append to a decoded field wrote into the buffer")
	}
}

func BenchmarkEncodeAOM(b *testing.B) {
	payload := make([]byte, 64)
	h := &AOMHeader{Kind: AuthHMAC, Group: 1, Seq: 1, Digest: Digest(payload), Auth: make([]byte, 16)}
	w := NewWriter(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		EncodeAOM(w, h, payload)
	}
}

func BenchmarkDecodeAOM(b *testing.B) {
	payload := make([]byte, 64)
	h := &AOMHeader{Kind: AuthHMAC, Group: 1, Seq: 1, Digest: Digest(payload), Auth: make([]byte, 16)}
	w := NewWriter(256)
	EncodeAOM(w, h, payload)
	buf := w.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeAOM(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAuthKindString(t *testing.T) {
	cases := map[AuthKind]string{
		AuthNone:     "none",
		AuthHMAC:     "hmac",
		AuthPK:       "pk",
		AuthKind(42): "AuthKind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestReaderPrefix(t *testing.T) {
	r := NewReader([]byte("hello world"))
	if !r.Prefix("hello") {
		t.Fatal("matching prefix rejected")
	}
	if r.Prefix("xxxxx") {
		t.Fatal("wrong prefix accepted")
	}
	r2 := NewReader([]byte("hi"))
	if r2.Prefix("hello") {
		t.Fatal("short-buffer prefix accepted")
	}
	if r2.Err() == nil {
		t.Fatal("short prefix did not set the sticky error")
	}
}
