package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// AuthKind identifies the authenticator variant carried by an aom packet.
type AuthKind uint8

// Authenticator variants.
const (
	AuthNone AuthKind = iota // unstamped packet, sender → sequencer
	AuthHMAC                 // aom-hm: vector of 32-bit HalfSipHash lanes
	AuthPK                   // aom-pk: secp256k1 signature (possibly absent, hash-chained)
)

func (k AuthKind) String() string {
	switch k {
	case AuthNone:
		return "none"
	case AuthHMAC:
		return "hmac"
	case AuthPK:
		return "pk"
	default:
		return fmt.Sprintf("AuthKind(%d)", uint8(k))
	}
}

// AOMHeader is the custom packet header that follows the UDP header in an
// aom deployment (§4.1). The sender fills Group and Digest; the sequencer
// switch fills Epoch, Seq, Chain and the authenticator.
type AOMHeader struct {
	Kind  AuthKind
	Group uint32
	Epoch uint32
	Seq   uint64
	// Digest is the collision-resistant hash of the payload, written by
	// the sender.
	Digest [32]byte
	// Chain is the SHA-256 of the preceding stamped packet in the stream
	// (aom-pk hash chaining, §4.4). Zero for aom-hm.
	Chain [32]byte
	// Signed indicates whether Auth carries a signature (aom-pk with the
	// signing-ratio controller may skip signatures under load).
	Signed bool
	// Subgroup / NumSubgroups describe aom-hm vector packetization: the
	// switch emits one packet per subgroup of 4 receivers, each carrying
	// that subgroup's lanes (§4.3).
	Subgroup     uint8
	NumSubgroups uint8
	// Auth is the authenticator: 4×4-byte HMAC lanes (aom-hm) or a
	// 64-byte secp256k1 signature (aom-pk, when Signed).
	Auth []byte
}

// aomMagic guards against misdelivered packets.
const aomMagic uint16 = 0xA0B1

// errBadMagic is returned when decoding a packet without the aom magic.
var errBadMagic = errors.New("wire: not an aom packet")

// EncodeAOM appends the header and payload to w.
func EncodeAOM(w *Writer, h *AOMHeader, payload []byte) {
	w.U16(aomMagic)
	w.U8(uint8(h.Kind))
	w.Bool(h.Signed)
	w.U8(h.Subgroup)
	w.U8(h.NumSubgroups)
	w.U32(h.Group)
	w.U32(h.Epoch)
	w.U64(h.Seq)
	w.Bytes32(h.Digest)
	w.Bytes32(h.Chain)
	w.VarBytes(h.Auth)
	w.VarBytes(payload)
}

// DecodeAOM parses an aom packet, returning the header and the payload.
// The header's Auth and the payload are read-only views into buf, each
// capped at its own end; the header is the only allocation.
func DecodeAOM(buf []byte) (*AOMHeader, []byte, error) {
	r := NewReader(buf)
	if r.U16() != aomMagic {
		return nil, nil, errBadMagic
	}
	h := &AOMHeader{}
	h.Kind = AuthKind(r.U8())
	h.Signed = r.Bool()
	h.Subgroup = r.U8()
	h.NumSubgroups = r.U8()
	h.Group = r.U32()
	h.Epoch = r.U32()
	h.Seq = r.U64()
	h.Digest = r.Bytes32()
	h.Chain = r.Bytes32()
	h.Auth = r.VarBytes()
	payload := r.VarBytes()
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return h, payload, nil
}

// AuthInputSize is the length of the canonical authenticated byte string:
// group (4) ‖ epoch (4) ‖ seq (8) ‖ digest (32).
const AuthInputSize = 48

// AuthInputInto writes the canonical byte string that the sequencer
// authenticates into buf: group ‖ epoch ‖ seq ‖ digest (§4.1: "the
// concatenated message digest and the sequence number"; group and epoch
// are bound in as well so authenticators cannot be replayed across groups
// or epochs). Writing into a caller-provided (typically stack) buffer
// keeps the per-packet MAC and signature checks allocation-free.
func (h *AOMHeader) AuthInputInto(buf *[AuthInputSize]byte) {
	binary.LittleEndian.PutUint32(buf[0:], h.Group)
	binary.LittleEndian.PutUint32(buf[4:], h.Epoch)
	binary.LittleEndian.PutUint64(buf[8:], h.Seq)
	copy(buf[16:], h.Digest[:])
}

// AuthInput returns the canonical authenticated byte string as a fresh
// slice. Prefer AuthInputInto on hot paths.
func (h *AOMHeader) AuthInput() []byte {
	var buf [AuthInputSize]byte
	h.AuthInputInto(&buf)
	return buf[:]
}

// PacketHash returns the SHA-256 of the stamped packet identity used as a
// hash-chain link: it covers the authenticated fields plus the previous
// chain value, so validating the chain in reverse order (§4.4) validates
// every link's ordering and content. Allocation-free: the 80-byte
// preimage lives on the stack.
func (h *AOMHeader) PacketHash() [32]byte {
	var buf [AuthInputSize + 32]byte
	h.AuthInputInto((*[AuthInputSize]byte)(buf[:AuthInputSize]))
	copy(buf[AuthInputSize:], h.Chain[:])
	return sha256.Sum256(buf[:])
}

// Digest computes the sender-side payload digest.
func Digest(payload []byte) [32]byte { return sha256.Sum256(payload) }
