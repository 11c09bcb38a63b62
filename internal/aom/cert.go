// Package aom implements libAOM, the application-level library of the
// authenticated ordered multicast primitive (§3.2, §4 of the paper).
//
// Senders wrap payloads in aom headers and address them to the group's
// sequencer switch. Receivers verify authenticators, reassemble HMAC
// vectors, validate aom-pk hash chains, deliver messages in sequence
// number order, emit drop-notifications for gaps, and — in deployments
// that do not trust the network — run the confirm exchange that tolerates
// equivocating sequencers. Every delivered message carries an ordering
// certificate that any other receiver can verify independently
// (transferable authentication).
package aom

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"neobft/internal/crypto/auth"
	"neobft/internal/crypto/secp256k1"
	"neobft/internal/crypto/siphash"
	"neobft/internal/wire"
)

// ChainLink is one header in an aom-pk hash-chain suffix: the minimal
// fields needed to recompute packet hashes while walking the chain from
// a chain-authenticated packet to a verified signature.
type ChainLink struct {
	Seq    uint64
	Digest [32]byte
	Chain  [32]byte
	Signed bool
	Sig    []byte
}

// ConfirmSig is one receiver's signed confirmation of (seq, hash) — part
// of a Byzantine-network ordering certificate (§4.2).
type ConfirmSig struct {
	Sender int
	Tag    []byte
}

// OrderingCert proves that an aom message was sequenced by the network
// primitive at a particular position. It is transferable: any receiver in
// the group can verify it (§3.2). NeoBFT stores one per log slot and
// ships them in query-replies and gap-recv messages.
type OrderingCert struct {
	Kind    wire.AuthKind
	Group   uint32
	Epoch   uint32
	Seq     uint64
	Digest  [32]byte
	Payload []byte

	// HMACVector is the full assembled lane vector (aom-hm).
	HMACVector []byte

	// Chain/Signed/Sig are the packet's own chain state (aom-pk).
	Chain  [32]byte
	Signed bool
	Sig    []byte
	// Suffix holds headers Seq+1 .. s where s is a packet whose signature
	// the delivering receiver verified, authenticating the packet through
	// the hash chain (§4.4). It is empty for a packet authenticated by its
	// own signature; links before s may be signed.
	Suffix []ChainLink

	// Confirms holds 2f+1 receiver confirmations (Byzantine-network mode).
	Confirms []ConfirmSig
}

// Header reconstructs the wire header the certificate describes.
func (c *OrderingCert) Header() *wire.AOMHeader {
	return &wire.AOMHeader{
		Kind: c.Kind, Group: c.Group, Epoch: c.Epoch, Seq: c.Seq,
		Digest: c.Digest, Chain: c.Chain, Signed: c.Signed,
	}
}

// PacketHash returns the hash-chain link value of the certified packet.
func (c *OrderingCert) PacketHash() [32]byte { return c.Header().PacketHash() }

// Marshal encodes the certificate.
func (c *OrderingCert) Marshal() []byte {
	w := wire.NewWriter(256 + len(c.Payload))
	w.U8(uint8(c.Kind))
	w.U32(c.Group)
	w.U32(c.Epoch)
	w.U64(c.Seq)
	w.Bytes32(c.Digest)
	w.VarBytes(c.Payload)
	w.VarBytes(c.HMACVector)
	w.Bytes32(c.Chain)
	w.Bool(c.Signed)
	w.VarBytes(c.Sig)
	w.U32(uint32(len(c.Suffix)))
	for _, l := range c.Suffix {
		w.U64(l.Seq)
		w.Bytes32(l.Digest)
		w.Bytes32(l.Chain)
		w.Bool(l.Signed)
		w.VarBytes(l.Sig)
	}
	w.U32(uint32(len(c.Confirms)))
	for _, cf := range c.Confirms {
		w.U32(uint32(cf.Sender))
		w.VarBytes(cf.Tag)
	}
	return w.Bytes()
}

// UnmarshalCert decodes a certificate.
func UnmarshalCert(buf []byte) (*OrderingCert, error) {
	r := wire.NewReader(buf)
	c := &OrderingCert{}
	c.Kind = wire.AuthKind(r.U8())
	c.Group = r.U32()
	c.Epoch = r.U32()
	c.Seq = r.U64()
	c.Digest = r.Bytes32()
	c.Payload = append([]byte(nil), r.VarBytes()...)
	c.HMACVector = append([]byte(nil), r.VarBytes()...)
	c.Chain = r.Bytes32()
	c.Signed = r.Bool()
	c.Sig = append([]byte(nil), r.VarBytes()...)
	nLinks := r.U32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nLinks > 1<<20 {
		return nil, errors.New("aom: unreasonable suffix length")
	}
	c.Suffix = make([]ChainLink, nLinks)
	for i := range c.Suffix {
		c.Suffix[i].Seq = r.U64()
		c.Suffix[i].Digest = r.Bytes32()
		c.Suffix[i].Chain = r.Bytes32()
		c.Suffix[i].Signed = r.Bool()
		c.Suffix[i].Sig = append([]byte(nil), r.VarBytes()...)
	}
	nConf := r.U32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nConf > 1<<16 {
		return nil, errors.New("aom: unreasonable confirm count")
	}
	c.Confirms = make([]ConfirmSig, nConf)
	for i := range c.Confirms {
		c.Confirms[i].Sender = int(r.U32())
		c.Confirms[i].Tag = append([]byte(nil), r.VarBytes()...)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// confirmInput is the byte string a receiver authenticates when
// confirming (seq, hash) for a group/epoch.
func confirmInput(group, epoch uint32, seq uint64, hash [32]byte) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, "aom-confirm/v1"...)
	buf = binary.LittleEndian.AppendUint32(buf, group)
	buf = binary.LittleEndian.AppendUint32(buf, epoch)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, hash[:]...)
	return buf
}

// CertVerifier validates ordering certificates for one receiver in one
// epoch. It is what makes aom authentication *transferable*: a replica
// builds one CertVerifier from the epoch's credentials and can then check
// certificates received from any other replica.
type CertVerifier struct {
	// Variant is the expected authenticator kind.
	Variant wire.AuthKind
	// Group and Epoch pin the certificate scope.
	Group uint32
	Epoch uint32
	// SelfIndex and HMACKey identify this receiver's lane (aom-hm).
	SelfIndex int
	HMACKey   siphash.HalfKey
	// PK verifies sequencer signatures (aom-pk).
	PK *secp256k1.TableVerifier
	// Byzantine requires 2f+1 valid confirms in every certificate.
	Byzantine bool
	N, F      int
	// Auth verifies confirm tags (Byzantine mode).
	Auth auth.Authenticator
}

// Verify checks a certificate end to end. A nil error means any correct
// receiver may treat the certified payload as delivered by aom at
// (epoch, seq).
func (v *CertVerifier) Verify(c *OrderingCert) error {
	if c == nil {
		return errors.New("aom: nil certificate")
	}
	if c.Kind != v.Variant {
		return fmt.Errorf("aom: certificate kind %v, want %v", c.Kind, v.Variant)
	}
	if c.Group != v.Group || c.Epoch != v.Epoch {
		return fmt.Errorf("aom: certificate scope %d/%d, want %d/%d", c.Group, c.Epoch, v.Group, v.Epoch)
	}
	if wire.Digest(c.Payload) != c.Digest {
		return errors.New("aom: payload does not match digest")
	}
	switch c.Kind {
	case wire.AuthHMAC:
		if err := v.verifyHMAC(c); err != nil {
			return err
		}
	case wire.AuthPK:
		if err := v.verifyPK(c); err != nil {
			return err
		}
	default:
		return fmt.Errorf("aom: unverifiable kind %v", c.Kind)
	}
	if v.Byzantine {
		return v.verifyConfirms(c)
	}
	return nil
}

func (v *CertVerifier) verifyHMAC(c *OrderingCert) error {
	if len(c.HMACVector) < 4*(v.SelfIndex+1) {
		return errors.New("aom: HMAC vector too short for this receiver's lane")
	}
	input := c.Header().AuthInput()
	want := siphash.Sum32(v.HMACKey, input)
	got := binary.LittleEndian.Uint32(c.HMACVector[4*v.SelfIndex:])
	if got != want {
		return errors.New("aom: HMAC lane mismatch")
	}
	return nil
}

// verifyPK accepts an aom-pk certificate by its own signature or, when
// that is absent or fails, by walking a non-empty Suffix whose last link
// is signed: links in between may be signed or not, and only the last
// link's signature is checked.
func (v *CertVerifier) verifyPK(c *OrderingCert) error {
	if v.PK == nil {
		return errors.New("aom: no sequencer public key installed")
	}
	h := c.PacketHash()
	if c.Signed {
		err := v.verifySig(h, c.Sig)
		if err == nil || len(c.Suffix) == 0 {
			return err
		}
	} else if len(c.Suffix) == 0 {
		return errors.New("aom: unsigned certificate without chain suffix")
	}
	seq := c.Seq
	for i, l := range c.Suffix {
		if l.Seq != seq+1 {
			return fmt.Errorf("aom: suffix link %d has seq %d, want %d", i, l.Seq, seq+1)
		}
		if l.Chain != h {
			return fmt.Errorf("aom: chain broken at link %d", i)
		}
		hdr := wire.AOMHeader{
			Kind: c.Kind, Group: c.Group, Epoch: c.Epoch,
			Seq: l.Seq, Digest: l.Digest, Chain: l.Chain,
		}
		h = hdr.PacketHash()
		seq = l.Seq
	}
	last := c.Suffix[len(c.Suffix)-1]
	if !last.Signed {
		return errors.New("aom: chain suffix ends without a signature")
	}
	if err := v.verifySig(h, last.Sig); err != nil {
		return fmt.Errorf("aom: suffix: %w", err)
	}
	return nil
}

// verifySig checks an encoded sequencer signature over a packet hash.
func (v *CertVerifier) verifySig(h [32]byte, enc []byte) error {
	sig, err := secp256k1.DecodeSignature(enc)
	if err != nil {
		return fmt.Errorf("aom: signature: %w", err)
	}
	if !v.PK.Verify(h[:], sig) {
		return errors.New("aom: sequencer signature invalid")
	}
	return nil
}

func (v *CertVerifier) verifyConfirms(c *OrderingCert) error {
	if v.Auth == nil {
		return errors.New("aom: no authenticator for confirm verification")
	}
	need := 2*v.F + 1
	hash := c.PacketHash()
	input := confirmInput(c.Group, c.Epoch, c.Seq, hash)
	seen := make(map[int]bool, len(c.Confirms))
	valid := 0
	for _, cf := range c.Confirms {
		if cf.Sender < 0 || cf.Sender >= v.N || seen[cf.Sender] {
			continue
		}
		if !v.Auth.VerifyVector(cf.Sender, input, cf.Tag) {
			continue
		}
		seen[cf.Sender] = true
		valid++
	}
	if valid < need {
		return fmt.Errorf("aom: %d valid confirms, need %d", valid, need)
	}
	return nil
}

// Equal reports whether two certificates certify the same message at the
// same position (ignoring which confirms/suffix they carry).
func (c *OrderingCert) Equal(o *OrderingCert) bool {
	return c != nil && o != nil && c.Group == o.Group && c.Epoch == o.Epoch &&
		c.Seq == o.Seq && c.Digest == o.Digest && bytes.Equal(c.Payload, o.Payload)
}
