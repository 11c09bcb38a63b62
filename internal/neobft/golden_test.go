package neobft

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"neobft/internal/configsvc"
	"neobft/internal/crypto/auth"
	"neobft/internal/crypto/secp256k1"
	"neobft/internal/kvstore"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/transport"
	"neobft/internal/transport/transporttest"
	"neobft/internal/wire"
)

// Golden bytes of every state-synchronisation message, built from fixed
// keys, a fixed snapshot and a hand-ordered certificate. Regenerate only
// for a deliberate wire-format change.
const (
	goldenPersist = "000000000100000001000000010000000000000000000000a20000000400000000000000d2d227f8bb8d9175c03d6cc1" +
		"2b28c8a2d98b63ba157af43157eb81403c465fcc030000000000200000001f9df247a99a86c8e102264bba602ec3cc3f" +
		"637fecde028217ee288863c114b50300000020000000321cf4cb49f04b8dc7bc55445b7277f072250f878a02e3b9efc8" +
		"bffaf530ca680200000020000000e6368ba383061f396b7a19c00c27c3c4ac259677330fe37a6d8634803624f8fbd83f" +
		"f0ec71fdd586e60759f7cdc713a354d6841391a6fde019b99a180a5e58971a0000000e00000001000000010000006b01" +
		"000000760400000000000000"
	goldenSnap = "1e0000000001000000a20000000400000000000000d2d227f8bb8d9175c03d6cc12b28c8a2d98b63ba157af43157eb81" +
		"403c465fcc030000000000200000001f9df247a99a86c8e102264bba602ec3cc3f637fecde028217ee288863c114b503" +
		"00000020000000321cf4cb49f04b8dc7bc55445b7277f072250f878a02e3b9efc8bffaf530ca680200000020000000e6" +
		"368ba383061f396b7a19c00c27c3c4ac259677330fe37a6d8634803624f8fbd83ff0ec71fdd586e60759f7cdc713a354" +
		"d6841391a6fde019b99a180a5e58971a0000000e00000001000000010000006b01000000760400000000000000"
	goldenSync = "1b0100000008000000000000002038ebd54e85d92235b39dbda88148319211d847a801f181b8998ec8e61db337254268" +
		"ae4efa8def2aa329151bda51823ed7a09b82c07b1beecefeace54ce3a6200000001d679205cadec9b9d986f831a14783" +
		"8babfd8c4bf8a193da5425ff028fe7317901000000000000000100000006000000000000000300000002000000200000" +
		"0046071fd945b973055617b7872d1530f0060e48ca67c4dbb808e1c7492a1b4e4d0000000020000000abd529362a80da" +
		"312d63a2ade268f8a15078e0202888622dfc02e7c2ec73df15030000002000000075a8fe9c4d2def042f1fcfa6a9f70a" +
		"3a7260c4970d0e85940f13c43fd5ac8613"
)

// goldenDigest is the checkpoint digest H(domain | slot | parts…),
// encoded by hand so this test does not lean on the code under test.
func goldenDigest(domain string, slot uint64, parts ...[32]byte) [32]byte {
	w := wire.NewWriter(0)
	w.Raw([]byte(domain))
	w.U64(slot)
	for _, p := range parts {
		w.Bytes32(p)
	}
	return sha256.Sum256(w.Bytes())
}

// goldenCert hand-encodes a certificate with the voters' parts in the
// order given; each part authenticates domain | slot | digest | voter.
func goldenCert(auths []auth.Authenticator, domain string, slot uint64, d [32]byte, voters ...uint32) []byte {
	w := wire.NewWriter(0)
	w.U64(slot)
	w.Bytes32(d)
	w.U16(uint16(len(voters)))
	for _, v := range voters {
		body := wire.NewWriter(0)
		body.Raw([]byte(domain))
		body.U64(slot)
		body.Bytes32(d)
		body.U32(v)
		w.U32(v)
		w.VarBytes(auths[v].TagVector(body.Bytes()))
	}
	return w.Bytes()
}

func checkGolden(t *testing.T, what string, got []byte, want string) {
	t.Helper()
	if hex.EncodeToString(got) != want {
		t.Errorf("%s bytes changed:\n got %x\nwant %s", what, got, want)
	}
}

// onlyPacket returns the one packet of a kind the replica sent to to.
func onlyPacket(t *testing.T, rec *transporttest.Recorder, kind uint8, to transport.NodeID) []byte {
	t.Helper()
	var out [][]byte
	for _, p := range rec.Sent(kind) {
		if p.To == to {
			out = append(out, p.Bytes)
		}
	}
	if len(out) != 1 {
		t.Fatalf("sent %d packets of kind %d to node %d, want 1", len(out), kind, to)
	}
	return out[0]
}

// TestSyncWireGolden pins NeoBFT's SYNC (with one gap certificate in its
// trailer), its state snapshot (with the view prefix) and its Persist
// blob (with the epoch table) byte for byte. Replica 1 restores from a
// sync point at slot 4 certified by replicas 0, 3 and 2, serves it, then
// executes slots 5–8 — no-ops, slot 6 gap-certified — and votes at the
// next sync point (interval 4).
func TestSyncWireGolden(t *testing.T) {
	const n, self, domain = 4, 1, "neobft-ckpt"
	members := []transport.NodeID{1, 2, 3, 4}
	auths := make([]auth.Authenticator, n)
	for i := range auths {
		auths[i] = auth.NewHMACAuth([]byte("golden"), i, n)
	}
	svc := configsvc.New(wire.AuthHMAC, []byte("golden-aom"))
	svc.RegisterRemoteSwitch(1000, secp256k1.PublicKey{})
	if _, err := svc.CreateGroup(group, members); err != nil {
		t.Fatal(err)
	}
	app := kvstore.NewStore()
	app.Execute(kvstore.EncodePut("k", []byte("v")))
	state := replication.Capture(app, replication.NewClientTable())
	snap := state.AppendTo(nil)
	view := ViewID{Epoch: 1, Leader: 0}
	logHash := sha256.Sum256([]byte("log hash at 4"))
	blob := wire.NewWriter(0)
	blob.U64(view.Pack())
	blob.U32(1) // epoch table: epoch 1 starts at slot 0
	blob.U32(1)
	blob.U64(0)
	blob.VarBytes(goldenCert(auths, domain, 4, goldenDigest(domain, 4, logHash, state.Digest()), 0, 3, 2))
	blob.Bytes32(logHash)
	blob.VarBytes(snap)

	rec := &transporttest.Recorder{Self: members[self]}
	r := New(Config{
		Config: replica.Config{
			Self: self, N: n, F: 1, Members: members, Conn: rec,
			Auth:               auths[self],
			ClientAuth:         auth.NewReplicaSide([]byte("golden-client"), self),
			App:                kvstore.NewStore(),
			CheckpointInterval: 4,
			Restore:            blob.Bytes(),
		},
		Group:   group,
		Variant: wire.AuthHMAC,
		Svc:     svc,
	})
	defer r.Close()

	checkGolden(t, "Persist", r.Persist(), goldenPersist)

	req := wire.NewWriter(0)
	req.U8(kindStateRequest)
	req.U64(view.Pack())
	req.U64(0) // the requester's log is empty: below our low watermark
	if ev := r.VerifyPacket(members[0], req.Bytes()); ev != nil {
		r.Runtime().Call(func() { r.ApplyEvent(members[0], ev) })
	}
	checkGolden(t, "state snapshot", onlyPacket(t, rec, kindStateSnapshot, members[0]), goldenSnap)

	gap := &GapCert{View: view, Slot: 6}
	for _, v := range []uint32{2, 0, 3} {
		gap.Commits = append(gap.Commits, SignedPart{Replica: v, Tag: auths[v].TagVector(gapCommitBody(view, v, 6, false))})
	}
	r.Runtime().Call(func() {
		for s := uint64(5); s <= 8; s++ {
			e := &logEntry{noOp: true, epoch: 1}
			if s == 6 {
				e.gapCert = gap
			}
			r.appendEntry(e)
		}
		r.executeReady()
	})
	checkGolden(t, "SYNC", onlyPacket(t, rec, kindSync, members[0]), goldenSync)
}
