package zyzzyva

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"neobft/internal/batch"
	"neobft/internal/crypto/auth"
	"neobft/internal/kvstore"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/transport"
	"neobft/internal/transport/transporttest"
	"neobft/internal/wire"
)

// Golden bytes of every checkpoint-path message, built from fixed keys,
// a fixed snapshot and a hand-ordered certificate. Regenerate only for
// a deliberate wire-format change.
const (
	goldenPersist = "a200000008000000000000002c1b64723868cb81dbfd53d788d3f1b7ce01aee60acc6e098ec9f3690545ca9a03000300" +
		"000020000000460c497a02a8b5904bf355184cf7d2b179d40ba314b28eb319f0de599dbc8e0c0000000020000000c8b3" +
		"1a4449079a68ab24aababd4bbb7102afda6c4da269e5c96d8944369446c0020000002000000065151a6b53f3aabad051" +
		"b3410ce8d8f87522e68ea4116f9ad86f91cc906b8943161fbd3f2e0db98943bd61fd1591a08217e1f87a9977bbcd90f9" +
		"da97961931231a0000000e00000001000000010000006b01000000760400000000000000"
	goldenSnap = "16" + goldenPersist
	goldenVote = "14010000000900000000000000cb4d9671ad2315e3b0f1df261206a3a96a5ea16302e998a58710f4af26a8e6f7254268" +
		"ae4efa8def2aa329151bda51823ed7a09b82c07b1beecefeace54ce3a620000000b6a2aac3280b54b45ac8fe413a53ff" +
		"8f15bf15fecf72378b39e660e7cd28c142"
	goldenFetch = "150900000000000000"
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

// goldenTag is replica v's vector authenticator over its checkpoint vote
// body domain | slot | digest | v.
func goldenTag(a auth.Authenticator, domain string, slot uint64, d [32]byte, v uint32) []byte {
	w := wire.NewWriter(0)
	w.Raw([]byte(domain))
	w.U64(slot)
	w.Bytes32(d)
	w.U32(v)
	return a.TagVector(w.Bytes())
}

// goldenCert hand-encodes a certificate with the voters' parts in the
// order given.
func goldenCert(auths []auth.Authenticator, domain string, slot uint64, d [32]byte, voters ...uint32) []byte {
	w := wire.NewWriter(0)
	w.U64(slot)
	w.Bytes32(d)
	w.U16(uint16(len(voters)))
	for _, v := range voters {
		w.U32(v)
		w.VarBytes(goldenTag(auths[v], domain, slot, d, v))
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

// TestCheckpointWireGolden pins Zyzzyva's checkpoint vote, state-fetch
// and state-snapshot messages and its Persist blob byte for byte; all
// four carry the history hash. Replica 1 restores from a checkpoint at
// sequence 8 certified by replicas 3, 0 and 2, serves it, executes
// sequence 9 (checkpoint interval 1) and votes, then fetches state when
// the primary orders far beyond its window.
func TestCheckpointWireGolden(t *testing.T) {
	const n, self, domain = 4, 1, "zyz-ckpt"
	members := []transport.NodeID{1, 2, 3, 4}
	auths := make([]auth.Authenticator, n)
	for i := range auths {
		auths[i] = auth.NewHMACAuth([]byte("golden"), i, n)
	}
	app := kvstore.NewStore()
	app.Execute(kvstore.EncodePut("k", []byte("v")))
	state := replication.Capture(app, replication.NewClientTable())
	snap := state.AppendTo(nil)
	history := sha256.Sum256([]byte("history at 8"))
	blob := wire.NewWriter(0)
	blob.VarBytes(goldenCert(auths, domain, 8, goldenDigest(domain, 8, history, state.Digest()), 3, 0, 2))
	blob.Bytes32(history)
	blob.VarBytes(snap)

	rec := &transporttest.Recorder{Self: members[self]}
	r := New(Config{Config: replica.Config{
		Self: self, N: n, F: 1, Members: members, Conn: rec,
		Auth:               auths[self],
		ClientAuth:         auth.NewReplicaSide([]byte("golden-client"), self),
		App:                kvstore.NewStore(),
		CheckpointInterval: 1,
		Restore:            blob.Bytes(),
	}})
	defer r.Close()
	deliver := func(from int, pkt []byte) {
		if ev := r.VerifyPacket(members[from], pkt); ev != nil {
			r.Runtime().Call(func() { r.ApplyEvent(members[from], ev) })
		}
	}
	orderReq := func(seq uint64, history [32]byte) []byte {
		body := orderBody(0, seq, batch.Digest(nil), history)
		w := wire.NewWriter(0)
		w.U8(kindOrderReq)
		w.VarBytes(body)
		w.VarBytes(auths[0].TagVector(body))
		batch.MarshalInto(w, nil)
		return w.Bytes()
	}

	checkGolden(t, "Persist", r.Persist(), goldenPersist)

	fetch := wire.NewWriter(0)
	fetch.U8(kindStateFetch)
	fetch.U64(0)
	deliver(0, fetch.Bytes())
	checkGolden(t, "state snapshot", onlyPacket(t, rec, kindStateSnap, members[0]), goldenSnap)

	// Sequence 9, an empty batch, extends the history and is executed
	// speculatively at once.
	deliver(0, orderReq(9, replication.ChainHash(history, batch.Digest(nil))))
	checkGolden(t, "checkpoint vote", onlyPacket(t, rec, kindCheckpoint, members[0]), goldenVote)

	// An order-req far beyond the window (low 8 + 2 intervals) makes the
	// replica fetch the primary's stable snapshot.
	deliver(0, orderReq(64, history))
	checkGolden(t, "state fetch", onlyPacket(t, rec, kindStateFetch, members[0]), goldenFetch)
}
