package minbft

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
	"neobft/internal/usig"
	"neobft/internal/wire"
)

// Golden bytes of every checkpoint-path message, built from fixed keys,
// a fixed snapshot and a hand-ordered certificate. Regenerate only for
// a deliberate wire-format change.
const (
	goldenPersist = "6a0000000800000000000000586477d0f85eb594522a9ddcef1ef615efbb93684ed325986f836314eb38a0bd02000200" +
		"000018000000ad2a7b996f12e186d0a1349b74dc74438fa28b2ea82d0564000000001800000012fd6ab2f384b7ac0081" +
		"952305e743786f382c79a22798f91a0000000e00000001000000010000006b01000000760400000000000000"
	goldenSnap = "14" + goldenPersist
	goldenVote = "12010000000900000000000000254268ae4efa8def2aa329151bda51823ed7a09b82c07b1beecefeace54ce3a6180000" +
		"007b1180cb5d5179276a187b2d953ad2bbbd09f7078b847f92"
	goldenFetch = "130900000000000000"
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

// TestCheckpointWireGolden pins MinBFT's checkpoint vote, state-fetch
// and state-snapshot messages and its Persist blob byte for byte.
// Replica 1 of three restores from a checkpoint at counter 8 certified by
// replicas 2 and 0, serves it, executes counter 9 (checkpoint interval 1)
// and votes, then learns from two votes beyond its window that the group
// is ahead.
func TestCheckpointWireGolden(t *testing.T) {
	const n, self, domain = 3, 1, "minbft-ckpt"
	members := []transport.NodeID{1, 2, 3}
	auths := make([]auth.Authenticator, n)
	for i := range auths {
		auths[i] = auth.NewHMACAuth([]byte("golden"), i, n)
	}
	app := kvstore.NewStore()
	app.Execute(kvstore.EncodePut("k", []byte("v")))
	state := replication.Capture(app, replication.NewClientTable())
	snap, stateD := state.AppendTo(nil), state.Digest()
	blob := wire.NewWriter(0)
	blob.VarBytes(goldenCert(auths, domain, 8, goldenDigest(domain, 8, stateD), 2, 0))
	blob.VarBytes(snap)

	rec := &transporttest.Recorder{Self: members[self]}
	r := New(Config{
		Config: replica.Config{
			Self: self, N: n, F: 1, Members: members, Conn: rec,
			Auth:               auths[self],
			ClientAuth:         auth.NewReplicaSide([]byte("golden-client"), self),
			App:                kvstore.NewStore(),
			CheckpointInterval: 1,
			Restore:            blob.Bytes(),
		},
		USIG: usig.New(self, []byte("golden-usig")),
	})
	defer r.Close()
	deliver := func(from int, pkt []byte) {
		if ev := r.VerifyPacket(members[from], pkt); ev != nil {
			r.Runtime().Call(func() { r.ApplyEvent(members[from], ev) })
		}
	}

	checkGolden(t, "Persist", r.Persist(), goldenPersist)

	fetch := wire.NewWriter(0)
	fetch.U8(kindStateFetch)
	fetch.U64(0)
	deliver(0, fetch.Bytes())
	checkGolden(t, "state snapshot", onlyPacket(t, rec, kindStateSnap, members[0]), goldenSnap)

	// Counter 9 commits with an empty batch: the primary's prepare (its
	// USIG's ninth UI) and replica 2's commit.
	bd := batch.Digest(nil)
	prim := usig.New(0, []byte("golden-usig"))
	var ui usig.UI
	for i := 0; i < 9; i++ {
		ui = prim.CreateUI(prepareDigest(0, bd))
	}
	prep := wire.NewWriter(0)
	prep.U8(kindPrepare)
	prep.U64(0)
	prep.U64(ui.Counter)
	prep.Bytes32(ui.Cert)
	prep.Bytes32(bd)
	batch.MarshalInto(prep, nil)
	deliver(0, prep.Bytes())
	cui := usig.New(2, []byte("golden-usig")).CreateUI(commitDigest(0, 2, 9, bd))
	commit := wire.NewWriter(0)
	commit.U8(kindCommit)
	commit.U64(0)
	commit.U32(2)
	commit.U64(9)
	commit.Bytes32(bd)
	commit.U64(cui.Counter)
	commit.Bytes32(cui.Cert)
	deliver(2, commit.Bytes())
	checkGolden(t, "checkpoint vote", onlyPacket(t, rec, kindCheckpoint, members[0]), goldenVote)

	// Replicas 0 and 2 vote beyond the window (low 8 + 2 intervals):
	// f+1 claimants, so replica 1 fetches from the furthest ahead.
	for _, v := range []struct {
		rep  uint32
		slot uint64
	}{{0, 16}, {2, 24}} {
		w := wire.NewWriter(0)
		w.U8(kindCheckpoint)
		w.U32(v.rep)
		w.U64(v.slot)
		w.Bytes32(stateD)
		w.VarBytes(goldenTag(auths[v.rep], domain, v.slot, goldenDigest(domain, v.slot, stateD), v.rep))
		deliver(int(v.rep), w.Bytes())
	}
	checkGolden(t, "state fetch", onlyPacket(t, rec, kindStateFetch, members[2]), goldenFetch)
}
