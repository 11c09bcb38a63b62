package pbft

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
	goldenPersist = "a200000008000000000000000e94c4d27e2a39f7472f6f4c84d9a68495980047752719c15832633bc534efe303000000" +
		"000020000000fa14598bd32a9cc52512cf94198cc2bde676cce3109d59863aaffde3d5d42e2d02000000200000009f49" +
		"f9dbfd093bed3cdebcb5ff61562b2aff855fa3daa40b39106108a6ec78a60300000020000000c770a019842301882877" +
		"3cfec3eae3a8b6d25c862743d4f94421fcf3702e382a1a0000000e00000001000000010000006b010000007604000000" +
		"00000000"
	goldenSnap = "18" + goldenPersist
	goldenVote = "16010000000900000000000000254268ae4efa8def2aa329151bda51823ed7a09b82c07b1beecefeace54ce3a6200000" +
		"0055ea640f633573f943c74775809e95b75ff28bce678059a23c1ef85f2fc15f69"
	goldenFetch = "170900000000000000"
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

// goldenSnapshot is the state of a one-key store and an empty client
// table.
func goldenSnapshot() replication.Frozen {
	app := kvstore.NewStore()
	app.Execute(kvstore.EncodePut("k", []byte("v")))
	return replication.Capture(app, replication.NewClientTable())
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

// TestCheckpointWireGolden pins PBFT's checkpoint vote, state-fetch and
// state-snapshot messages and its Persist blob byte for byte. Replica 1
// restores from a checkpoint at slot 8 certified by replicas 0, 2 and 3,
// serves it, executes slot 9 (checkpoint interval 1) and votes, then
// learns from two votes beyond its window that the group is ahead.
func TestCheckpointWireGolden(t *testing.T) {
	const n, self, domain = 4, 1, "pbft-ckpt"
	members := []transport.NodeID{1, 2, 3, 4}
	auths := make([]auth.Authenticator, n)
	for i := range auths {
		auths[i] = auth.NewHMACAuth([]byte("golden"), i, n)
	}
	state := goldenSnapshot()
	snap, stateD := state.AppendTo(nil), state.Digest()
	d8 := goldenDigest(domain, 8, stateD)
	blob := wire.NewWriter(0)
	blob.VarBytes(goldenCert(auths, domain, 8, d8, 0, 2, 3))
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

	checkGolden(t, "Persist", r.Persist(), goldenPersist)

	fetch := wire.NewWriter(0)
	fetch.U8(kindStateFetch)
	fetch.U64(0)
	deliver(0, fetch.Bytes())
	checkGolden(t, "state snapshot", onlyPacket(t, rec, kindStateSnap, members[0]), goldenSnap)

	// Slot 9 commits with an empty batch: the primary's pre-prepare,
	// replica 2's prepare and commits from 0 and 2.
	bd := batchDigest(nil)
	body := ppBody(0, 9, bd)
	pp := wire.NewWriter(0)
	pp.U8(kindPrePrepare)
	pp.VarBytes(body)
	pp.VarBytes(auths[0].TagVector(body))
	batch.MarshalInto(pp, nil)
	deliver(0, pp.Bytes())
	deliver(2, EncodePrepare(auths[2], 2, 0, 9, bd))
	deliver(0, EncodeCommit(auths[0], 0, 0, 9, bd))
	deliver(2, EncodeCommit(auths[2], 2, 0, 9, bd))
	checkGolden(t, "checkpoint vote", onlyPacket(t, rec, kindCheckpoint, members[0]), goldenVote)

	// Replicas 2 and 3 vote beyond the window (low 8 + 2 intervals):
	// f+1 claimants, so replica 1 fetches from the furthest ahead.
	for _, v := range []struct {
		rep  uint32
		slot uint64
	}{{2, 16}, {3, 24}} {
		w := wire.NewWriter(0)
		w.U8(kindCheckpoint)
		w.U32(v.rep)
		w.U64(v.slot)
		w.Bytes32(stateD)
		w.VarBytes(goldenTag(auths[v.rep], domain, v.slot, goldenDigest(domain, v.slot, stateD), v.rep))
		deliver(int(v.rep), w.Bytes())
	}
	checkGolden(t, "state fetch", onlyPacket(t, rec, kindStateFetch, members[3]), goldenFetch)
}
