package seqlog

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"neobft/internal/crypto/auth"
	"neobft/internal/kvstore"
	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/wire"
)

// newGroup builds the checkpointers of four replicas (f = 1, quorum 3)
// whose digests bind extra 32-byte parts, each with its own registry.
func newGroup(extra int) ([]*Checkpointer, []*metrics.Registry) {
	const n = 4
	cps := make([]*Checkpointer, n)
	regs := make([]*metrics.Registry, n)
	for i := range cps {
		regs[i] = metrics.NewRegistry()
		cps[i] = NewCheckpointer(CheckpointConfig{
			Domain: "test-ckpt", Self: i, N: n, Quorum: 3, Extra: extra,
			Auth: auth.NewHMACAuth([]byte("test"), i, n), Metrics: regs[i],
		})
	}
	return cps, regs
}

// rawState is a state whose snapshot is its bytes and whose digest is
// their SHA-256. Its delta from any other rawState is its bytes, which
// patchRaw applies.
type rawState []byte

func (s rawState) Digest() [32]byte           { return sha256.Sum256(s) }
func (s rawState) Size() int                  { return len(s) }
func (s rawState) AppendTo(buf []byte) []byte { return append(buf, s...) }

func (s rawState) AppendDelta(buf []byte, since replication.Frozen) ([]byte, bool) {
	_, ok := since.(rawState)
	if !ok {
		return buf, false
	}
	return append(buf, s...), true
}

func patchRaw(_, delta []byte) ([]byte, error) { return delta, nil }

// rawMachine checks rawState snapshots and records the last one it
// installed.
type rawMachine struct{ installed []byte }

func (m *rawMachine) StateDigest(b []byte) ([32]byte, error) { return sha256.Sum256(b), nil }
func (m *rawMachine) InstallSnapshot(b []byte) error         { m.installed = b; return nil }

// capture has c checkpoint snap at slot and returns its vote bytes and
// the step its own vote caused.
func capture(t *testing.T, c *Checkpointer, slot uint64, snap []byte, extra ...[32]byte) ([]byte, Step) {
	t.Helper()
	w := wire.NewWriter(0)
	step, ok := c.Capture(w, slot, rawState(snap), extra...)
	if !ok {
		t.Fatalf("replica %d declined to capture slot %d", c.cfg.Self, slot)
	}
	return w.Bytes(), step
}

// deliver hands vote bytes to c the way a protocol does: decode and
// authenticate (the verification stage), then add.
func deliver(t *testing.T, c *Checkpointer, vote []byte, horizon uint64) Step {
	t.Helper()
	rd := wire.NewReader(vote)
	v, ok := c.ReadVote(rd)
	if !ok || rd.Done() != nil || !c.VerifyVote(v) {
		t.Fatalf("replica %d rejected an honest vote", c.cfg.Self)
	}
	return c.Add(v, horizon)
}

// stabilize has every replica in cps capture slot and exchange votes
// all-to-all; it returns each replica's steps.
func stabilize(t *testing.T, cps []*Checkpointer, slot uint64, snaps [][]byte, extra ...[32]byte) [][]Step {
	t.Helper()
	steps := make([][]Step, len(cps))
	votes := make([][]byte, len(cps))
	for i, c := range cps {
		var s Step
		votes[i], s = capture(t, c, slot, snaps[i], extra...)
		steps[i] = append(steps[i], s)
	}
	for i, c := range cps {
		for j, v := range votes {
			if i != j {
				steps[i] = append(steps[i], deliver(t, c, v, slot))
			}
		}
	}
	return steps
}

func sameSnaps(n int, s string) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(s)
	}
	return out
}

// TestCheckpointerStableAndTruncate: four replicas with the same state
// exchange votes; each sees its own checkpoint become stable exactly
// once (the signal to truncate), and the certificate checks out.
func TestCheckpointerStableAndTruncate(t *testing.T) {
	cps, regs := newGroup(1)
	extra := [32]byte{7}
	for i, steps := range stabilize(t, cps, 8, sameSnaps(4, "state@8"), extra) {
		stable := 0
		for _, s := range steps {
			if s.Fetch {
				t.Fatalf("replica %d asked to fetch though it holds the certified state", i)
			}
			if s.Stable != 0 {
				if s.Stable != 8 {
					t.Fatalf("replica %d: stable at %d, want 8", i, s.Stable)
				}
				stable++
			}
		}
		if stable != 1 {
			t.Fatalf("replica %d saw %d stability steps, want 1", i, stable)
		}
		st := cps[i].Stable()
		if st == nil || st.Slot != 8 || st.Extra[0] != extra || !cps[i].Check(st, &rawMachine{}) {
			t.Fatalf("replica %d: stable checkpoint %+v does not check out", i, st)
		}
		if n := regs[i].Counter("proto_checkpoints_total").Load(); n != 1 {
			t.Fatalf("replica %d counted %d checkpoints, want 1", i, n)
		}
	}
}

// TestCheckpointerStableButNotOurs: a replica whose state differs from
// the quorum's (or that never reached the slot) is told to fetch, from
// the lowest-numbered voter of the certificate.
func TestCheckpointerStableButNotOurs(t *testing.T) {
	cps, _ := newGroup(0)
	snaps := sameSnaps(4, "state@8")
	snaps[0] = []byte("diverged")
	steps := stabilize(t, cps, 8, snaps)
	fetches := 0
	for _, s := range steps[0] {
		if s.Stable != 0 {
			t.Fatal("a diverged replica truncated to a checkpoint it does not hold")
		}
		if s.Fetch {
			fetches++
			if s.From != 1 {
				t.Fatalf("fetch from replica %d, want 1 (lowest voter but self)", s.From)
			}
		}
	}
	if fetches != 1 || cps[0].Stable() != nil {
		t.Fatalf("diverged replica: %d fetches, stable %v; want one fetch and nothing stable", fetches, cps[0].Stable())
	}

	// A replica that never captured slot 8 fetches the same way.
	behind, _ := newGroup(0)
	var votes [][]byte
	for _, c := range behind[1:] {
		v, _ := capture(t, c, 8, []byte("state@8"))
		votes = append(votes, v)
	}
	var last Step
	for _, v := range votes {
		last = deliver(t, behind[0], v, 8)
	}
	if !last.Fetch || last.From != 1 || last.Stable != 0 {
		t.Fatalf("behind replica step %+v, want a fetch from replica 1", last)
	}
}

// TestCheckpointerIgnoresVotesAtOrBelowStable: once a checkpoint is
// stable, votes for it or older slots pool nothing and ask nothing.
func TestCheckpointerIgnoresVotesAtOrBelowStable(t *testing.T) {
	cps, _ := newGroup(0)
	stabilize(t, cps, 8, sameSnaps(4, "state@8"))
	late, _ := newGroup(0)
	for _, slot := range []uint64{4, 8} {
		v, _ := capture(t, late[2], slot, []byte("old"))
		if s := deliver(t, cps[0], v, 16); s != (Step{}) {
			t.Fatalf("vote at slot %d below stable 8 caused %+v", slot, s)
		}
	}
	if cps[0].Votes() != 0 {
		t.Fatalf("%d slots of votes pooled below the stable checkpoint", cps[0].Votes())
	}
	w := wire.NewWriter(0)
	if _, ok := cps[0].Capture(w, 8, rawState("again")); ok || w.Len() != 0 {
		t.Fatal("captured a slot already stable")
	}
}

// TestCheckpointerAheadClaims: votes beyond the horizon are never
// pooled. One claimant is not enough (it may be lying); f+1 distinct
// ones trigger one fetch from the furthest ahead, and the cooldown
// suppresses the next.
func TestCheckpointerAheadClaims(t *testing.T) {
	cps, regs := newGroup(0)
	const horizon = 16
	claim := func(from int, slot uint64) Step {
		v, _ := capture(t, cps[from], slot, []byte("ahead"))
		return deliver(t, cps[3], v, horizon)
	}
	if s := claim(0, 32); s.Fetch {
		t.Fatal("fetched on a single claimant")
	}
	if s := claim(0, 40); s.Fetch {
		t.Fatal("fetched on one claimant voting twice")
	}
	if s := claim(1, 48); !s.Fetch || s.From != 1 {
		t.Fatalf("f+1 claimants gave %+v, want a fetch from replica 1", s)
	}
	if s := claim(2, 56); s.Fetch {
		t.Fatal("second fetch inside the cooldown")
	}
	if cps[3].Votes() != 0 {
		t.Fatalf("%d slots of beyond-horizon votes pooled", cps[3].Votes())
	}
	if n := regs[3].Counter("proto_sync_horizon_rejects_total").Load(); n != 4 {
		t.Fatalf("horizon rejects = %d, want 4", n)
	}
}

// TestCheckpointerCheckRejects: Check refuses every way a certificate
// or the state it is shipped with can be wrong.
func TestCheckpointerCheckRejects(t *testing.T) {
	cps, _ := newGroup(1)
	stabilize(t, cps, 8, sameSnaps(4, "state@8"), [32]byte{7})
	good := cps[0].Read(wire.NewReader(cps[0].Save(nil).Blob()))
	if good == nil || !cps[1].Check(good, &rawMachine{}) {
		t.Fatal("an honest checkpoint failed Check")
	}
	cases := map[string]func(cp *Checkpoint){
		"forged tag": func(cp *Checkpoint) { cp.Cert.Parts[1].Tag[8] ^= 1 },
		"short cert": func(cp *Checkpoint) { cp.Cert.Parts = cp.Cert.Parts[:2] },
		"duplicate voter": func(cp *Checkpoint) {
			cp.Cert.Parts = append(cp.Cert.Parts[:2:2], cp.Cert.Parts[0])
		},
		"tampered snapshot": func(cp *Checkpoint) { cp.data = []byte("state@9") },
		"wrong extra part":  func(cp *Checkpoint) { cp.Extra[0][0] ^= 1 },
		"wrong slot":        func(cp *Checkpoint) { cp.Slot++ },
	}
	for name, tamper := range cases {
		cp := cps[0].Read(wire.NewReader(cps[0].Save(nil).Blob()))
		tamper(cp)
		if cps[1].Check(cp, &rawMachine{}) {
			t.Errorf("%s: Check accepted it", name)
		}
		if cps[1].Install(cp, &rawMachine{}) {
			t.Errorf("%s: Install adopted it", name)
		}
	}
	if cps[1].Installs() != 0 {
		t.Fatal("a rejected checkpoint counted as installed")
	}

	// A key-value store's snapshot, tampered record by record. The state
	// digest the certificate binds is recomputed from the received bytes,
	// and Install refuses each change before the store changes.
	kv, _ := newGroup(0)
	votes := make([][]byte, len(kv))
	for i, c := range kv {
		app := kvstore.NewStore()
		for _, k := range []string{"a", "b", "c"} {
			app.Execute(kvstore.EncodePut(k, []byte(k+"-value")))
		}
		w := wire.NewWriter(0)
		if _, ok := c.Capture(w, 8, replication.Capture(app, replication.NewClientTable())); !ok {
			t.Fatal("kv capture declined")
		}
		votes[i] = w.Bytes()
	}
	for i, c := range kv {
		for j, v := range votes {
			if i != j {
				deliver(t, c, v, 8)
			}
		}
	}
	blob := kv[0].Save(nil).Blob()
	bundle := func(records ...string) []byte {
		app := wire.NewWriter(0)
		app.U32(uint32(len(records) / 2))
		for i := 0; i < len(records); i += 2 {
			app.VarBytes([]byte(records[i]))
			app.VarBytes([]byte(records[i+1]))
		}
		w := wire.NewWriter(0)
		w.VarBytes(app.Bytes())
		w.VarBytes(replication.NewClientTable().Snapshot())
		return w.Bytes()
	}
	honest := kv[1].Read(wire.NewReader(blob))
	if !bytes.Equal(honest.data, bundle("a", "a-value", "b", "b-value", "c", "c-value")) {
		t.Fatal("hand-built kv snapshot differs from the captured one")
	}
	kvCases := map[string][]byte{
		"value byte flipped": bundle("a", "a-value", "b", "b-valuf", "c", "c-value"),
		"record dropped":     bundle("a", "a-value", "c", "c-value"),
		"record moved":       bundle("b", "b-value", "a", "a-value", "c", "c-value"),
	}
	for name, data := range kvCases {
		cp := kv[1].Read(wire.NewReader(blob))
		cp.data = data
		m := newKVMachine()
		if kv[1].Install(cp, m) || m.app.Len() != 0 {
			t.Errorf("kv %s: Install adopted it or changed the store", name)
		}
	}
	if m := newKVMachine(); !kv[1].Install(honest, m) || m.app.Len() != 3 {
		t.Fatal("the honest kv checkpoint did not install")
	}
}

// kvMachine installs bundles into a key-value store.
type kvMachine struct {
	app   *kvstore.Store
	table *replication.ClientTable
}

func newKVMachine() kvMachine {
	return kvMachine{app: kvstore.NewStore(), table: replication.NewClientTable()}
}

func (m kvMachine) StateDigest(b []byte) ([32]byte, error) { return replication.BundleDigest(m.app, b) }

func (m kvMachine) InstallSnapshot(b []byte) error {
	return replication.InstallSnapshot(m.app, m.table, b, 0, auth.NewReplicaSide([]byte("kv"), 0))
}

// TestCheckpointerPersistRoundTrip: a stable checkpoint read back from
// Persist installs on a fresh replica, which then persists and serves the
// same bytes — with no extra parts and with one.
func TestCheckpointerPersistRoundTrip(t *testing.T) {
	for _, extra := range [][][32]byte{nil, {{0xAB}}} {
		cps, _ := newGroup(len(extra))
		stabilize(t, cps, 8, sameSnaps(4, "state@8"), extra...)
		blob := cps[0].Save(nil).Blob()
		fresh, regs := newGroup(len(extra))
		m := &rawMachine{}
		cp := fresh[3].Read(wire.NewReader(blob))
		if cp == nil || !fresh[3].Install(cp, m) {
			t.Fatalf("extra=%d: persisted checkpoint did not install", len(extra))
		}
		applied := m.installed
		if string(applied) != "state@8" || fresh[3].Stable().Slot != 8 || fresh[3].Installs() != 1 {
			t.Fatalf("extra=%d: installed %q at %d", len(extra), applied, fresh[3].Stable().Slot)
		}
		if !bytes.Equal(fresh[3].Save(nil).Blob(), blob) {
			t.Fatalf("extra=%d: Persist after install differs", len(extra))
		}
		if pkt := fresh[3].Serve([]byte{0x42}, 0); len(pkt) == 0 || pkt[0] != 0x42 || !bytes.Equal(pkt[1:], blob) {
			t.Fatalf("extra=%d: served bytes are not the prefix then Persist's", len(extra))
		}
		if fresh[3].Serve(nil, 8) != nil {
			t.Fatalf("extra=%d: served a replica that already has slot 8", len(extra))
		}
		if n := regs[3].Counter("proto_state_snapshots_installed_total").Load(); n != 1 {
			t.Fatalf("extra=%d: installs counted %d", len(extra), n)
		}
		if fresh[3].Read(wire.NewReader(blob[:len(blob)-1])) != nil {
			t.Fatalf("extra=%d: truncated blob decoded", len(extra))
		}
	}
}

// TestEngineCertIndependentOfVoteOrder: the same quorum of votes, added
// in any order, marshals to the same certificate bytes with parts in
// ascending replica order.
func TestEngineCertIndependentOfVoteOrder(t *testing.T) {
	d := Digest("test", 8, [32]byte{1})
	var want []byte
	perms := [][]uint32{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}, {3, 0, 1, 2}, {0, 2, 1, 3}}
	for _, perm := range perms {
		for round := 0; round < 20; round++ {
			e := NewEngine(4)
			var cert *Cert
			for _, r := range perm {
				cert = e.Add(8, r, d, []byte{byte(r), 0xEE})
			}
			if cert == nil {
				t.Fatal("four matching votes formed no certificate at quorum 4")
			}
			for i, p := range cert.Parts {
				if p.Replica != uint32(i) {
					t.Fatalf("order %v: part %d is replica %d", perm, i, p.Replica)
				}
			}
			if want == nil {
				want = cert.Marshal()
			} else if !bytes.Equal(cert.Marshal(), want) {
				t.Fatalf("order %v: certificate bytes differ", perm)
			}
		}
	}
}

// TestSavedDeltaPatchesBlob: a Saved's delta from an earlier one, with a
// new prefix and a new checkpoint or the same one, patches the earlier
// Blob into its own, with no extra parts and with one; a delta refuses
// any other base.
func TestSavedDeltaPatchesBlob(t *testing.T) {
	for _, extra := range [][][32]byte{nil, {{0xAB}}} {
		cps, _ := newGroup(len(extra))
		stabilize(t, cps, 8, sameSnaps(4, "state@8"), extra...)
		at8 := cps[0].Save([]byte("view 0"))
		viewChange := cps[0].Save([]byte("view 1, longer"))
		stabilize(t, cps, 16, sameSnaps(4, "state@16"), extra...)
		at16 := cps[0].Save(nil)
		other, _ := newGroup(len(extra))
		stabilize(t, other, 8, sameSnaps(4, "other@8"), extra...)
		for _, step := range []struct {
			name      string
			base, cur Saved
		}{{"view change", at8, viewChange}, {"new checkpoint", viewChange, at16}, {"both", at8, at16}} {
			delta, ok := step.cur.Delta(step.base)
			if !ok {
				t.Fatalf("extra=%d %s: no delta", len(extra), step.name)
			}
			got, err := PatchBlob(step.base.Blob(), delta, patchRaw)
			if err != nil || !bytes.Equal(got, step.cur.Blob()) {
				t.Fatalf("extra=%d %s: patched blob differs (%v)", len(extra), step.name, err)
			}
			for name, blob := range map[string][]byte{
				"another base":   at16.Blob(),
				"another state":  other[0].Save([]byte("view 0")).Blob(),
				"another prefix": cps[0].Save([]byte("longer prefix")).Blob(),
				"truncated":      step.base.Blob()[:len(step.base.Blob())-1],
			} {
				if step.name != "new checkpoint" || name != "another base" {
					if _, err := PatchBlob(blob, delta, patchRaw); err == nil {
						t.Errorf("extra=%d %s: applied to %s", len(extra), step.name, name)
					}
				}
			}
			if _, err := PatchBlob(step.base.Blob(), delta[:len(delta)-1], patchRaw); err == nil {
				t.Errorf("extra=%d %s: truncated delta applied", len(extra), step.name)
			}
		}
		if _, ok := at16.Delta(Saved{}); ok {
			t.Fatal("delta from no checkpoint")
		}
		received := other[0].Read(wire.NewReader(at16.Blob()))
		if received == nil || !other[0].Check(received, &rawMachine{}) {
			t.Fatal("blob did not check")
		}
		if _, ok := at16.Delta(Saved{Stable: received}); ok {
			t.Fatal("delta from a checkpoint received as bytes")
		}
	}
}
