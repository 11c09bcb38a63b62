package chaos

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"neobft/internal/replication"
)

// Same seed must yield byte-identical schedules for every scenario;
// different seeds must differ (events carry seeded jitter).
func TestScheduleDeterminism(t *testing.T) {
	for _, name := range Scenarios() {
		cfg := ScenarioConfig{Seed: 42, Horizon: 3 * time.Second, Replicas: 4}
		a, err := Scenario(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Scenario(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(a.Marshal(), b.Marshal()) {
			t.Fatalf("%s: same seed produced different schedules:\n%s\n%s", name, a, b)
		}
		if a.Digest() != b.Digest() {
			t.Fatalf("%s: digest mismatch for identical schedules", name)
		}
		c, err := Scenario(name, ScenarioConfig{Seed: 43, Horizon: 3 * time.Second, Replicas: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bytes.Equal(a.Marshal(), c.Marshal()) {
			t.Fatalf("%s: different seeds produced identical schedules", name)
		}
		if len(a.Events) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		for i := 1; i < len(a.Events); i++ {
			if a.Events[i].At < a.Events[i-1].At {
				t.Fatalf("%s: events not sorted by time", name)
			}
		}
	}
}

func TestScenarioUnknownName(t *testing.T) {
	if _, err := Scenario("no-such-scenario", ScenarioConfig{Seed: 1}); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}

func TestOpRoundTrip(t *testing.T) {
	op := EncodeOp(7, 99, 64)
	if len(op) < 64 {
		t.Fatalf("op shorter than requested size: %d", len(op))
	}
	client, seq, ok := DecodeOp(op)
	if !ok || client != 7 || seq != 99 {
		t.Fatalf("decode = (%d, %d, %v), want (7, 99, true)", client, seq, ok)
	}
	if _, _, ok := DecodeOp([]byte("not a chaos op")); ok {
		t.Fatal("decoded garbage as chaos op")
	}
}

type nopApp struct{}

func (nopApp) Execute(op []byte) ([]byte, func()) { return op, nil }

func mkHist(t *testing.T, app *RecordingApp, pairs ...[2]uint64) {
	t.Helper()
	for _, p := range pairs {
		app.Execute(EncodeOp(uint32(p[0]), p[1], 16))
	}
}

func TestCheckPassesOnCleanRun(t *testing.T) {
	apps := make([]*RecordingApp, 3)
	histories := map[int][]Entry{}
	var acks []Ack
	for i := range apps {
		apps[i] = NewRecordingApp(nopApp{})
		mkHist(t, apps[i], [2]uint64{1, 1}, [2]uint64{2, 1}, [2]uint64{1, 2})
		histories[i] = apps[i].History()
	}
	acks = append(acks, Ack{1, 1}, Ack{2, 1}, Ack{1, 2})
	res := Check(histories, acks)
	if !res.Ok() {
		t.Fatalf("clean run flagged: %v", res.Violations)
	}
	if res.AckedChecked != 3 || res.LongestHistory != 3 {
		t.Fatalf("unexpected stats: %+v", res)
	}
}

func TestCheckAllowsBoundedLag(t *testing.T) {
	full := NewRecordingApp(nopApp{})
	mkHist(t, full, [2]uint64{1, 1}, [2]uint64{1, 2}, [2]uint64{1, 3})
	lagging := NewRecordingApp(nopApp{})
	mkHist(t, lagging, [2]uint64{1, 1}, [2]uint64{1, 2})
	res := Check(map[int][]Entry{0: full.History(), 1: lagging.History()}, []Ack{{1, 1}, {1, 2}, {1, 3}})
	if !res.Ok() {
		t.Fatalf("bounded lag flagged: %v", res.Violations)
	}
	if res.Divergence != 1 {
		t.Fatalf("Divergence = %d, want 1", res.Divergence)
	}
}

func TestCheckCatchesLostCommit(t *testing.T) {
	apps := make([]*RecordingApp, 3)
	histories := map[int][]Entry{}
	for i := range apps {
		apps[i] = NewRecordingApp(nopApp{})
		mkHist(t, apps[i], [2]uint64{1, 1}, [2]uint64{1, 2})
		// Every replica loses the acked tail op — as if a faulty recovery
		// rolled back past a committed operation.
		apps[i].DropTail(1)
		histories[i] = apps[i].History()
	}
	res := Check(histories, []Ack{{1, 1}, {1, 2}})
	if res.Ok() {
		t.Fatal("checker missed a lost committed op")
	}
}

func TestCheckCatchesDivergence(t *testing.T) {
	a := NewRecordingApp(nopApp{})
	mkHist(t, a, [2]uint64{1, 1}, [2]uint64{1, 2})
	b := NewRecordingApp(nopApp{})
	mkHist(t, b, [2]uint64{1, 2}, [2]uint64{1, 1}) // reordered
	res := Check(map[int][]Entry{0: a.History(), 1: b.History()}, nil)
	if res.Ok() {
		t.Fatal("checker missed order divergence")
	}
}

func TestCheckCatchesDoubleExecution(t *testing.T) {
	a := NewRecordingApp(nopApp{})
	mkHist(t, a, [2]uint64{1, 1}, [2]uint64{1, 1})
	res := Check(map[int][]Entry{0: a.History()}, []Ack{{1, 1}})
	if res.Ok() {
		t.Fatal("checker missed double execution")
	}
}

func TestRecordingAppUndoPopsEntry(t *testing.T) {
	app := NewRecordingApp(nopApp{})
	app.Execute(EncodeOp(1, 1, 16))
	_, undo := app.Execute(EncodeOp(1, 2, 16))
	undo()
	h := app.History()
	if len(h) != 1 || h[0].Seq != 1 {
		t.Fatalf("undo did not pop speculative entry: %v", h)
	}
}

func TestRecordingAppSnapshotRoundTrip(t *testing.T) {
	a := NewRecordingApp(nopApp{})
	mkHist(t, a, [2]uint64{1, 1}, [2]uint64{2, 1}, [2]uint64{1, 2})
	b := NewRecordingApp(nopApp{})
	f := a.Freeze()
	snap := f.AppendTo(nil)
	if len(snap) != f.Size() {
		t.Fatalf("snapshot is %d bytes, Size says %d", len(snap), f.Size())
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	ha, hb := a.History(), b.History()
	if len(ha) != len(hb) {
		t.Fatalf("restored history length %d, want %d", len(hb), len(ha))
	}
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("restored history differs at %d", i)
		}
	}
	if err := b.Restore([]byte{0xff}); err == nil {
		t.Fatal("restored malformed snapshot")
	}
}

// TestRecordingAppDigestProperty: through random executes, rollback pops
// (also right after a capture), dropped tails and restores, the digest
// the app keeps current equals the one recomputed from the bytes of a
// capture taken then, and every earlier capture still encodes the bytes
// it had when it was taken.
func TestRecordingAppDigestProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewRecordingApp(replication.EchoApp{})
	type capture struct {
		f     replication.Frozen
		bytes []byte
	}
	var caps []capture
	var undos []func()
	seq := uint64(0)
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(100); {
		case r < 50:
			seq++
			_, undo := a.Execute(EncodeOp(uint32(rng.Intn(4)), seq, 16))
			undos = append(undos, undo)
		case r < 75 && len(undos) > 0:
			undos[len(undos)-1]()
			undos = undos[:len(undos)-1]
		case r < 80:
			a.DropTail(rng.Intn(4))
			undos = nil
		case r < 83 && len(caps) > 0:
			if err := a.Restore(caps[rng.Intn(len(caps))].bytes); err != nil {
				t.Fatal(err)
			}
			undos = nil
		default:
			f := a.Freeze()
			caps = append(caps, capture{f, f.AppendTo(nil)})
		}
		f := a.Freeze()
		b := f.AppendTo(nil)
		if d, err := a.Digest(b); err != nil || d != f.Digest() {
			t.Fatalf("step %d: kept digest %x, recomputed %x (%v)", step, f.Digest(), d, err)
		}
		if len(b) != f.Size() {
			t.Fatalf("step %d: %d bytes, Size %d", step, len(b), f.Size())
		}
		for i, c := range caps {
			if !bytes.Equal(c.f.AppendTo(nil), c.bytes) {
				t.Fatalf("step %d: capture %d changed after it was taken", step, i)
			}
		}
		if len(caps) > 20 {
			caps = caps[len(caps)-20:]
		}
	}
}

// TestRecordingAppDeltaProperty: through random executes, rollback pops
// (also right after a freeze), dropped tails and restores, a view has a
// delta from an earlier view exactly when the earlier history is a
// prefix of its own, and the delta patches the earlier view's bytes into
// its own, digest included.
func TestRecordingAppDeltaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewRecordingApp(replication.EchoApp{})
	type capture struct {
		f     replication.Frozen
		bytes []byte
		hist  []Entry
	}
	var caps []capture
	var undos []func()
	seq := uint64(0)
	deltas, refused := 0, 0
	for step := 0; step < 2000; step++ {
		switch r := rng.Intn(100); {
		case r < 50:
			seq++
			_, undo := a.Execute(EncodeOp(uint32(rng.Intn(4)), seq, 16))
			undos = append(undos, undo)
		case r < 75 && len(undos) > 0:
			undos[len(undos)-1]()
			undos = undos[:len(undos)-1]
		case r < 78:
			a.DropTail(rng.Intn(4))
			undos = nil
		case r < 80 && len(caps) > 0:
			if err := a.Restore(caps[rng.Intn(len(caps))].bytes); err != nil {
				t.Fatal(err)
			}
			undos = nil
		default:
			f := a.Freeze()
			caps = append(caps, capture{f, f.AppendTo(nil), a.History()})
		}
		cur := a.Freeze()
		b, hist := cur.AppendTo(nil), a.History()
		for i, c := range caps {
			prefix := len(c.hist) <= len(hist)
			for j := 0; prefix && j < len(c.hist); j++ {
				prefix = c.hist[j] == hist[j]
			}
			d, ok := cur.AppendDelta(nil, c.f)
			if ok != prefix {
				t.Fatalf("step %d, capture %d: delta %t, history prefix %t", step, i, ok, prefix)
			}
			if !ok {
				refused++
				continue
			}
			deltas++
			got, err := a.Patch(c.bytes, d)
			if err != nil || !bytes.Equal(got, b) {
				t.Fatalf("step %d, capture %d: patched bytes differ (%v)", step, i, err)
			}
			if dg, err := a.Digest(got); err != nil || dg != cur.Digest() {
				t.Fatalf("step %d, capture %d: patched digest %x, view %x (%v)", step, i, dg, cur.Digest(), err)
			}
		}
		if len(caps) > 10 {
			caps = caps[len(caps)-10:]
		}
	}
	if deltas == 0 || refused == 0 {
		t.Fatalf("%d deltas, %d refused: the walk missed a case", deltas, refused)
	}
	if _, err := a.Patch(caps[0].bytes, []byte{1, 2, 3}); err == nil {
		t.Fatal("Patch accepted a malformed delta")
	}
}
