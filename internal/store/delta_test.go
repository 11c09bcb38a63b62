package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// chain reports a recovered chain as the full's payload and each delta's
// base→slot:payload.
func chain(r Recovered) string {
	s := fmt.Sprintf("%s@%d", r.Checkpoint, r.Slot)
	for _, d := range r.Deltas {
		s += fmt.Sprintf(" %d→%d:%s", d.Base, d.Slot, d.Payload)
	}
	return s
}

// TestDeltaChainRecovered: recovery returns the newest full checkpoint
// and the deltas after it that chain onto it, oldest first, reports the
// last one's slot, and drops ops below the chain's end; deltas are not
// promoted to snapshots.
func TestDeltaChainRecovered(t *testing.T) {
	dir := t.TempDir()
	o := fastOpts()
	o.SnapshotEvery = 2
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendCheckpoint(10, []byte("full10"))
	s.AppendOp(1, []byte("op1"))
	for slot := uint64(20); slot <= 50; slot += 10 {
		if err := s.AppendDelta(slot-10, slot, []byte(fmt.Sprint("d", slot))); err != nil {
			t.Fatal(err)
		}
	}
	s.AppendOp(2, []byte("op2"))
	s.Close()
	if snaps, _ := listSnapshots(dir, false); len(snaps) != 0 {
		t.Fatalf("%d snapshots after one full and four deltas", len(snaps))
	}
	s2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r := s2.Recovered()
	if got, want := chain(r), "full10@50 10→20:d20 20→30:d30 30→40:d40 40→50:d50"; got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
	if r.Index != r.Deltas[3].Index || len(r.Ops) != 1 || string(r.Ops[0]) != "op2" {
		t.Fatalf("index %d, ops %q", r.Index, r.Ops)
	}
}

// TestDeltaBaseMismatch: a delta whose base is not the record before it
// ends the chain: one that lost a race with a full, and every delta
// after it until the next full.
func TestDeltaBaseMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.AppendCheckpoint(10, []byte("full10"))
	s.AppendDelta(10, 20, []byte("d20"))
	s.AppendCheckpoint(30, []byte("full30")) // a graceful stop's full
	s.AppendDelta(20, 30, []byte("late"))    // taken against slot 20
	s.AppendDelta(30, 40, []byte("d40"))     // would chain, but follows a break
	s.Close()
	s2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := chain(s2.Recovered()), "full30@30"; got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
	// A new full restarts the chain.
	s2.AppendCheckpoint(50, []byte("full50"))
	s2.AppendDelta(50, 60, []byte("d60"))
	s2.Close()
	s3, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got, want := chain(s3.Recovered()), "full50@60 50→60:d60"; got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
}

// TestDeltaSnapshotFallback: when the newest snapshot is damaged and
// recovery falls back to an older one, the deltas taken against the
// newer full do not chain onto it.
func TestDeltaSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	o := fastOpts()
	o.SnapshotEvery = 1
	o.KeepSnapshots = 3
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendCheckpoint(10, []byte("full10"))
	s.AppendCheckpoint(20, []byte("full20"))
	s.AppendDelta(20, 30, []byte("d30"))
	s.Close()
	snaps, _ := listSnapshots(dir, false)
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots", len(snaps))
	}
	// Only the delta survives in the WAL; the newest snapshot is torn.
	segs, _ := listSegments(dir)
	data, _ := os.ReadFile(segs[len(segs)-1].path)
	var recs []Record
	for len(data) > 0 {
		r, n, err := readFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		recs, data = append(recs, r), data[n:]
	}
	for _, seg := range segs {
		os.Remove(seg.path)
	}
	last := recs[len(recs)-1]
	if last.Kind != RecordDelta {
		t.Fatalf("last record kind %d", last.Kind)
	}
	os.WriteFile(filepath.Join(dir, segName(snaps[1].index+1)), appendFrame(nil, Record{
		Index: snaps[1].index + 1, Slot: last.Slot, Kind: RecordDelta, Base: last.Base, Payload: last.Payload}), 0o644)
	os.Truncate(snaps[0].path, 10)
	s2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := chain(s2.Recovered()), "full10@10"; got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
}

// TestDeltaTornAtEveryByte: a tear anywhere in the last delta record
// recovers the chain before it.
func TestDeltaTornAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.AppendCheckpoint(10, []byte("full10"))
	s.AppendDelta(10, 20, []byte("d20"))
	s.AppendDelta(20, 30, []byte("d30"))
	s.Close()
	segs, _ := listSegments(dir)
	whole, _ := os.ReadFile(segs[0].path)
	last := len(appendFrame(nil, Record{Kind: RecordDelta, Payload: []byte("d30")}))
	for cut := len(whole) - last; cut < len(whole); cut++ {
		d := t.TempDir()
		os.WriteFile(filepath.Join(d, filepath.Base(segs[0].path)), whole[:cut], 0o644)
		s2, err := Open(d, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		r := s2.Recovered()
		if got, want := chain(r), "full10@20 10→20:d20"; got != want || r.Torn != (cut > len(whole)-last) {
			t.Fatalf("cut at %d of %d: recovered %s (torn %t), want %s", cut, len(whole), got, r.Torn, want)
		}
		s2.Close()
	}
}

// TestSyncDirReportsErrors: a failed directory fsync is returned, from
// syncDir and from the snapshot promotion it ends, except the EINVAL and
// ENOTSUP of filesystems that cannot sync directories.
func TestSyncDirReportsErrors(t *testing.T) {
	defer func() { dirSync = (*os.File).Sync }()
	for _, tc := range []struct {
		err  error
		fail bool
	}{{nil, false}, {syscall.EINVAL, false}, {syscall.ENOTSUP, false}, {syscall.EIO, true}, {syscall.EACCES, true}} {
		dirSync = func(*os.File) error { return tc.err }
		if err := syncDir(t.TempDir()); (err != nil) != tc.fail || tc.fail && !errors.Is(err, tc.err) {
			t.Errorf("syncDir with %v returned %v", tc.err, err)
		}
		o := fastOpts()
		o.SnapshotEvery = 1
		s, err := Open(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendCheckpoint(1, []byte("c")); (err != nil) != tc.fail {
			t.Errorf("promotion with directory fsync %v returned %v", tc.err, err)
		}
		s.Close()
	}
}

// The delta frame carries its base after the kind byte.
func TestDeltaFrameRoundTrip(t *testing.T) {
	rec := Record{Index: 4, Slot: 30, Kind: RecordDelta, Base: 20, Payload: []byte("d30")}
	got, n, err := readFrame(appendFrame(nil, rec))
	if err != nil || n != len(appendFrame(nil, rec)) || got.Base != 20 || got.Slot != 30 || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("round trip: %+v, %d, %v", got, n, err)
	}
	short := appendFrame(nil, Record{Index: 1, Kind: RecordOp})
	short[frameHeader+16] = RecordDelta // a delta with no room for its base
	if _, _, err := readFrame(fixCRC(short)); err != errTorn {
		t.Fatalf("short delta frame: %v", err)
	}
}

// fixCRC rewrites a single frame's checksum to match its body.
func fixCRC(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[frameHeader:], crcTable))
	return frame
}
