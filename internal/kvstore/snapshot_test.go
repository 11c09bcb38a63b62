package kvstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"neobft/internal/replication"
	"neobft/internal/wire"
)

var _ replication.Snapshotter = (*Store)(nil)

// refSnapshot is the snapshot encoding checkpoint digests depend on,
// u32 count | (varbytes key | varbytes value)* in key order, built the
// straightforward way from a plain map.
func refSnapshot(m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := wire.NewWriter(0)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.VarBytes([]byte(k))
		w.VarBytes([]byte(m[k]))
	}
	return w.Bytes()
}

// TestSnapshotEncoding: after every kind of write a store takes, its
// snapshot is the reference encoding of what it holds, a frozen view
// encodes the same bytes, the size it tracks is their length, and its
// digest is the one recomputed from them.
func TestSnapshotEncoding(t *testing.T) {
	restored := NewStore()
	restored.Load("r1", []byte("from-restore"))
	restored.Load("r2", nil)
	restoredSnap := restored.Snapshot()

	rows := []struct {
		name string
		run  func(s *Store)
		want map[string]string
	}{
		{"empty", func(s *Store) {}, map[string]string{}},
		{"puts", func(s *Store) {
			s.Execute(EncodePut("b", []byte("22")))
			s.Execute(EncodePut("a", []byte("1")))
			s.Execute(EncodePut("", []byte("empty key")))
		}, map[string]string{"a": "1", "b": "22", "": "empty key"}},
		{"overwrites", func(s *Store) {
			s.Execute(EncodePut("k", []byte("short")))
			s.Execute(EncodePut("k", []byte("a much longer value")))
			s.Execute(EncodePut("j", []byte("long value first")))
			s.Execute(EncodePut("j", nil))
		}, map[string]string{"k": "a much longer value", "j": ""}},
		{"deletes", func(s *Store) {
			s.Execute(EncodePut("a", []byte("1")))
			s.Execute(EncodePut("b", []byte("2")))
			s.Execute(EncodeDelete("a"))
			s.Execute(EncodeDelete("missing"))
		}, map[string]string{"b": "2"}},
		{"undo put", func(s *Store) {
			s.Execute(EncodePut("kept", []byte("v")))
			_, undo := s.Execute(EncodePut("new", []byte("gone again")))
			undo()
		}, map[string]string{"kept": "v"}},
		{"undo overwrite", func(s *Store) {
			s.Execute(EncodePut("k", []byte("old")))
			_, undo := s.Execute(EncodePut("k", []byte("newer and longer")))
			undo()
		}, map[string]string{"k": "old"}},
		{"undo delete", func(s *Store) {
			s.Execute(EncodePut("k", []byte("back")))
			_, undo := s.Execute(EncodeDelete("k"))
			undo()
		}, map[string]string{"k": "back"}},
		{"load", func(s *Store) {
			for i := 0; i < 300; i++ {
				s.Load(fmt.Sprintf("user%04d", i), []byte(fmt.Sprint(i)))
			}
			for i := 0; i < 300; i += 2 {
				s.Execute(EncodeDelete(fmt.Sprintf("user%04d", i)))
			}
		}, func() map[string]string {
			m := map[string]string{}
			for i := 1; i < 300; i += 2 {
				m[fmt.Sprintf("user%04d", i)] = fmt.Sprint(i)
			}
			return m
		}()},
		{"restore", func(s *Store) {
			s.Execute(EncodePut("replaced", []byte("by the restore")))
			if err := s.Restore(restoredSnap); err != nil {
				t.Fatal(err)
			}
		}, map[string]string{"r1": "from-restore", "r2": ""}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s := NewStore()
			row.run(s)
			snap := s.Snapshot()
			if want := refSnapshot(row.want); !bytes.Equal(snap, want) {
				t.Fatalf("snapshot\n%x\nwant\n%x", snap, want)
			}
			f := s.Freeze()
			if n := f.Size(); n != len(snap) {
				t.Fatalf("Size %d, snapshot is %d bytes", n, len(snap))
			}
			if got := f.AppendTo([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), snap...)) {
				t.Fatal("AppendTo does not append the snapshot after its input")
			}
			if d, err := s.Digest(snap); err != nil || d != f.Digest() {
				t.Fatalf("digest %x, recomputed %x (%v)", f.Digest(), d, err)
			}
		})
	}
}

// loadedStore holds records records shaped like the durable benchmark's
// YCSB dataset: 14-byte keys, 128-byte values.
func loadedStore(records int) *Store {
	s := NewStore()
	val := bytes.Repeat([]byte("v"), 128)
	for i := 0; i < records; i++ {
		s.Load(fmt.Sprintf("user%010d", i), val)
	}
	return s
}

// TestCaptureAllocations: a capture allocates a handful of objects, not
// a snapshot-sized buffer, and a frozen view encodes into one buffer
// allocated once at its final size.
func TestCaptureAllocations(t *testing.T) {
	s := loadedStore(10_000)
	table := replication.NewClientTable()
	replication.Capture(s, table) // builds the digest index
	var state replication.Frozen
	allocs := testing.AllocsPerRun(5, func() { state = replication.Capture(s, table) })
	if allocs > 5 {
		t.Fatalf("capture made %.0f allocations", allocs)
	}
	var bundle []byte
	allocs = testing.AllocsPerRun(5, func() { bundle = state.AppendTo(nil) })
	if allocs > 1 {
		t.Fatalf("encoding made %.0f allocations", allocs)
	}
	if want := 8 + len(s.Snapshot()) + len(table.Snapshot()); len(bundle) != want || state.Size() != want || cap(bundle) > want+8192 {
		t.Fatalf("bundle len %d cap %d Size %d, want len %d and no spare growth", len(bundle), cap(bundle), state.Size(), want)
	}
}

var sink [32]byte

// BenchmarkCapture is one checkpoint capture of a store shaped like the
// durable benchmark's, after 128 updates: "incremental" is Capture, and
// "full" also serialises the bundle and hashes all of it, which is what
// a capture costs without an incremental digest.
func BenchmarkCapture(b *testing.B) {
	for _, records := range []int{10_000, 100_000} {
		for _, mode := range []string{"incremental", "full"} {
			b.Run(fmt.Sprintf("records=%d/%s", records, mode), func(b *testing.B) {
				s := loadedStore(records)
				table := replication.NewClientTable()
				replication.Capture(s, table)
				val := bytes.Repeat([]byte("u"), 128)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j := 0; j < 128; j++ {
						val[j%len(val)]++
						s.Execute(EncodePut(fmt.Sprintf("user%010d", (i*128+j)*7919%records), val))
					}
					b.StartTimer()
					state := replication.Capture(s, table)
					if mode == "full" {
						sink = sha256.Sum256(state.AppendTo(nil))
					} else {
						sink = state.Digest()
					}
				}
			})
		}
	}
}
