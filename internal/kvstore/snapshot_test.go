package kvstore

import (
	"bytes"
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
// snapshot is the reference encoding of what it holds, and the size it
// tracks is the snapshot's length.
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
			if n := s.SnapshotSize(); n != len(snap) {
				t.Fatalf("SnapshotSize %d, snapshot is %d bytes", n, len(snap))
			}
			if got := s.AppendSnapshot([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), snap...)) {
				t.Fatal("AppendSnapshot does not append the snapshot after its input")
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

var captured []byte

// TestCaptureAllocations: a checkpoint capture writes the snapshot
// straight into a bundle allocated once at its final size, so a 1.5 MB
// store costs a handful of allocations, not a doubling buffer's dozens
// and a second copy.
func TestCaptureAllocations(t *testing.T) {
	s := loadedStore(10_000)
	table := replication.NewClientTable()
	allocs := testing.AllocsPerRun(5, func() { captured = replication.CaptureSnapshot(s, table) })
	if allocs > 5 {
		t.Fatalf("capture made %.0f allocations", allocs)
	}
	if want := 8 + s.SnapshotSize() + len(table.Snapshot()); len(captured) != want || cap(captured) > want+8192 {
		t.Fatalf("bundle len %d cap %d, want len %d and no spare growth", len(captured), cap(captured), want)
	}
}

// BenchmarkCapture is one checkpoint capture of the durable benchmark's
// 10 000-record store.
func BenchmarkCapture(b *testing.B) {
	s := loadedStore(10_000)
	table := replication.NewClientTable()
	b.SetBytes(int64(s.SnapshotSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		captured = replication.CaptureSnapshot(s, table)
	}
}
