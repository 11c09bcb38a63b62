package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// checkDelta checks that cur's delta from since patches since's bytes
// into cur's, which digest to cur's digest.
func checkDelta(t testing.TB, s *Store, cur, since captured) {
	t.Helper()
	d, ok := cur.f.AppendDelta(nil, since.f)
	if !ok {
		t.Fatal("no delta between two views of a store")
	}
	got, err := s.Patch(since.bytes, d)
	if err != nil {
		t.Fatalf("Patch refused an honest delta: %v", err)
	}
	if !bytes.Equal(got, cur.bytes) {
		t.Fatal("patched snapshot differs from the newer view's")
	}
	if dg, err := s.Digest(got); err != nil || dg != cur.f.Digest() {
		t.Fatalf("patched snapshot digests to %x, view %x (%v)", dg, cur.f.Digest(), err)
	}
}

// runDeltaOps runs prog as runOps does and checks the delta of every
// capture from the one before it and from one of the captures kept, in
// turn, some of them taken before a Restore.
func runDeltaOps(t testing.TB, prog []byte) {
	var prev *captured
	n := 0
	runOpsWith(t, prog, func(c captured, caps []captured) {
		s := NewStore()
		if prev != nil {
			checkDelta(t, s, c, *prev)
		}
		if len(caps) > 0 {
			checkDelta(t, s, c, caps[n%len(caps)])
		}
		prev, n = &c, n+1
	})
}

// TestDeltaProperty: through random executes, undos, loads and restores
// with freezes between them, a view's delta from any earlier view
// patches that view's snapshot into its own, digest included.
func TestDeltaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for run := 0; run < 6; run++ {
		prog := make([]byte, 400)
		rng.Read(prog)
		runDeltaOps(t, prog)
	}
}

// FuzzDelta runs the property of TestDeltaProperty on fuzzed operation
// sequences.
func FuzzDelta(f *testing.F) {
	f.Add([]byte{0, 1, 6, 0, 2, 1, 6, 0})
	f.Add([]byte{3, 1, 0, 25, 3, 0, 2, 7, 7, 0, 2, 1, 5, 0, 0, 9})
	f.Add([]byte{2, 1, 4, 2, 6, 0, 0, 3, 5, 0, 2, 2, 3, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		runDeltaOps(t, prog)
	})
}

// TestDeltaEmptiedBucket: deleting a bucket's only record, before or
// after a freeze, travels as a delete that patches to the snapshot of a
// store that never held it.
func TestDeltaEmptiedBucket(t *testing.T) {
	s := NewStore()
	s.Execute(EncodePut("kept", []byte("1")))
	s.Execute(EncodePut("gone", []byte("2")))
	since := captured{f: s.Freeze()}
	since.bytes = since.f.AppendTo(nil)
	s.Execute(EncodeDelete("gone"))
	_, undo := s.Execute(EncodePut("brief", []byte("3")))
	undo()
	cur := captured{f: s.Freeze()}
	cur.bytes = cur.f.AppendTo(nil)
	checkDelta(t, s, cur, since)
	if want := refDigest(map[string]string{"kept": "1"}); cur.f.Digest() != want {
		t.Fatalf("digest %x, reference %x", cur.f.Digest(), want)
	}
	d, _ := cur.f.AppendDelta(nil, since.f)
	if want := encDelta([]string{}, "gone"); !bytes.Equal(d, want) {
		t.Fatalf("delta %x, want one delete %x", d, want)
	}
}

// encDelta encodes a delta: puts as key, value pairs, then deletes.
func encDelta(puts []string, dels ...string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(puts)/2))
	for i := 0; i+1 < len(puts); i += 2 {
		b = appendRecord(b, puts[i], []byte(puts[i+1]))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dels)))
	for _, k := range dels {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
	}
	return b
}

// TestPatchRefusesMalformed: a delta is read back from disk, so Patch
// refuses one that is not the canonical delta of some change to the
// snapshot.
func TestPatchRefusesMalformed(t *testing.T) {
	snap := refSnapshot(map[string]string{"a": "1", "c": "3"})
	s := NewStore()
	if got, err := s.Patch(snap, encDelta([]string{"b", "2"}, "c")); err != nil ||
		!bytes.Equal(got, refSnapshot(map[string]string{"a": "1", "b": "2"})) {
		t.Fatalf("honest delta: %x, %v", got, err)
	}
	for name, delta := range map[string][]byte{
		"puts out of order":    encDelta([]string{"d", "4", "b", "2"}),
		"put repeated":         encDelta([]string{"b", "2", "b", "3"}),
		"deletes out of order": encDelta(nil, "c", "a"),
		"delete repeated":      encDelta(nil, "a", "a"),
		"put and delete":       encDelta([]string{"a", "9"}, "a"),
		"delete of absent key": encDelta(nil, "b"),
		"delete past the end":  encDelta(nil, "z"),
		"trailing":             append(encDelta(nil, "a"), 0),
		"truncated":            encDelta([]string{"b", "2"})[:9],
		"count beyond data":    binary.LittleEndian.AppendUint32(nil, 1<<30),
		"empty":                nil,
	} {
		if _, err := s.Patch(snap, delta); err == nil {
			t.Errorf("%s: Patch accepted it", name)
		}
	}
	if _, err := s.Patch(append(snap, 0), encDelta(nil)); err == nil {
		t.Error("Patch accepted a malformed snapshot")
	}
}

// TestFrozenDeltaRace: the diff of two frozen views runs on another
// goroutine, with no lock, while the live store executes puts, deletes
// and undos, and yields the delta of the states frozen.
func TestFrozenDeltaRace(t *testing.T) {
	s := loadedStore(2_000)
	since := s.Freeze()
	rng := rand.New(rand.NewSource(1))
	write := func(i int) {
		key := fmt.Sprintf("user%010d", rng.Intn(2_500))
		var undo func()
		if rng.Intn(3) == 0 {
			_, undo = s.Execute(EncodeDelete(key))
		} else {
			_, undo = s.Execute(EncodePut(key, []byte(fmt.Sprint(i))))
		}
		if undo != nil && rng.Intn(2) == 0 {
			undo()
		}
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 200; i++ {
			write(i)
		}
		cur := s.Freeze()
		want, _ := cur.AppendDelta(nil, since)
		var wg sync.WaitGroup
		wg.Add(1)
		done := make(chan struct{})
		diffs, differ := 0, 0
		go func() {
			defer wg.Done()
			var got []byte
			for {
				got, _ = cur.AppendDelta(got[:0], since)
				diffs++
				if !bytes.Equal(got, want) {
					differ++
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		for i := 0; i < 3000; i++ {
			write(i)
		}
		close(done)
		wg.Wait()
		if differ != 0 {
			t.Fatalf("round %d: %d of %d deltas differ from the delta at freeze", round, differ, diffs)
		}
		since = cur
	}
}

// mergeDelta is AppendDelta without the shared-subtree skip: a merge
// walk over every record of both views.
func mergeDelta(buf []byte, cur, old *frozen) []byte {
	first := func(c *cursor) *item {
		for {
			sub, _, it := c.unit()
			if sub == nil {
				return it
			}
			c.enter()
		}
	}
	a, b := newCursor(cur.root), newCursor(old.root)
	off := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	var puts uint32
	var dels []string
	for ia, ib := first(a), first(b); ia != nil || ib != nil; ia, ib = first(a), first(b) {
		switch {
		case ib == nil || ia != nil && ia.key < ib.key:
			buf = appendRecord(buf, ia.key, ia.value)
			puts++
			a.next()
		case ia == nil || ib.key < ia.key:
			dels = append(dels, ib.key)
			b.next()
		default:
			if !bytes.Equal(ia.value, ib.value) {
				buf = appendRecord(buf, ia.key, ia.value)
				puts++
			}
			a.next()
			b.next()
		}
	}
	binary.LittleEndian.PutUint32(buf[off:], puts)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dels)))
	for _, k := range dels {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
	}
	return buf
}

// BenchmarkDelta is the delta between two frozen views of a store shaped
// like the durable benchmark's, 128 updates apart: "shared-skip" is
// AppendDelta, "merge" a walk over every record of both views.
func BenchmarkDelta(b *testing.B) {
	for _, records := range []int{10_000, 100_000} {
		for _, mode := range []string{"shared-skip", "merge"} {
			b.Run(fmt.Sprintf("records=%d/%s", records, mode), func(b *testing.B) {
				s := loadedStore(records)
				since := s.Freeze().(*frozen)
				val := bytes.Repeat([]byte("u"), 128)
				var buf []byte
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j := 0; j < 128; j++ {
						val[j%len(val)]++
						s.Execute(EncodePut(fmt.Sprintf("user%010d", (i*128+j)*7919%records), val))
					}
					cur := s.Freeze().(*frozen)
					b.StartTimer()
					if mode == "merge" {
						buf = mergeDelta(buf[:0], cur, since)
					} else {
						buf, _ = cur.AppendDelta(buf[:0], since)
					}
					since = cur
				}
			})
		}
	}
}
