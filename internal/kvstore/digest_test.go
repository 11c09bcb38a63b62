package kvstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"neobft/internal/replication"
)

// refDigest computes the state digest of a map the way the package
// comment of digest.go defines it, from scratch: it shares no code with
// the incremental index.
func refDigest(m map[string]string) [32]byte {
	var buckets [4096][]string
	for k := range m {
		h := fnv.New64a()
		h.Write([]byte(k))
		b := h.Sum64() % 4096
		buckets[b] = append(buckets[b], k)
	}
	root := sha256.New()
	root.Write([]byte("neobft-kvstore-v1"))
	root.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(m))))
	for g := 0; g < 64; g++ {
		group := sha256.New()
		for b := g * 64; b < (g+1)*64; b++ {
			var leaf [32]byte
			if keys := buckets[b]; len(keys) > 0 {
				sort.Strings(keys)
				var rec []byte
				for _, k := range keys {
					rec = binary.LittleEndian.AppendUint32(rec, uint32(len(k)))
					rec = append(rec, k...)
					rec = binary.LittleEndian.AppendUint32(rec, uint32(len(m[k])))
					rec = append(rec, m[k]...)
				}
				leaf = sha256.Sum256(rec)
			}
			group.Write(leaf[:])
		}
		root.Write(group.Sum(nil))
	}
	var d [32]byte
	root.Sum(d[:0])
	return d
}

// captured is a frozen view with the bytes Snapshot returned when it was
// taken.
type captured struct {
	f     replication.Frozen
	bytes []byte
}

// checkCapture freezes s, which holds m, and checks the view: its bytes
// are Snapshot's, its size is their length, its digest is both the one
// recomputed from them and the reference digest of m, and every earlier
// view in caps still encodes the bytes it had when taken.
func checkCapture(t testing.TB, s *Store, m map[string]string, caps []captured) captured {
	t.Helper()
	snap := s.Snapshot()
	f := s.Freeze()
	b := f.AppendTo(nil)
	if !bytes.Equal(b, snap) || !bytes.Equal(snap, refSnapshot(m)) {
		t.Fatal("frozen bytes differ from Snapshot or from the reference encoding")
	}
	if f.Size() != len(b) {
		t.Fatalf("Size %d, %d bytes", f.Size(), len(b))
	}
	if d, err := s.Digest(b); err != nil || d != f.Digest() {
		t.Fatalf("kept digest %x, recomputed %x (%v)", f.Digest(), d, err)
	}
	if want := refDigest(m); f.Digest() != want {
		t.Fatalf("digest %x, reference %x", f.Digest(), want)
	}
	for i, c := range caps {
		if !bytes.Equal(c.f.AppendTo(nil), c.bytes) {
			t.Fatalf("capture %d changed after it was taken", i)
		}
	}
	return captured{f, b}
}

// runOps drives a store and a model map with the operations prog
// encodes, two bytes each, capturing after each one. The first byte
// picks how many of the 256 keys are preloaded, so the tree has one to
// three levels and writes split, merge and rotate nodes that captures
// share.
func runOps(t testing.TB, prog []byte) { runOpsWith(t, prog, nil) }

// runOpsWith is runOps calling after with each capture and the captures
// kept before it.
func runOpsWith(t testing.TB, prog []byte, after func(c captured, caps []captured)) {
	s, m := NewStore(), map[string]string{}
	if len(prog) > 0 {
		for i := 0; i < int(prog[0]%4)*64; i++ {
			key := fmt.Sprintf("k%03d", i)
			s.Load(key, []byte(key))
			m[key] = key
		}
	}
	type undoRec struct {
		undo   func()
		before map[string]string
	}
	var undos []undoRec
	var caps []captured
	clone := func() map[string]string {
		c := make(map[string]string, len(m))
		for k, v := range m {
			c[k] = v
		}
		return c
	}
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i]%8, prog[i+1]
		key := fmt.Sprintf("k%03d", arg)
		val := fmt.Sprintf("v%d", arg)
		switch op {
		case 0, 1:
			before := clone()
			_, undo := s.Execute(EncodePut(key, []byte(val)))
			m[key] = val
			undos = append(undos, undoRec{undo, before})
		case 2:
			before := clone()
			_, undo := s.Execute(EncodeDelete(key))
			delete(m, key)
			if undo != nil {
				undos = append(undos, undoRec{undo, before})
			}
		case 3:
			if n := len(undos); n > 0 {
				undos[n-1].undo()
				m = undos[n-1].before
				undos = undos[:n-1]
			}
		case 4:
			s.Load(key, []byte(val))
			m[key] = val
			undos = nil
		case 5:
			if len(caps) > 0 {
				c := caps[int(arg)%len(caps)]
				if err := s.Restore(c.bytes); err != nil {
					t.Fatal(err)
				}
				m = map[string]string{}
				if err := decodeSnapshot(c.bytes, func(k string, v []byte) { m[k] = string(v) }); err != nil {
					t.Fatal(err)
				}
				undos = nil
			}
		}
		c := checkCapture(t, s, m, caps)
		if after != nil {
			after(c, caps)
		}
		if op >= 5 {
			caps = append(caps, c)
			if len(caps) > 8 {
				caps = caps[1:]
			}
		}
	}
}

// TestDigestProperty: through random executes, undos, loads and
// restores with captures in between, the digest the store keeps current
// is the one recomputed from the captured bytes and the reference one,
// and captured views never change.
func TestDigestProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 12; run++ {
		prog := make([]byte, 500)
		rng.Read(prog)
		runOps(t, prog)
	}
}

// FuzzDigest runs the property of TestDigestProperty on fuzzed
// operation sequences.
func FuzzDigest(f *testing.F) {
	f.Add([]byte{0, 1, 6, 0, 2, 1, 6, 0})
	f.Add([]byte{0, 1, 0, 25, 3, 0, 3, 0, 7, 0, 2, 1, 5, 0})
	f.Add([]byte{4, 1, 4, 2, 6, 0, 0, 3, 5, 0, 2, 2, 3, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		runOps(t, prog)
	})
}

// TestDigestEmptiedBucket: a bucket emptied by Delete or by an undo
// hashes as one never used, so the digest is that of a store that never
// held the record, whether or not a capture saw the record.
func TestDigestEmptiedBucket(t *testing.T) {
	base := NewStore()
	base.Execute(EncodePut("kept", []byte("1")))
	want := base.Freeze().Digest()

	for _, captureBetween := range []bool{false, true} {
		deleted := NewStore()
		deleted.Execute(EncodePut("kept", []byte("1")))
		deleted.Freeze()
		deleted.Execute(EncodePut("gone", []byte("2")))
		if captureBetween {
			deleted.Freeze()
		}
		deleted.Execute(EncodeDelete("gone"))

		undone := NewStore()
		undone.Execute(EncodePut("kept", []byte("1")))
		undone.Freeze()
		_, undo := undone.Execute(EncodePut("gone", []byte("2")))
		if captureBetween {
			undone.Freeze()
		}
		undo()

		for name, s := range map[string]*Store{"delete": deleted, "undo": undone} {
			if got := s.Freeze().Digest(); got != want {
				t.Errorf("%s (capture between %t): digest %x, want %x", name, captureBetween, got, want)
			}
		}
	}
	if NewStore().Freeze().Digest() != refDigest(map[string]string{}) {
		t.Fatal("empty store digest differs from the reference")
	}
}

// TestDigestRefusesNonCanonical: a snapshot has one encoding, so Digest
// and Restore refuse keys out of order or repeated, and trailing bytes.
func TestDigestRefusesNonCanonical(t *testing.T) {
	enc := func(kv ...string) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(kv)/2))
		for i := 0; i < len(kv); i += 2 {
			b = appendRecord(b, kv[i], []byte(kv[i+1]))
		}
		return b
	}
	for name, data := range map[string][]byte{
		"out of order": enc("b", "1", "a", "2"),
		"repeated key": enc("a", "1", "a", "2"),
		"trailing":     append(enc("a", "1"), 0),
		"truncated":    enc("a", "1")[:9],
	} {
		s := NewStore()
		if _, err := s.Digest(data); err == nil {
			t.Errorf("%s: Digest accepted it", name)
		}
		if err := s.Restore(data); err == nil {
			t.Errorf("%s: Restore accepted it", name)
		}
	}
}

// TestFrozenEncodeRace: a frozen view encodes on another goroutine, with
// no lock, while the live store executes puts, deletes and undos, and
// its bytes are those the store held when it was frozen.
func TestFrozenEncodeRace(t *testing.T) {
	s := loadedStore(2_000)
	for round := 0; round < 4; round++ {
		want := s.Snapshot()
		f := s.Freeze()
		var wg sync.WaitGroup
		wg.Add(1)
		done := make(chan struct{})
		encodings, differ := 0, 0
		go func() {
			defer wg.Done()
			var got []byte
			for {
				got = f.AppendTo(got[:0])
				encodings++
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
		rng := rand.New(rand.NewSource(int64(round)))
		for i := 0; i < 3000; i++ {
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
		close(done)
		wg.Wait()
		if differ != 0 {
			t.Fatalf("round %d: %d of %d encodings of the frozen view differ from the state at freeze", round, differ, encodings)
		}
	}
}
