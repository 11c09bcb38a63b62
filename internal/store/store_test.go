package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neobft/internal/metrics"
)

// fastOpts keeps test stores snappy: no linger, no real fsync.
func fastOpts() Options {
	return Options{FsyncLinger: -1, NoSync: true}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Recovered(); r.Checkpoint != nil || len(r.Ops) != 0 || r.Torn {
		t.Fatalf("fresh dir recovered %+v", r)
	}
	for i := 0; i < 10; i++ {
		if err := s.AppendOp(uint64(i+1), []byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendCheckpoint(100, []byte("ckpt-100")); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 13; i++ {
		if err := s.AppendOp(uint64(i+1), []byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r := s2.Recovered()
	if !bytes.Equal(r.Checkpoint, []byte("ckpt-100")) || r.Slot != 100 {
		t.Fatalf("recovered checkpoint %q slot %d", r.Checkpoint, r.Slot)
	}
	if len(r.Ops) != 3 || !bytes.Equal(r.Ops[0], []byte("op-10")) {
		t.Fatalf("recovered ops %d %q", len(r.Ops), r.Ops)
	}
	if r.Torn {
		t.Fatal("clean shutdown reported torn")
	}
	// The store stays appendable after recovery.
	if err := s2.AppendCheckpoint(132, []byte("ckpt-132")); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointSupersedesOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.AppendOp(uint64(i+1), []byte("old"))
	}
	s.AppendCheckpoint(50, []byte("a"))
	s.AppendCheckpoint(80, []byte("b"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r := s2.Recovered()
	if !bytes.Equal(r.Checkpoint, []byte("b")) || r.Slot != 80 {
		t.Fatalf("want newest checkpoint, got %q slot %d", r.Checkpoint, r.Slot)
	}
	if len(r.Ops) != 0 {
		t.Fatalf("ops below the checkpoint must be dropped, got %d", len(r.Ops))
	}
}

// TestTornTail truncates and corrupts the WAL at seeded random
// offsets and asserts recovery stops at the last fully valid record.
func TestTornTail(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(rng *rand.Rand, path string, size int64) error
	}{
		{"truncate", func(rng *rand.Rand, path string, size int64) error {
			return os.Truncate(path, rng.Int63n(size-1)+1)
		}},
		{"corrupt-byte", func(rng *rand.Rand, path string, size int64) error {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			off := rng.Int63n(size)
			_, err = f.WriteAt([]byte{0xff}, off)
			return err
		}},
		{"truncate-and-corrupt", func(rng *rand.Rand, path string, size int64) error {
			n := rng.Int63n(size-1) + 1
			if err := os.Truncate(path, n); err != nil {
				return err
			}
			if n < 2 {
				return nil
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.WriteAt([]byte{0x00}, rng.Int63n(n))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 20; trial++ {
				dir := t.TempDir()
				s, err := Open(dir, fastOpts())
				if err != nil {
					t.Fatal(err)
				}
				const nRecs = 30
				for i := 0; i < nRecs; i++ {
					if i%7 == 6 {
						s.AppendCheckpoint(uint64(i), []byte(fmt.Sprintf("ckpt-%d", i)))
					} else {
						s.AppendOp(uint64(i), []byte(fmt.Sprintf("payload-%d", i)))
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}

				segs, err := listSegments(dir)
				if err != nil || len(segs) == 0 {
					t.Fatalf("segments: %v %d", err, len(segs))
				}
				seg := segs[len(segs)-1]
				if err := tc.mangle(rng, seg.path, seg.bytes); err != nil {
					t.Fatal(err)
				}

				s2, err := Open(dir, fastOpts())
				if err != nil {
					t.Fatalf("trial %d: recovery failed: %v", trial, err)
				}
				r := s2.Recovered()
				// Every surviving record must be one we wrote, in
				// order — recovery never invents or reorders.
				if r.Records > nRecs {
					t.Fatalf("trial %d: %d records from %d written", trial, r.Records, nRecs)
				}
				if r.Checkpoint != nil && !bytes.HasPrefix(r.Checkpoint, []byte("ckpt-")) {
					t.Fatalf("trial %d: bogus checkpoint %q", trial, r.Checkpoint)
				}
				for _, op := range r.Ops {
					if !bytes.HasPrefix(op, []byte("payload-")) {
						t.Fatalf("trial %d: bogus op %q", trial, op)
					}
				}
				// The tail is writable again: a fresh append and a
				// clean reopen must succeed.
				if err := s2.AppendCheckpoint(999, []byte("ckpt-after")); err != nil {
					t.Fatal(err)
				}
				if err := s2.Close(); err != nil {
					t.Fatal(err)
				}
				s3, err := Open(dir, fastOpts())
				if err != nil {
					t.Fatal(err)
				}
				if got := s3.Recovered().Checkpoint; !bytes.Equal(got, []byte("ckpt-after")) {
					t.Fatalf("trial %d: post-repair checkpoint %q", trial, got)
				}
				s3.Close()
			}
		})
	}
}

func TestSegmentRollAndRetention(t *testing.T) {
	dir := t.TempDir()
	o := fastOpts()
	o.SegmentBytes = 256 // force frequent rolls
	o.SnapshotEvery = 2
	o.KeepSnapshots = 2
	reg := metrics.NewRegistry()
	o.Metrics = reg
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s.AppendOp(uint64(i), bytes.Repeat([]byte{byte(i)}, 64))
		if i%4 == 3 {
			if err := s.AppendCheckpoint(uint64(i), []byte(fmt.Sprintf("ckpt-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) == 0 || len(segs) > 6 {
		t.Fatalf("retention left %d segments", len(segs))
	}
	snaps, _ := listSnapshots(dir, false)
	if len(snaps) == 0 || len(snaps) > 2 {
		t.Fatalf("retention left %d snapshots", len(snaps))
	}
	if g := reg.Gauge("store_wal_segments").Load(); g != int64(len(segs)) {
		t.Fatalf("segment gauge %d, dir has %d", g, len(segs))
	}

	s2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Recovered().Checkpoint; !bytes.Equal(got, []byte("ckpt-39")) {
		t.Fatalf("recovered %q after retention", got)
	}
}

// TestGroupCommit shows fsync amortization: many concurrent
// acknowledged appends complete with far fewer fsyncs than records.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	o := Options{FsyncLinger: 2 * time.Millisecond, Metrics: reg}
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.AppendCheckpoint(uint64(w*each+i), []byte("blob")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	recs := reg.Counter("store_wal_records_total").Load()
	syncs := reg.Counter("store_fsync_total").Load()
	if recs != writers*each {
		t.Fatalf("records %d", recs)
	}
	if syncs == 0 || syncs >= recs {
		t.Fatalf("no group-commit amortization: %d fsyncs for %d records", syncs, recs)
	}
}

func TestSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	o := fastOpts()
	o.SnapshotEvery = 1 // every checkpoint promotes
	o.KeepSnapshots = 3
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendCheckpoint(10, []byte("first"))
	s.AppendCheckpoint(20, []byte("second"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Also delete the WAL so only snapshots remain, then damage the
	// newest: recovery must fall back to the older one.
	segs, _ := listSegments(dir)
	for _, seg := range segs {
		os.Remove(seg.path)
	}
	snaps, _ := listSnapshots(dir, false)
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots", len(snaps))
	}
	if err := os.Truncate(snaps[0].path, 10); err != nil {
		t.Fatal(err)
	}
	// A leftover tmp from an interrupted promotion must be ignored.
	os.WriteFile(filepath.Join(dir, snapName(99)+".tmp"), []byte("junk"), 0o644)

	s2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r := s2.Recovered()
	if !bytes.Equal(r.Checkpoint, []byte("first")) || r.Slot != 10 {
		t.Fatalf("fallback recovered %q slot %d", r.Checkpoint, r.Slot)
	}
	// New appends must land above the recovered snapshot's index.
	if err := s2.AppendCheckpoint(30, []byte("third")); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	s, err := Open(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCheckpoint(1, []byte("x")); err != ErrClosed {
		t.Fatalf("append on closed store: %v", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestDurableAppJournals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	app := Durable(&countingApp{}, s)
	for i := 0; i < 5; i++ {
		app.Execute([]byte(fmt.Sprintf("op-%d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r := s2.Recovered()
	if len(r.Ops) != 5 || !bytes.Equal(r.Ops[4], []byte("op-4")) {
		t.Fatalf("journal %d ops %q", len(r.Ops), r.Ops)
	}
}

// TestAppendOpDoesNotWaitForFsync: an op append returns while the group
// committer's fsync is in flight, and a checkpoint written meanwhile is
// acknowledged only once an fsync that covers it has completed.
func TestAppendOpDoesNotWaitForFsync(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	fsync = func(f *os.File) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return f.Sync()
	}
	defer func() { fsync = (*os.File).Sync }()
	reg := metrics.NewRegistry()
	s, err := Open(t.TempDir(), Options{FsyncLinger: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer unblock()

	if err := s.AppendOp(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the committer never fsynced")
	}
	op := make(chan error, 1)
	go func() { op <- s.AppendOp(2, []byte("b")) }()
	select {
	case err := <-op:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AppendOp waited for the fsync in flight")
	}
	ckpt := make(chan error, 1)
	go func() { ckpt <- s.AppendCheckpoint(3, []byte("c")) }()
	records := reg.Counter("store_wal_records_total")
	for records.Load() < 3 {
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-ckpt:
		t.Fatalf("checkpoint acknowledged (%v) while every fsync was blocked", err)
	default:
	}
	unblock()
	select {
	case err := <-ckpt:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint never acknowledged")
	}
}

// TestConcurrentAppendRollClose appends ops and checkpoints from several
// goroutines across segment rolls, with slow fsyncs and a Close racing
// the writers. Every acknowledged checkpoint lies inside what a completed
// fsync of its segment covered when it was acknowledged, and the WAL
// holds every append that succeeded, with dense indexes.
func TestConcurrentAppendRollClose(t *testing.T) {
	var mu sync.Mutex
	synced := map[string]int64{} // segment path → bytes a completed fsync covered
	fsync = func(f *os.File) error {
		info, err := f.Stat()
		if err != nil {
			return err
		}
		time.Sleep(200 * time.Microsecond)
		if err := f.Sync(); err != nil {
			return err
		}
		mu.Lock()
		synced[f.Name()] = max(synced[f.Name()], info.Size())
		mu.Unlock()
		return nil
	}
	defer func() { fsync = (*os.File).Sync }()
	dir := t.TempDir()
	o := Options{SegmentBytes: 2048, SnapshotEvery: 1 << 30, FsyncLinger: 100 * time.Microsecond}
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ackMu sync.Mutex
	covered := map[string]map[string]int64{} // checkpoint payload → synced when acknowledged
	var appended atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				var err error
				if i%5 == 4 {
					p := fmt.Sprintf("ckpt-%d-%d", w, i)
					if err = s.AppendCheckpoint(uint64(i), []byte(p)); err == nil {
						mu.Lock()
						cov := maps.Clone(synced)
						mu.Unlock()
						ackMu.Lock()
						covered[p] = cov
						ackMu.Unlock()
					}
				} else {
					err = s.AppendOp(uint64(i), []byte(fmt.Sprintf("op-%d-%d", w, i)))
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				appended.Add(1)
			}
		}(w)
	}
	for appended.Load() < 400 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("%d segments: the writers never rolled", len(segs))
	}
	next, acked := uint64(1), 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			rec, n, err := readFrame(data[off:])
			if err != nil {
				t.Fatalf("%s at %d: %v", seg.path, off, err)
			}
			off += n
			if rec.Index != next {
				t.Fatalf("WAL index %d follows %d", rec.Index, next-1)
			}
			next++
			if cov, ok := covered[string(rec.Payload)]; ok {
				acked++
				if cov[seg.path] < int64(off) {
					t.Fatalf("%s acknowledged with %d bytes of %s synced, record ends at %d",
						rec.Payload, cov[seg.path], seg.path, off)
				}
			}
		}
	}
	if got := int64(next - 1); got != appended.Load() {
		t.Fatalf("WAL holds %d records, %d appends succeeded", got, appended.Load())
	}
	if acked != len(covered) {
		t.Fatalf("%d of %d acknowledged checkpoints found in the WAL", acked, len(covered))
	}
	s2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if r := s2.Recovered(); r.Torn || int64(r.Records) != appended.Load() {
		t.Fatalf("reopened: torn=%v, %d records", r.Torn, r.Records)
	}
}

type countingApp struct{ n int }

func (a *countingApp) Execute(op []byte) ([]byte, func()) {
	a.n++
	return []byte("ok"), nil
}

// BenchmarkWALAppend measures the acknowledged (group-committed)
// checkpoint append path — one of the bench-gate metrics.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{FsyncLinger: 200 * time.Microsecond, SegmentBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte{0xab}, 1024)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			if err := s.AppendCheckpoint(i, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
