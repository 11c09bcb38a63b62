package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"neobft/internal/metrics"
	"neobft/internal/tracing"
)

// Options tunes a Store. The zero value is usable: 4 MiB segments,
// 1 ms fsync linger, batches cut at 256 pending appends, a snapshot
// promoted every 4 checkpoint records, 2 snapshots retained.
type Options struct {
	// SegmentBytes rolls the active WAL segment once it exceeds this
	// size. Retention deletes whole segments, so smaller segments
	// reclaim space sooner at the cost of more files.
	SegmentBytes int64
	// FsyncLinger is how long the group committer waits for more
	// appends before cutting an fsync batch — the same role
	// internal/batch's linger plays on the request path. 0 means
	// fsync as soon as the committer wakes; <0 disables the wait
	// entirely (every append can end up alone in its batch).
	FsyncLinger time.Duration
	// MaxBatch cuts the fsync batch early once this many appends are
	// pending, bounding ack latency under bursts.
	MaxBatch int
	// NoSync skips fsync entirely (tests, tmpfs benchmarks). Appends
	// are still framed and written; durability is up to the OS.
	NoSync bool
	// SnapshotEvery promotes every Nth checkpoint record into a
	// standalone snapshot file, which is what allows WAL segments
	// below it to be deleted.
	SnapshotEvery int
	// KeepSnapshots is how many snapshot files to retain (newest
	// first). Older ones are deleted after a successful promotion.
	KeepSnapshots int
	// Metrics, when set, receives store_wal_append/store_fsync
	// histograms plus segment/byte/snapshot gauges.
	Metrics *metrics.Registry
	// Tracer, when set, gets an Always span on the persist phase for
	// each checkpoint append and snapshot promotion.
	Tracer *tracing.Tracer
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FsyncLinger == 0 {
		o.FsyncLinger = time.Millisecond
	}
	if o.FsyncLinger < 0 {
		o.FsyncLinger = 0
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 4
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 2
	}
	return o
}

// Recovered is what Open found on disk: the newest durable full
// checkpoint (snapshot file or WAL checkpoint record, whichever is
// newer), the chain of delta records after it, and the op journal
// suffix above the chain.
type Recovered struct {
	// Checkpoint is the newest full Persist() blob, nil if the
	// directory held no usable checkpoint.
	Checkpoint []byte
	// Deltas are the delta records after Checkpoint, oldest first,
	// each applying to the one before it (the first to Checkpoint).
	// The chain stops at the first delta whose Base is not the Slot of
	// the record before it.
	Deltas []Record
	// Slot is the protocol watermark of the chain's last record: the
	// last delta's, else the checkpoint's.
	Slot uint64
	// Index is the WAL index of the chain's last record (0 if none).
	Index uint64
	// Ops are the journaled op payloads with WAL index above the
	// chain, oldest first. They are not replayed into the protocol
	// (see the package comment); they are exposed for tooling and
	// tests.
	Ops [][]byte
	// Records is the total number of valid WAL records scanned.
	Records int
	// Torn reports that a damaged tail was truncated during recovery.
	Torn bool
}

// ErrClosed is returned by appends on a closed Store.
var ErrClosed = errors.New("store: closed")

// waiter tracks one pending append through the group committer.
type waiter struct {
	enq time.Time
	ack chan error // nil for write-behind op appends
}

// rolled is a segment the writer has moved past, with the appends it
// holds that no fsync has covered yet.
type rolled struct {
	f     *os.File
	batch []waiter
}

// fsync is (*os.File).Sync; a test swaps it to slow the disk.
var fsync = (*os.File).Sync

// Store is a single replica's durable state: one directory holding
// WAL segments and snapshot files. All methods are safe for
// concurrent use.
//
// Appends take mu only to write; no fsync ever runs under it, so an
// append (AppendOp on a replica's apply loop among them) never waits for
// the disk. The fsyncs are ordered by syncMu instead, which is always
// taken before mu.
type Store struct {
	dir string
	o   Options

	// syncMu is held across each flush's fsyncs. It keeps a segment from
	// being closed under an fsync in flight (by a flush of the segments
	// rolled past, or by Close), and it makes a rolled segment durable
	// before an append in a later one is acknowledged: recovery drops
	// every segment after a torn one.
	syncMu sync.Mutex

	mu        sync.Mutex
	f         *os.File // active segment
	segs      []segment
	active    int // index into segs of the active segment
	next      uint64
	pending   []waiter // appends in f awaiting an fsync
	spare     []waiter // the last flushed batch's buffer, for the next pending
	rolled    []rolled // segments rolled past, oldest first, for flush to sync and close
	buf       []byte   // frame staging, reused
	err       error    // sticky write-path failure
	closed    bool
	ckptCount int // full checkpoint records since last promotion
	walBytes  int64

	promoteMu sync.Mutex // serialises snapshot promotion + retention

	wake chan struct{} // signals the committer that work is pending
	cut  chan struct{} // signals MaxBatch reached: cut now
	quit chan struct{}
	done chan struct{}

	recovered Recovered

	hAppend, hFsync, hBatch          *metrics.Histogram
	cRecords, cFsyncs, cTorn         *metrics.Counter
	gSegments, gWalBytes, gSnapshots *metrics.Gauge
	tracer                           *tracing.Tracer
}

// Open creates or recovers the store rooted at dir. The directory is
// created if absent. Recovery result is available via Recovered().
func Open(dir string, o Options) (*Store, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		o:      o,
		wake:   make(chan struct{}, 1),
		cut:    make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		tracer: o.Tracer,
	}
	if r := o.Metrics; r != nil {
		s.hAppend = r.Histogram("store_wal_append_ns")
		s.hFsync = r.Histogram("store_fsync_ns")
		s.hBatch = r.Histogram("store_fsync_batch")
		s.cRecords = r.Counter("store_wal_records_total")
		s.cFsyncs = r.Counter("store_fsync_total")
		s.cTorn = r.Counter("store_torn_tails_total")
		s.gSegments = r.Gauge("store_wal_segments")
		s.gWalBytes = r.Gauge("store_wal_bytes")
		s.gSnapshots = r.Gauge("store_snapshots")
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	go s.committer()
	return s, nil
}

// recover loads the newest valid snapshot, replays the WAL suffix,
// truncates any torn tail, and leaves the store ready to append.
func (s *Store) recover() error {
	snaps, err := listSnapshots(s.dir, true)
	if err != nil {
		return err
	}
	var base Record // zero ⇒ no snapshot
	var invalid int
	for _, sf := range snaps {
		if blob, slot, ok := readSnapshot(sf.path, sf.index); ok {
			base = Record{Index: sf.index, Slot: slot, Kind: RecordCheckpoint, Payload: blob}
			break
		}
		invalid++
	}
	s.setGauge(s.gSnapshots, int64(len(snaps)-invalid))

	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	scan, err := scanSegments(segs)
	if err != nil {
		return err
	}
	if scan.torn && s.cTorn != nil {
		s.cTorn.Inc()
	}
	if base.Index >= scan.next {
		// The snapshot is newer than every surviving WAL record
		// (e.g. the log tail was torn back past the promotion
		// point). The whole WAL is superseded; restart it just
		// above the snapshot so indexes stay gap-free.
		for _, seg := range segs {
			os.Remove(seg.path)
		}
		segs = nil
		scan = scanResult{next: base.Index + 1, lastSeg: -1, torn: scan.torn}
	}

	// The recovery checkpoint is the newest of (snapshot, any WAL
	// checkpoint record at or above it), followed by the delta records
	// that chain onto it. WAL records below the snapshot are retained
	// only because retention works in whole segments; they are
	// superseded and skipped.
	full := base
	var deltas, tail []Record
	link, chained := base.Slot, base.Payload != nil
	for _, r := range scan.records {
		if r.Index <= base.Index {
			continue
		}
		switch {
		case r.Kind == RecordCheckpoint:
			full, deltas, tail = r, nil, nil
			link, chained = r.Slot, true
			s.ckptCount++
		case r.Kind == RecordDelta:
			// A delta whose base is not the record before it (one that
			// lost a race with a full, or whose full is gone) ends the
			// chain until the next full.
			if chained = chained && r.Base == link; chained {
				deltas, tail = append(deltas, r), nil
				link = r.Slot
			}
		default:
			tail = append(tail, r)
		}
	}
	rec := Recovered{Torn: scan.torn, Records: len(scan.records), Deltas: deltas}
	if full.Index != 0 || full.Payload != nil {
		last := full
		if len(deltas) > 0 {
			last = deltas[len(deltas)-1]
		}
		rec.Checkpoint, rec.Slot, rec.Index = full.Payload, last.Slot, last.Index
	}
	for _, r := range tail {
		rec.Ops = append(rec.Ops, r.Payload)
	}
	s.recovered = rec

	s.next = scan.next
	s.segs = segs[:0]
	for i, seg := range segs {
		if scan.lastSeg >= 0 && i > scan.lastSeg {
			continue // deleted by the scan
		}
		if scan.lastSeg == i {
			seg.bytes = scan.lastBytes
		}
		s.segs = append(s.segs, seg)
		s.walBytes += seg.bytes
	}
	if len(s.segs) == 0 {
		if err := s.openSegmentLocked(s.next); err != nil {
			return err
		}
	} else {
		s.active = len(s.segs) - 1
		last := s.segs[s.active]
		f, err := os.OpenFile(last.path, os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Seek(last.bytes, 0); err != nil {
			f.Close()
			return err
		}
		s.f = f
	}
	s.setGauge(s.gSegments, int64(len(s.segs)))
	s.setGauge(s.gWalBytes, s.walBytes)
	return nil
}

// Recovered reports what Open found on disk.
func (s *Store) Recovered() Recovered { return s.recovered }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// openSegmentLocked starts a fresh segment whose first record will be
// index first. Caller holds s.mu (or is in single-threaded recovery).
func (s *Store) openSegmentLocked(first uint64) error {
	path := filepath.Join(s.dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.segs = append(s.segs, segment{first: first, path: path})
	s.active = len(s.segs) - 1
	s.f = f
	s.setGauge(s.gSegments, int64(len(s.segs)))
	return nil
}

// AppendOp journals one executed operation. It is write-behind: the
// record is framed and written immediately but the call does not wait
// for the fsync batch — the durability point the protocol relies on
// is the checkpoint, not the op journal. The returned error reports
// only sticky store failure.
func (s *Store) AppendOp(seq uint64, payload []byte) error {
	_, err := s.append(Record{Slot: seq, Kind: RecordOp, Payload: payload}, false)
	return err
}

// AppendCheckpoint durably records a Persist() blob taken at the
// given protocol watermark. It returns once the fsync batch holding
// the record has completed (group commit), then handles snapshot
// promotion and retention.
func (s *Store) AppendCheckpoint(slot uint64, blob []byte) error {
	start := time.Now()
	idx, err := s.append(Record{Slot: slot, Kind: RecordCheckpoint, Payload: blob}, true)
	if err != nil {
		return err
	}
	if tr := s.tracer; tr != nil {
		tr.Always(tracing.PhasePersist, start, time.Since(start), slot, uint64(RecordCheckpoint),
			fmt.Sprintf("checkpoint slot=%d bytes=%d", slot, len(blob)))
	}

	s.mu.Lock()
	s.ckptCount++
	promote := s.ckptCount >= s.o.SnapshotEvery
	if promote {
		s.ckptCount = 0
	}
	s.mu.Unlock()
	if promote {
		return s.promote(idx, slot, blob)
	}
	return nil
}

// AppendDelta durably records a delta taken from the checkpoint at
// watermark base to the one at slot. It is group-committed and
// acknowledged like AppendCheckpoint, but never promoted to a snapshot:
// recovery applies it to the full checkpoint before it.
func (s *Store) AppendDelta(base, slot uint64, delta []byte) error {
	start := time.Now()
	_, err := s.append(Record{Slot: slot, Kind: RecordDelta, Base: base, Payload: delta}, true)
	if err == nil && s.tracer != nil {
		s.tracer.Always(tracing.PhasePersist, start, time.Since(start), slot, uint64(RecordDelta),
			fmt.Sprintf("delta base=%d slot=%d bytes=%d", base, slot, len(delta)))
	}
	return err
}

// append frames rec, writes it to the active segment, and either
// waits for its fsync batch (ack) or returns immediately.
func (s *Store) append(rec Record, ack bool) (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return 0, err
	}
	if s.segs[s.active].bytes >= s.o.SegmentBytes {
		// Roll before assigning the index: the new segment is named
		// after the first record it will hold.
		if err := s.rollLocked(); err != nil {
			s.err = err
			s.mu.Unlock()
			return 0, err
		}
	}
	rec.Index = s.next
	s.next++
	s.buf = appendFrame(s.buf[:0], rec)
	n, err := s.f.Write(s.buf)
	if err != nil {
		s.err = err
		s.mu.Unlock()
		return 0, err
	}
	s.segs[s.active].bytes += int64(n)
	s.walBytes += int64(n)
	s.setGauge(s.gWalBytes, s.walBytes)
	if s.cRecords != nil {
		s.cRecords.Inc()
	}
	w := waiter{enq: time.Now()}
	if ack {
		w.ack = make(chan error, 1)
	}
	s.pending = append(s.pending, w)
	full := len(s.pending) >= s.o.MaxBatch
	s.mu.Unlock()

	select {
	case s.wake <- struct{}{}:
	default:
	}
	if full {
		select {
		case s.cut <- struct{}{}:
		default:
		}
	}
	if !ack {
		return rec.Index, nil
	}
	return rec.Index, <-w.ack
}

// rollLocked hands the active segment and its pending appends to the
// next flush, which fsyncs and closes it, and opens the next segment.
// It does not wait for the disk itself.
func (s *Store) rollLocked() error {
	s.rolled = append(s.rolled, rolled{f: s.f, batch: s.pending})
	s.f, s.pending = nil, nil
	return s.openSegmentLocked(s.next)
}

// release acks every waiter of a batch with err.
func (s *Store) release(batch []waiter, err error) {
	now := time.Now()
	for _, w := range batch {
		if s.hAppend != nil {
			s.hAppend.Observe(uint64(now.Sub(w.enq)))
		}
		if w.ack != nil {
			w.ack <- err
		}
	}
}

// syncBatch fsyncs f on behalf of a batch of n appends and returns the
// error to release the batch with. A store that has already failed (err)
// does not touch the disk again.
func (s *Store) syncBatch(f *os.File, n int, err error) error {
	if err != nil {
		return err
	}
	t := time.Now()
	if !s.o.NoSync {
		err = fsync(f)
	}
	s.observeFsync(t, n)
	return err
}

func (s *Store) observeFsync(start time.Time, batch int) {
	if s.hFsync != nil {
		s.hFsync.Since(start)
	}
	if s.hBatch != nil {
		s.hBatch.Observe(uint64(batch))
	}
	if s.cFsyncs != nil {
		s.cFsyncs.Inc()
	}
}

// committer is the group-commit loop: it wakes when appends are
// pending, lingers to let a batch accumulate (cut early at MaxBatch),
// then fsyncs once for the whole batch and releases every waiter.
func (s *Store) committer() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			s.flush()
			return
		case <-s.wake:
		}
		if s.o.FsyncLinger > 0 {
			t := time.NewTimer(s.o.FsyncLinger)
			select {
			case <-t.C:
			case <-s.cut:
				t.Stop()
			case <-s.quit:
				t.Stop()
				s.flush()
				return
			}
		}
		s.flush()
	}
}

// flush makes every append so far durable and releases its waiters: the
// rolled segments first, oldest first, each closed once synced, then the
// active one. Only taking the batches happens under mu.
func (s *Store) flush() {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	rolled, batch, f, err := s.rolled, s.pending, s.f, s.err
	s.rolled, s.pending, s.spare = nil, s.spare, nil
	s.mu.Unlock()
	for _, r := range rolled {
		err = s.syncBatch(r.f, len(r.batch), err)
		s.release(r.batch, err)
		if cerr := r.f.Close(); err == nil {
			err = cerr
		}
	}
	if len(batch) > 0 {
		err = s.syncBatch(f, len(batch), err)
		s.release(batch, err)
	}
	clear(batch)
	s.mu.Lock()
	s.spare = batch[:0]
	if err != nil && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	// Drain a stale cut signal so the next batch lingers properly.
	select {
	case <-s.cut:
	default:
	}
}

// promote writes the checkpoint blob as a standalone snapshot file,
// then applies retention: WAL segments wholly at or below the
// promoted record are deleted (the stable watermark has passed them),
// as are snapshot files beyond KeepSnapshots.
func (s *Store) promote(index, slot uint64, blob []byte) error {
	// Serialised: concurrent promotions would race the retention
	// pass below against each other's in-flight tmp files.
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	start := time.Now()
	if err := writeSnapshot(s.dir, index, slot, blob); err != nil {
		return err
	}
	if tr := s.tracer; tr != nil {
		tr.Always(tracing.PhasePersist, start, time.Since(start), slot, uint64(RecordCheckpoint),
			fmt.Sprintf("snapshot promoted slot=%d bytes=%d", slot, len(blob)))
	}

	s.mu.Lock()
	// A segment is deletable when the *next* segment starts at or
	// below index+1: every record it holds is then ≤ index, i.e.
	// covered by the snapshot. The active segment always stays.
	keep := s.segs[:0]
	removed := int64(0)
	for i, seg := range s.segs {
		if i+1 < len(s.segs) && s.segs[i+1].first <= index+1 {
			os.Remove(seg.path)
			removed += seg.bytes
			continue
		}
		keep = append(keep, seg)
	}
	s.segs = keep
	s.active = len(s.segs) - 1
	s.walBytes -= removed
	s.setGauge(s.gSegments, int64(len(s.segs)))
	s.setGauge(s.gWalBytes, s.walBytes)
	s.mu.Unlock()

	snaps, err := listSnapshots(s.dir, false)
	if err != nil {
		return err
	}
	for i, sf := range snaps {
		if i >= s.o.KeepSnapshots {
			os.Remove(sf.path)
		}
	}
	if n := len(snaps); n > s.o.KeepSnapshots {
		s.setGauge(s.gSnapshots, int64(s.o.KeepSnapshots))
	} else {
		s.setGauge(s.gSnapshots, int64(n))
	}
	return syncDir(s.dir)
}

// Sync forces an immediate fsync of everything appended so far.
func (s *Store) Sync() error {
	s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close stops the committer (flushing pending appends), syncs, and
// closes the active segment. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	<-s.done

	// The committer's last flush synced and closed every rolled segment;
	// syncMu keeps a concurrent Sync from fsyncing the file closed here.
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.f != nil {
		if !s.o.NoSync && s.err == nil {
			err = fsync(s.f)
		}
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	if s.err != nil {
		return s.err
	}
	return err
}

func (s *Store) setGauge(g *metrics.Gauge, v int64) {
	if g != nil {
		g.Set(v)
	}
}
