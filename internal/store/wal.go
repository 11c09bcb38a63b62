// Package store is the durable replica-state subsystem: a segmented,
// CRC-framed append-only write-ahead log with group commit, plus
// atomic-rename snapshot files holding replication.Capture
// bundles. A replica killed mid-run reboots from its data directory:
// recovery loads the newest valid snapshot and replays the WAL suffix
// on top of it, truncating a torn tail at the first invalid record.
//
// Durability model. In a BFT system a recovering replica cannot trust
// its own un-certified log suffix — entries above the last stable
// checkpoint carry no quorum certificate, so replaying them locally
// would let a single disk state roll the protocol back. The durable
// unit is therefore the stable checkpoint (seqlog cert + application
// snapshot, exactly the replica's Persist() blob); per-op journal
// records exist for forensics and write-path measurement, not for
// protocol recovery. Anything above the recovered checkpoint is
// re-fetched from peers through the ordinary state-transfer path.
//
// A checkpoint is written either whole (RecordCheckpoint, a full) or as
// a delta from the one written before it (RecordDelta), whose encoding
// belongs to the replica: a delta names the watermark of its base, and
// recovery returns the newest full plus the chain of deltas after it
// that each apply to the record before them. Only fulls are promoted
// to snapshot files.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Record kinds stored in the WAL.
const (
	// RecordOp journals one executed operation (write-behind; rides
	// the next fsync batch).
	RecordOp uint8 = 1
	// RecordCheckpoint holds a full Persist() blob at a stable
	// watermark. Appends of this kind are acknowledged only after
	// the fsync batch containing them completes.
	RecordCheckpoint uint8 = 2
	// RecordDelta holds the changes from the checkpoint at watermark
	// Base to the one at Slot, in the replica's own encoding. Appends
	// are acknowledged like RecordCheckpoint's.
	RecordDelta uint8 = 3
)

// Record is one framed WAL entry.
type Record struct {
	Index   uint64 // monotonically increasing WAL position (1-based)
	Slot    uint64 // protocol sequence watermark (checkpoints) or op seq
	Kind    uint8
	Base    uint64 // the watermark a delta applies to (deltas only)
	Payload []byte
}

// Frame layout, little-endian:
//
//	u32 bodyLen | u32 crc32(body) | body
//	body = u64 index | u64 slot | u8 kind | [u64 base, deltas only] | payload
//
// A record is valid iff bodyLen is in range, the CRC matches, and the
// kind is known. Recovery stops at the first invalid frame and
// truncates the file there: a torn write corrupts only the tail.
const (
	frameHeader = 8         // bodyLen + crc
	bodyHeader  = 8 + 8 + 1 // index + slot + kind
	maxRecord   = 256 << 20 // sanity cap on bodyLen, guards the allocator
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame serialises rec into buf and returns the extended slice.
func appendFrame(buf []byte, rec Record) []byte {
	head := bodyHeader
	if rec.Kind == RecordDelta {
		head += 8
	}
	bodyLen := head + len(rec.Payload)
	off := len(buf)
	buf = append(buf, make([]byte, frameHeader+bodyLen)...)
	body := buf[off+frameHeader:]
	binary.LittleEndian.PutUint64(body[0:], rec.Index)
	binary.LittleEndian.PutUint64(body[8:], rec.Slot)
	body[16] = rec.Kind
	if rec.Kind == RecordDelta {
		binary.LittleEndian.PutUint64(body[bodyHeader:], rec.Base)
	}
	copy(body[head:], rec.Payload)
	binary.LittleEndian.PutUint32(buf[off:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(buf[off+4:], crc32.Checksum(body, crcTable))
	return buf
}

// errTorn distinguishes "tail is damaged, truncate here" from real
// I/O failures during recovery.
var errTorn = errors.New("store: torn record")

// readFrame decodes one record from b. It returns the record, the
// number of bytes consumed, and an error: io.EOF at a clean end,
// errTorn when the bytes do not form a valid record.
func readFrame(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, io.EOF
	}
	if len(b) < frameHeader {
		return Record{}, 0, errTorn
	}
	bodyLen := int(binary.LittleEndian.Uint32(b))
	if bodyLen < bodyHeader || bodyLen > maxRecord {
		return Record{}, 0, errTorn
	}
	if len(b) < frameHeader+bodyLen {
		return Record{}, 0, errTorn
	}
	body := b[frameHeader : frameHeader+bodyLen]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0, errTorn
	}
	rec := Record{
		Index: binary.LittleEndian.Uint64(body),
		Slot:  binary.LittleEndian.Uint64(body[8:]),
		Kind:  body[16],
	}
	head := bodyHeader
	switch rec.Kind {
	case RecordOp, RecordCheckpoint:
	case RecordDelta:
		if head += 8; bodyLen < head {
			return Record{}, 0, errTorn
		}
		rec.Base = binary.LittleEndian.Uint64(body[bodyHeader:])
	default:
		return Record{}, 0, errTorn
	}
	rec.Payload = append([]byte(nil), body[head:]...)
	return rec, frameHeader + bodyLen, nil
}

// Segment files are named wal-<first index, 16 hex digits> so a
// lexicographic directory sort is also an index sort.
const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

// parseSegName extracts the first index from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// segment describes one on-disk WAL file.
type segment struct {
	first uint64 // index of the first record written to this file
	path  string
	bytes int64
}

// listSegments returns the WAL segments in dir ordered by first index.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segment{first: first, path: filepath.Join(dir, e.Name()), bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// scanResult is what a WAL replay produced.
type scanResult struct {
	records   []Record // valid records in index order
	next      uint64   // index the next append should use
	lastSeg   int      // index into segs of the last live segment, -1 if none
	lastBytes int64    // valid byte length of that segment (post-truncation)
	torn      bool     // a tail was truncated or trailing segments dropped
}

// scanSegments replays the segment chain, truncating the first torn
// tail it meets and deleting any segments after it. Segment chains
// must be contiguous: a gap (possible only under manual tampering)
// ends the log at the gap.
func scanSegments(segs []segment) (scanResult, error) {
	res := scanResult{lastSeg: -1}
	expect := uint64(0) // 0 = accept whatever the first segment starts at
	for i, seg := range segs {
		if expect != 0 && seg.first != expect {
			// Discontiguous chain: everything from here on is
			// unreachable history. Treat it like a torn tail.
			res.torn = true
			for _, drop := range segs[i:] {
				os.Remove(drop.path)
			}
			break
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return res, err
		}
		off, n := 0, 0
		tornHere := false
		for {
			rec, sz, err := readFrame(data[off:])
			if err == io.EOF {
				break
			}
			if err != nil {
				tornHere = true
				break
			}
			// Indexes must be dense; a mismatch means the frame is
			// stale garbage from a recycled region.
			if expect != 0 && rec.Index != expect {
				tornHere = true
				break
			}
			res.records = append(res.records, rec)
			expect = rec.Index + 1
			off += sz
			n++
		}
		if n > 0 {
			res.lastSeg, res.lastBytes = i, int64(off)
		} else if i == 0 || !tornHere {
			// Empty (freshly created) segment: still usable as the
			// live tail if it is the last one.
			res.lastSeg, res.lastBytes = i, int64(off)
		}
		if tornHere {
			res.torn = true
			if err := os.Truncate(seg.path, int64(off)); err != nil {
				return res, err
			}
			res.lastSeg, res.lastBytes = i, int64(off)
			for _, drop := range segs[i+1:] {
				os.Remove(drop.path)
			}
			break
		}
		if expect == 0 {
			expect = seg.first // empty first segment: next append continues its name
		}
	}
	res.next = expect
	if res.next == 0 {
		res.next = 1
	}
	return res, nil
}
