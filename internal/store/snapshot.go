package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Snapshot files hold one promoted checkpoint blob each and are named
// snap-<WAL index, 16 hex digits>.snap so newest-by-index is a string
// sort. They are written tmp → fsync → rename → fsync(dir), so a
// snapshot either exists completely or not at all; a crash mid-write
// leaves only a *.tmp that recovery deletes.
//
// Layout, little-endian:
//
//	8-byte magic "neosnp01" | u64 index | u64 slot | u32 crc32(blob) | u32 len | blob
const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	snapMagic  = "neosnp01"
	snapHeader = 8 + 8 + 8 + 4 + 4
)

func snapName(index uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, index, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// writeSnapshot atomically persists blob as the snapshot for the
// checkpoint WAL record at index (protocol watermark slot).
func writeSnapshot(dir string, index, slot uint64, blob []byte) error {
	buf := make([]byte, snapHeader+len(blob))
	copy(buf, snapMagic)
	binary.LittleEndian.PutUint64(buf[8:], index)
	binary.LittleEndian.PutUint64(buf[16:], slot)
	binary.LittleEndian.PutUint32(buf[24:], crc32.Checksum(blob, crcTable))
	binary.LittleEndian.PutUint32(buf[28:], uint32(len(blob)))
	copy(buf[snapHeader:], blob)

	final := filepath.Join(dir, snapName(index))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// readSnapshot validates and loads one snapshot file. ok is false for
// any damage (short file, bad magic, CRC mismatch, name/index skew).
func readSnapshot(path string, wantIndex uint64) (blob []byte, slot uint64, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < snapHeader || string(data[:8]) != snapMagic {
		return nil, 0, false
	}
	index := binary.LittleEndian.Uint64(data[8:])
	slot = binary.LittleEndian.Uint64(data[16:])
	crc := binary.LittleEndian.Uint32(data[24:])
	n := int(binary.LittleEndian.Uint32(data[28:]))
	if index != wantIndex || n != len(data)-snapHeader {
		return nil, 0, false
	}
	blob = data[snapHeader:]
	if crc32.Checksum(blob, crcTable) != crc {
		return nil, 0, false
	}
	return blob, slot, true
}

// snapFile is one on-disk snapshot, identified by the WAL index of
// the checkpoint record it promoted.
type snapFile struct {
	index uint64
	path  string
}

// listSnapshots returns snapshots newest-first. cleanTmp additionally
// deletes leftover *.tmp files from interrupted writes — only safe
// during recovery, when no concurrent promotion can be mid-write.
func listSnapshots(dir string, cleanTmp bool) ([]snapFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapFile
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			if cleanTmp {
				os.Remove(filepath.Join(dir, e.Name()))
			}
			continue
		}
		idx, ok := parseSnapName(e.Name())
		if !ok {
			continue
		}
		snaps = append(snaps, snapFile{index: idx, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].index > snaps[j].index })
	return snaps, nil
}

// dirSync is (*os.File).Sync on a directory; a test swaps it to fail.
var dirSync = (*os.File).Sync

// syncDir fsyncs a directory so renames and unlinks inside it are
// durable. Some filesystems refuse to fsync directories (EINVAL,
// ENOTSUP); rename ordering is still preserved by the journal on
// anything targeted, so those two are ignored. Every other error is
// returned.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := dirSync(d); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
