// Package specdb is an on-disk spec store: one append-only file of
// checksummed records, replayed on open into an immutable in-memory
// snapshot.
//
// The file is a fixed header followed by records in the log encoding of
// EncodeWALRecord (all integers little-endian):
//
//	header: magic(8) | version(4) | baseSeq(8) | nextOrd(8) | fnv64a(8)
//	record: blen(4) | body | fnv64a(body)(8)
//	body:   ver(1) | op(1) | seq(8) | nextord(8) | klen(4) | key | val
//
// Records reach the file only at Batch.Flush. A Batch stages its
// operations in memory; Flush resolves them against the store, appends
// their records in one write and commits them: one fsync followed by
// publishing the next Snapshot, which holds the latest record per key and
// a sorted key list. Discard drops a batch without touching the file.
// Snapshots never read the file, so they stay valid across later commits,
// compactions and Close.
//
// Record sequence numbers increase strictly through the file.
// Snapshot.Seq is the sequence number of the last record a snapshot
// includes, and OpenAt replays the file up to an exact one. Compaction
// writes the live records, in sequence order, behind a fresh header into
// <path>.compact and renames it over the store. The header's baseSeq is the
// sequence number of that compacted state and nextOrd its ordinal counter:
// every seq from baseSeq through the last record stays reachable by
// OpenAt, older ones are gone.
//
// Record sequence numbers are never reused, not even for the records of a
// Flush whose write or fsync failed: those are truncated away and a seq
// marker record past them commits in their place. A record that fails
// length or checksum validation with nothing valid after it is a torn
// final append: a read-write open truncates it away, a read-only open
// ignores it. Damage
// that a checksum-valid record follows is inside the committed log, and
// both opens fail with ErrCorrupt without touching the file. A
// checksum-valid header or record written by another format version is a
// hard ErrVersion, never decoded on a best-effort basis.
package specdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

const (
	// FormatVersion is the store file format this build reads and writes.
	FormatVersion = 2
	// MaxKeyLen bounds key length.
	MaxKeyLen = 768

	magic     = "SEALSPDB"
	headerLen = 36
	// maxSeq bounds the sequence numbers a file may hold, so that an open
	// store can always append another record without wrapping.
	maxSeq = 1 << 63
)

// Sentinel errors. Open and read paths wrap these with file context; use
// errors.Is to classify.
var (
	// ErrVersion marks a store written by a different format version.
	ErrVersion = errors.New("specdb: format version skew")
	// ErrCorrupt marks a header or record that fails its checksum or
	// structural decode.
	ErrCorrupt = errors.New("specdb: corrupt store")
	// ErrNotStore marks a file with no store header at all.
	ErrNotStore = errors.New("specdb: not a spec store")
	// ErrReadOnly is returned by write operations on a read-only store.
	ErrReadOnly = errors.New("specdb: store is read-only")
	// ErrSnapshotGone is returned by OpenAt when the requested sequence
	// number is older than the last compaction or names no record.
	ErrSnapshotGone = errors.New("specdb: snapshot no longer in the store")
	// ErrKeyTooLong is returned by writes of keys above MaxKeyLen.
	ErrKeyTooLong = errors.New("specdb: key exceeds maximum length")
)

// file is the slice of *os.File the store needs. The crash-consistency
// harness substitutes a recording implementation to replay torn and
// truncated write prefixes.
type file interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
	Size() (int64, error)
	Truncate(size int64) error
}

type osFile struct{ f *os.File }

func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Close() error                             { return o.f.Close() }
func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
func (o osFile) Truncate(size int64) error { return o.f.Truncate(size) }

// checksum is FNV-1a over a header or record body.
func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// header is the decoded file header.
type header struct{ baseSeq, nextOrd uint64 }

func encodeHeader(h header) []byte {
	buf := make([]byte, headerLen)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(buf[12:20], h.baseSeq)
	binary.LittleEndian.PutUint64(buf[20:28], h.nextOrd)
	binary.LittleEndian.PutUint64(buf[28:36], checksum(buf[:28]))
	return buf
}

// decodeHeader validates the header at the start of a file image. A
// format-1 paged store, recognized by the magic of either of its meta
// pages, fails as version skew rather than as a foreign file.
func decodeHeader(img []byte, path string) (header, error) {
	skew := func(v uint32) error {
		return fmt.Errorf("%w: %s was written by store format %d, this build reads format %d; re-import the flat corpus with `seal specdb -import`",
			ErrVersion, path, v, FormatVersion)
	}
	if len(img) < headerLen || string(img[:8]) != magic {
		for _, off := range []int{1, 4097} {
			if len(img) >= off+8 && string(img[off:off+8]) == magic {
				return header{}, skew(1)
			}
		}
		return header{}, fmt.Errorf("%w: %s has no store header", ErrNotStore, path)
	}
	if binary.LittleEndian.Uint64(img[28:36]) != checksum(img[:28]) {
		return header{}, fmt.Errorf("%w: %s header checksum mismatch", ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(img[8:12]); v != FormatVersion {
		return header{}, skew(v)
	}
	h := header{
		baseSeq: binary.LittleEndian.Uint64(img[12:20]),
		nextOrd: binary.LittleEndian.Uint64(img[20:28]),
	}
	if h.baseSeq >= maxSeq {
		return header{}, fmt.Errorf("%w: %s header seq %d out of range", ErrCorrupt, path, h.baseSeq)
	}
	return h, nil
}
