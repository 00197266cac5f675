// Store lifecycle: create/open by replaying the file, snapshots and their
// publication, pinned historical snapshots (OpenAt), compaction, strict
// verification, and stats.
package specdb

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Store is an open spec store. One writer at a time (serialized by an
// internal mutex); any number of concurrent readers via Current(), each
// holding an immutable Snapshot.
type Store struct {
	path     string
	readOnly bool

	mu      sync.Mutex // serializes appends, commits, Compact, Verify and Close
	f       file
	size    int64  // append offset: end of the last record written
	durable int64  // file length at the last commit; Discard truncates here
	seq     uint64 // last sequence number assigned, pending batch included
	nextOrd uint64 // next ordinal to allocate, pending batch included
	closed  bool

	// Group-commit state (guarded by mu).
	pend       []*WALRecord
	pendKey    map[string]*WALRecord
	pendBytes  int64
	pendGen    uint64
	pol        CommitPolicy
	flushTimer *time.Timer

	// Background compaction (opened with Options.CompactThreshold).
	threshold   float64
	compacting  atomic.Bool
	wg          sync.WaitGroup
	compactions atomic.Int64

	cur atomic.Pointer[Snapshot]
}

// Snapshot is an immutable view of one store state. It holds every live
// record in memory and never reads the file, so it stays readable across
// later commits, compactions and Close.
type Snapshot struct {
	seq     uint64
	nextOrd uint64
	recs    map[string]*WALRecord // latest put per live key
	keys    []string              // live keys, sorted

	// Dead-ratio accounting: record bytes in the file prefix this snapshot
	// replays, and the bytes of the records in recs.
	bytes, live int64
}

// Seq is the sequence number of the last record this snapshot includes.
func (sn *Snapshot) Seq() uint64 { return sn.seq }

// Len is the number of keys in the snapshot.
func (sn *Snapshot) Len() int { return len(sn.keys) }

// Get returns the value stored under key.
func (sn *Snapshot) Get(key []byte) ([]byte, bool) {
	r, ok := sn.recs[string(key)]
	if !ok {
		return nil, false
	}
	return r.Val, true
}

// Iterate walks all keys in order. fn returns false to stop early.
func (sn *Snapshot) Iterate(fn func(key, val []byte) (bool, error)) error {
	return sn.IterateFrom(nil, fn)
}

// IterateFrom walks keys >= lo in order. fn returns false to stop early.
func (sn *Snapshot) IterateFrom(lo []byte, fn func(key, val []byte) (bool, error)) error {
	for _, k := range sn.keys[sort.SearchStrings(sn.keys, string(lo)):] {
		r := sn.recs[k]
		if cont, err := fn(r.Key, r.Val); err != nil || !cont {
			return err
		}
	}
	return nil
}

// deadRatio is the share of the snapshot's record bytes superseded by a
// later record for the same key — what Compact reclaims.
func (sn *Snapshot) deadRatio() float64 {
	if sn.bytes == 0 {
		return 0
	}
	return float64(sn.bytes-sn.live) / float64(sn.bytes)
}

// apply returns the snapshot after recs, sharing nothing mutable with sn.
func (sn *Snapshot) apply(recs []*WALRecord) *Snapshot {
	next := &Snapshot{seq: sn.seq, nextOrd: sn.nextOrd, recs: maps.Clone(sn.recs), bytes: sn.bytes, live: sn.live}
	if next.recs == nil {
		next.recs = make(map[string]*WALRecord, len(recs))
	}
	for _, r := range recs {
		k := string(r.Key)
		if old, ok := next.recs[k]; ok {
			next.live -= old.size()
			delete(next.recs, k)
		}
		if r.Op == WALOpPut {
			next.recs[k] = r
			next.live += r.size()
		}
		next.bytes += r.size()
		next.seq = max(next.seq, r.Seq)
		next.nextOrd = max(next.nextOrd, r.NextOrd)
	}
	// A batch of in-place edits keeps the key set, and so the sorted list.
	next.keys = sn.keys
	for _, r := range recs {
		_, was := sn.recs[string(r.Key)]
		if _, is := next.recs[string(r.Key)]; was != is {
			next.keys = make([]string, 0, len(next.recs))
			for k := range next.recs {
				next.keys = append(next.keys, k)
			}
			sort.Strings(next.keys)
			break
		}
	}
	return next
}

// Create makes a new empty store at path, failing if the file exists.
func Create(path string) (*Store, error) {
	return CreateOptions(path, Options{})
}

// CreateOptions is Create with a commit policy and compaction tuning.
func CreateOptions(path string, opts Options) (*Store, error) {
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	f := osFile{f: osf}
	st, err := initFile(f, path, opts)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return st, nil
}

// initFile writes the header of an empty store and opens it.
func initFile(f file, path string, opts Options) (*Store, error) {
	if _, err := f.WriteAt(encodeHeader(header{nextOrd: 1}), 0); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	return openFile(f, path, false, opts)
}

// Open opens an existing store read-write, replaying every complete
// record and truncating a torn tail. A store written by a different format
// version is rejected with an error wrapping ErrVersion.
func Open(path string) (*Store, error) {
	return OpenOptions(path, Options{})
}

// OpenOptions is Open with a commit policy and compaction tuning.
func OpenOptions(path string, opts Options) (*Store, error) {
	return openPath(path, false, opts)
}

// OpenReadOnly opens an existing store for reading only. It sees every
// complete record in the file, including records a live writer appended
// but has not committed yet; the file is never written.
func OpenReadOnly(path string) (*Store, error) {
	return openPath(path, true, Options{})
}

func openPath(path string, readOnly bool, opts Options) (*Store, error) {
	flag := os.O_RDWR
	if readOnly {
		flag = os.O_RDONLY
	}
	osf, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := openFile(osFile{f: osf}, path, readOnly, opts)
	if err != nil {
		osf.Close()
		return nil, err
	}
	return st, nil
}

// openFile replays a store file into its first snapshot. Factored over the
// file interface so the crash harness can open simulated post-crash images.
func openFile(f file, path string, readOnly bool, opts Options) (*Store, error) {
	h, recs, end, err := load(f, path)
	if err != nil {
		return nil, err
	}
	if !readOnly {
		size, err := f.Size()
		if err != nil {
			return nil, err
		}
		if size > end {
			if err := f.Truncate(end); err != nil {
				return nil, fmt.Errorf("specdb: truncate torn tail: %w", err)
			}
		}
	}
	sn := replay(h, recs)
	st := &Store{
		path:      path,
		readOnly:  readOnly,
		f:         f,
		size:      end,
		durable:   end,
		seq:       sn.seq,
		nextOrd:   sn.nextOrd,
		pol:       opts.Commit.withDefaults(),
		threshold: opts.CompactThreshold,
	}
	st.cur.Store(sn)
	return st, nil
}

// load reads a whole store file and decodes its header and records; end is
// the offset just past the last complete record.
func load(f file, path string) (header, []*WALRecord, int64, error) {
	size, err := f.Size()
	if err != nil {
		return header{}, nil, 0, err
	}
	img := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(img, 0); err != nil {
			return header{}, nil, 0, fmt.Errorf("specdb: read %s: %w", path, err)
		}
	}
	h, err := decodeHeader(img, path)
	if err != nil {
		return header{}, nil, 0, err
	}
	recs, end, err := scan(img)
	if err != nil {
		return header{}, nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return h, recs, end, nil
}

// replay builds the snapshot a header and its records describe. Decoded
// records alias the file image, so the live ones are copied out: the
// snapshot must not keep the whole image, dead records included, alive.
func replay(h header, recs []*WALRecord) *Snapshot {
	sn := (&Snapshot{seq: h.baseSeq, nextOrd: h.nextOrd}).apply(recs)
	for k, r := range sn.recs {
		kv := append(append(make([]byte, 0, len(r.Key)+len(r.Val)), r.Key...), r.Val...)
		cp := *r
		cp.Key, cp.Val = kv[:len(r.Key):len(r.Key)], kv[len(r.Key):]
		sn.recs[k] = &cp
	}
	return sn
}

// upTo returns the prefix of recs with sequence numbers at or below seq.
func upTo(recs []*WALRecord, seq uint64) []*WALRecord {
	return recs[:sort.Search(len(recs), func(i int) bool { return recs[i].Seq > seq })]
}

// OpenAt opens the store read-only pinned at an exact sequence number: the
// seq of the last compaction (the header's baseSeq) or of any record after
// it. Any other seq fails with an error wrapping ErrSnapshotGone, so a
// caller never reads a view other than the one it named.
func OpenAt(path string, seq uint64) (*Store, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	f := osFile{f: osf}
	h, recs, _, err := load(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	pre := upTo(recs, seq)
	if seq != h.baseSeq && (seq < h.baseSeq || len(pre) == 0 || pre[len(pre)-1].Seq != seq) {
		f.Close()
		last := h.baseSeq
		if len(recs) > 0 {
			last = max(last, recs[len(recs)-1].Seq)
		}
		return nil, fmt.Errorf("%w: %s holds seqs %d through %d, requested seq %d", ErrSnapshotGone, path, h.baseSeq, last, seq)
	}
	st := &Store{path: path, readOnly: true, f: f}
	st.cur.Store(replay(h, pre))
	return st, nil
}

// Path returns the file path the store was opened at.
func (s *Store) Path() string { return s.path }

// Current returns the latest committed snapshot.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// Close commits any pending batch, waits for an in-flight background
// compaction, and releases the file. Snapshots stay readable.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var err error
	if !s.readOnly {
		err = s.commitLocked()
	}
	s.stopTimerLocked()
	s.closed = true
	s.mu.Unlock()
	// A background compaction observes closed under mu and bails; wait for
	// it before closing the file it may have swapped in.
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CompactStats reports what Compact reclaimed.
type CompactStats struct {
	Seq         uint64 // sequence number of the compacted state
	Keys        uint64
	BytesBefore int64
	BytesAfter  int64
}

// Compact commits any pending batch, then rewrites the store as a fresh
// header plus the live records in sequence order and atomically renames
// it over the store path. The state and its Seq are unchanged; seqs
// before it stop being reachable by OpenAt.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return CompactStats{}, err
	}
	if err := s.commitLocked(); err != nil {
		return CompactStats{}, err
	}
	sn := s.cur.Load()
	live := make([]*WALRecord, 0, len(sn.recs))
	for _, r := range sn.recs {
		live = append(live, r)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Seq < live[j].Seq })
	img := encodeHeader(header{baseSeq: sn.seq, nextOrd: sn.nextOrd})
	for _, r := range live {
		img = append(img, EncodeWALRecord(r)...)
	}
	tmp := s.path + ".compact"
	os.Remove(tmp)
	osf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return CompactStats{}, err
	}
	_, err = osf.WriteAt(img, 0)
	if err == nil {
		err = osf.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		osf.Close()
		os.Remove(tmp)
		return CompactStats{}, err
	}
	s.f.Close()
	s.f = osFile{f: osf}
	cs := CompactStats{Seq: sn.seq, Keys: uint64(len(sn.keys)), BytesBefore: s.size, BytesAfter: int64(len(img))}
	s.size, s.durable = cs.BytesAfter, cs.BytesAfter
	s.cur.Store(&Snapshot{seq: sn.seq, nextOrd: sn.nextOrd, recs: sn.recs, keys: sn.keys, bytes: sn.live, live: sn.live})
	return cs, nil
}

// VerifyStats summarizes a successful verification.
type VerifyStats struct {
	Seq     uint64
	Keys    uint64
	Records int   // records in the file
	Bytes   int64 // file length
}

// Verify re-reads the file and checks it strictly: the header checksum,
// every record checksum, strictly increasing seqs, no bytes past the last
// record, and that replaying the file up to the served snapshot's seq
// reproduces that snapshot exactly.
func (s *Store) Verify() (VerifyStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := s.cur.Load()
	h, recs, end, err := load(s.f, s.path)
	if err != nil {
		return VerifyStats{}, err
	}
	size, err := s.f.Size()
	if err != nil {
		return VerifyStats{}, err
	}
	vs := VerifyStats{Seq: sn.seq, Keys: uint64(sn.Len()), Records: len(recs), Bytes: size}
	if end != size {
		return vs, fmt.Errorf("%w: %s has %d bytes past the last valid record at offset %d", ErrCorrupt, s.path, size-end, end)
	}
	if !sameState(replay(h, upTo(recs, sn.seq)), sn) {
		return vs, fmt.Errorf("%w: replaying %s does not reproduce the served snapshot at seq %d", ErrCorrupt, s.path, sn.seq)
	}
	return vs, nil
}

// sameState reports whether two snapshots hold the same seq, ordinal
// counter, keys and values.
func sameState(a, b *Snapshot) bool {
	if a.seq != b.seq || a.nextOrd != b.nextOrd || !slices.Equal(a.keys, b.keys) {
		return false
	}
	for k, r := range a.recs {
		if !bytes.Equal(r.Val, b.recs[k].Val) {
			return false
		}
	}
	return true
}

// StoreStats is a cheap summary of the open store, plus the write-path
// liveness signals: how deep the pending batch is and how much of the file
// a compaction would reclaim.
type StoreStats struct {
	Path      string `json:"path"`
	Seq       uint64 `json:"seq"`
	Keys      uint64 `json:"keys"`
	NextOrd   uint64 `json:"next_ord"`
	FileBytes int64  `json:"file_bytes"`
	// Pending counts records appended but not yet committed.
	Pending int `json:"pending"`
	// DeadPageRatio is the share of committed record bytes superseded by a
	// later record for the same key — what Compact reclaims. The Go name
	// stays because the benchmark harness reads it. Compactions counts
	// background compactions this handle has completed.
	DeadPageRatio float64 `json:"dead_ratio"`
	Compactions   int64   `json:"compactions"`
}

// Stats reports the current snapshot's position, the file size, and the
// pending-batch and dead-ratio liveness signals.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	sz, _ := s.f.Size()
	pending := len(s.pend)
	s.mu.Unlock()
	sn := s.Current()
	return StoreStats{
		Path:          s.path,
		Seq:           sn.seq,
		Keys:          uint64(sn.Len()),
		NextOrd:       sn.nextOrd,
		FileBytes:     sz,
		Pending:       pending,
		DeadPageRatio: sn.deadRatio(),
		Compactions:   s.compactions.Load(),
	}
}
