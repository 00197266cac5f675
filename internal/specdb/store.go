// Store lifecycle: create/open by replaying the file, snapshots and their
// publication, compaction, strict verification, and stats.
package specdb

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Store is an open spec store. One writer at a time (Batch.Flush
// serializes on an internal mutex); any number of concurrent readers via
// Current(), each holding an immutable Snapshot.
type Store struct {
	path     string
	readOnly bool

	mu     sync.Mutex // serializes commits, Compact, Verify and Close
	f      file
	size   int64  // file length at the last commit; the next append lands here
	seq    uint64 // last sequence number assigned, failed commits included
	closed bool

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
	recs    map[string]op // latest put per live key
	keys    []string      // live keys, sorted

	// Dead-ratio accounting: the bytes of every op this snapshot replays,
	// and the bytes of the ops in recs.
	bytes, live int64
}

// Seq is the sequence number of the last commit this snapshot includes.
func (sn *Snapshot) Seq() uint64 { return sn.seq }

// Len is the number of keys in the snapshot.
func (sn *Snapshot) Len() int { return len(sn.keys) }

// Get returns the value stored under key.
func (sn *Snapshot) Get(key []byte) ([]byte, bool) {
	r, ok := sn.recs[string(key)]
	if !ok {
		return nil, false
	}
	return r.val, true
}

// Iterate walks all keys in order. fn returns false to stop early.
func (sn *Snapshot) Iterate(fn func(key, val []byte) (bool, error)) error {
	return sn.IterateFrom(nil, fn)
}

// IterateFrom walks keys >= lo in order. fn returns false to stop early.
func (sn *Snapshot) IterateFrom(lo []byte, fn func(key, val []byte) (bool, error)) error {
	for _, k := range sn.keys[sort.SearchStrings(sn.keys, string(lo)):] {
		r := sn.recs[k]
		if cont, err := fn(r.key, r.val); err != nil || !cont {
			return err
		}
	}
	return nil
}

// deadRatio is the share of the snapshot's op bytes superseded by a later
// op on the same key — what Compact reclaims.
func (sn *Snapshot) deadRatio() float64 {
	if sn.bytes == 0 {
		return 0
	}
	return float64(sn.bytes-sn.live) / float64(sn.bytes)
}

// apply returns the snapshot after commits, sharing nothing mutable with
// sn.
func (sn *Snapshot) apply(commits ...*commit) *Snapshot {
	next := &Snapshot{seq: sn.seq, nextOrd: sn.nextOrd, recs: maps.Clone(sn.recs), bytes: sn.bytes, live: sn.live}
	if next.recs == nil {
		next.recs = make(map[string]op)
	}
	keysChanged := false
	for _, c := range commits {
		for _, o := range c.ops {
			k := string(o.key)
			old, was := next.recs[k]
			if was {
				next.live -= old.size()
				delete(next.recs, k)
			}
			if o.kind == opPut {
				next.recs[k] = o
				next.live += o.size()
			}
			next.bytes += o.size()
			keysChanged = keysChanged || was != (o.kind == opPut)
		}
		next.seq = max(next.seq, c.seq)
		next.nextOrd = max(next.nextOrd, c.nextOrd)
	}
	// Commits of in-place edits keep the key set, and so the sorted list.
	next.keys = sn.keys
	if keysChanged {
		next.keys = make([]string, 0, len(next.recs))
		for k := range next.recs {
			next.keys = append(next.keys, k)
		}
		sort.Strings(next.keys)
	}
	return next
}

// Create makes a new empty store at path, failing if the file exists. The
// header is written and synced in a temporary file beside path, which is
// then linked into place — the link fails, as an exclusive create would,
// when path exists — and its temporary name removed. A crash at any step
// leaves either no file at path or a complete empty store, never an empty
// file that neither Open nor Create accepts (a crash before the removal
// may leave the temporary name behind).
func Create(path string) (*Store, error) {
	osf, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".create*")
	if err != nil {
		return nil, err
	}
	defer os.Remove(osf.Name())
	f := osFile{f: osf}
	err = osf.Chmod(0o644)
	if err == nil {
		err = writeHeader(f)
	}
	if err == nil {
		err = linkFile(osf.Name(), path)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	st, err := openFile(f, path, false, Options{})
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return st, nil
}

// linkFile puts a created store in place; a variable so tests can fail
// the step.
var linkFile = os.Link

// writeHeader writes and syncs the header of an empty store.
func writeHeader(f file) error {
	if _, err := f.WriteAt(encodeHeader(header{nextOrd: 1}), 0); err != nil {
		return err
	}
	return f.Sync()
}

// Open opens an existing store read-write, replaying every complete
// record and truncating a torn tail. A store written by a different format
// version is rejected with an error wrapping ErrVersion.
func Open(path string) (*Store, error) {
	return OpenOptions(path, Options{})
}

// OpenOptions is Open with compaction tuning.
func OpenOptions(path string, opts Options) (*Store, error) {
	return openPath(path, false, opts)
}

// OpenReadOnly opens an existing store for reading only. It sees every
// complete record in the file, including those of a writer's Flush whose
// fsync has not returned yet; the file is never written.
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
	h, commits, end, err := load(f, path)
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
	sn := replay(h, commits)
	st := &Store{
		path:      path,
		readOnly:  readOnly,
		f:         f,
		size:      end,
		seq:       sn.seq,
		threshold: opts.CompactThreshold,
	}
	st.cur.Store(sn)
	return st, nil
}

// load reads a whole store file and decodes its header and records; end is
// the offset just past the last complete record.
func load(f file, path string) (header, []*commit, int64, error) {
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
	commits, end, err := scan(img)
	if err != nil {
		return header{}, nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return h, commits, end, nil
}

// replay builds the snapshot a header and its records describe. Decoded
// ops alias the file image, so the live ones are copied out: the snapshot
// must not keep the whole image, dead ops included, alive.
func replay(h header, commits []*commit) *Snapshot {
	sn := (&Snapshot{seq: h.baseSeq, nextOrd: h.nextOrd}).apply(commits...)
	for k, r := range sn.recs {
		kv := append(append(make([]byte, 0, len(r.key)+len(r.val)), r.key...), r.val...)
		r.key, r.val = kv[:len(r.key):len(r.key)], kv[len(r.key):]
		sn.recs[k] = r
	}
	return sn
}

// Path returns the file path the store was opened at.
func (s *Store) Path() string { return s.path }

// Current returns the latest committed snapshot.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// Close waits for an in-flight background compaction and releases the
// file. Operations staged in unflushed batches are never written.
// Snapshots stay readable.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// A background compaction observes closed under mu and bails; wait for
	// it before closing the file it may have swapped in.
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// CompactStats reports what Compact reclaimed.
type CompactStats struct {
	Seq         uint64 // sequence number of the compacted state
	Keys        uint64
	BytesBefore int64
	BytesAfter  int64
}

// Compact rewrites the store as a fresh header plus one commit of the
// live values and atomically renames it over the store path. The state,
// its Seq and the ordinal counter are unchanged.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return CompactStats{}, err
	}
	sn := s.cur.Load()
	c := &commit{seq: sn.seq, nextOrd: sn.nextOrd, ops: make([]op, len(sn.keys))}
	for i, k := range sn.keys {
		c.ops[i] = sn.recs[k]
	}
	img, err := appendCommit(encodeHeader(header{baseSeq: sn.seq, nextOrd: sn.nextOrd}), c)
	if err != nil {
		return CompactStats{}, err
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
	s.size = cs.BytesAfter
	s.cur.Store(&Snapshot{seq: sn.seq, nextOrd: sn.nextOrd, recs: sn.recs, keys: sn.keys, bytes: sn.live, live: sn.live})
	return cs, nil
}

// VerifyStats summarizes a successful verification.
type VerifyStats struct {
	Seq     uint64
	Keys    uint64
	Records int   // commit records in the file
	Bytes   int64 // file length
}

// Verify re-reads the file and checks it strictly: the header checksum,
// every record checksum and structure, strictly increasing seqs, no bytes
// past the last record, and that replaying the records up to the served
// snapshot's seq reproduces that snapshot exactly. (A writer may have
// committed past the seq a read-only store serves.)
func (s *Store) Verify() (VerifyStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := s.cur.Load()
	h, commits, end, err := load(s.f, s.path)
	if err != nil {
		return VerifyStats{}, err
	}
	size, err := s.f.Size()
	if err != nil {
		return VerifyStats{}, err
	}
	vs := VerifyStats{Seq: sn.seq, Keys: uint64(sn.Len()), Records: len(commits), Bytes: size}
	if end != size {
		return vs, fmt.Errorf("%w: %s has %d bytes past the last valid record at offset %d", ErrCorrupt, s.path, size-end, end)
	}
	n := len(commits)
	for n > 0 && commits[n-1].seq > sn.seq {
		n--
	}
	if !sameState(replay(h, commits[:n]), sn) {
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
		if !bytes.Equal(r.val, b.recs[k].val) {
			return false
		}
	}
	return true
}

// StoreStats is a cheap summary of the open store, plus how much of the
// file a compaction would reclaim.
type StoreStats struct {
	Path      string `json:"path"`
	Seq       uint64 `json:"seq"`
	Keys      uint64 `json:"keys"`
	NextOrd   uint64 `json:"next_ord"`
	FileBytes int64  `json:"file_bytes"`
	// DeadPageRatio is the share of committed op bytes superseded by a
	// later op on the same key — what Compact reclaims. The Go name
	// stays because the benchmark harness reads it. Compactions counts
	// background compactions this handle has completed.
	DeadPageRatio float64 `json:"dead_ratio"`
	Compactions   int64   `json:"compactions"`
}

// Stats reports the current snapshot's position, the file size and the
// dead ratio.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	sz, _ := s.f.Size()
	s.mu.Unlock()
	sn := s.Current()
	return StoreStats{
		Path:          s.path,
		Seq:           sn.seq,
		Keys:          uint64(sn.Len()),
		NextOrd:       sn.nextOrd,
		FileBytes:     sz,
		DeadPageRatio: sn.deadRatio(),
		Compactions:   s.compactions.Load(),
	}
}
