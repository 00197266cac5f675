// Record codec, group commit and the Batch handle. Every mutation appends
// one checksummed record to the store file at once; a commit policy — N
// records, B bytes, or T interval, whichever trips first — decides when
// the pending batch becomes durable with one fsync and visible as the next
// snapshot, so bulk ingestion pays one fsync per batch instead of one per
// record.
package specdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

const (
	// WALVersion is the record format this build reads and writes.
	WALVersion = 1

	// WALOpPut and WALOpDelete are the two record operations.
	WALOpPut    = 1
	WALOpDelete = 2

	// walBodyHdr is the fixed body prefix: ver(1) + op(1) + seq(8) +
	// nextord(8) + klen(4).
	walBodyHdr = 22
	// walFrame is the framing overhead around a body: length prefix
	// plus trailing checksum.
	walFrame = 12
	// walMaxBody bounds a record body so a corrupt length prefix cannot
	// drive a huge allocation.
	walMaxBody = 1 << 28

	// DefaultCommitRecords and DefaultCommitBytes are the commit policy
	// defaults: commit after 256 pending records or 1 MiB of pending
	// payload, whichever comes first.
	DefaultCommitRecords = 256
	DefaultCommitBytes   = 1 << 20
)

// CommitPolicy controls when the pending batch commits. Zero-valued
// fields take the defaults; Interval 0 means no time-based commit.
type CommitPolicy struct {
	Records  int           // commit after this many pending records
	Bytes    int64         // commit after this many pending payload bytes
	Interval time.Duration // commit this long after the first pending record
}

func (p CommitPolicy) withDefaults() CommitPolicy {
	if p.Records <= 0 {
		p.Records = DefaultCommitRecords
	}
	if p.Bytes <= 0 {
		p.Bytes = DefaultCommitBytes
	}
	return p
}

// Options tunes a store opened with OpenOptions or CreateOptions.
type Options struct {
	// Commit is the group-commit policy.
	Commit CommitPolicy
	// CompactThreshold, when in (0, 1], triggers a background compaction
	// whenever a commit leaves the dead ratio (superseded record bytes
	// over committed record bytes) at or above it. 0 disables automatic
	// compaction.
	CompactThreshold float64
}

// WALRecord is one decoded store record. Seq is the strictly increasing
// record sequence number; NextOrd is the store's next-ordinal counter
// after this operation, so replay restores ordinal allocation exactly.
type WALRecord struct {
	Op      byte
	Seq     uint64
	NextOrd uint64
	Key     []byte
	Val     []byte
}

// EncodeWALRecord frames one record: length prefix, body, checksum.
func EncodeWALRecord(r *WALRecord) []byte {
	blen := walBodyHdr + len(r.Key) + len(r.Val)
	buf := make([]byte, 4+blen+8)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(blen))
	body := buf[4 : 4+blen]
	body[0] = WALVersion
	body[1] = r.Op
	binary.LittleEndian.PutUint64(body[2:10], r.Seq)
	binary.LittleEndian.PutUint64(body[10:18], r.NextOrd)
	binary.LittleEndian.PutUint32(body[18:22], uint32(len(r.Key)))
	copy(body[walBodyHdr:], r.Key)
	copy(body[walBodyHdr+len(r.Key):], r.Val)
	binary.LittleEndian.PutUint64(buf[4+blen:], checksum(body))
	return buf
}

// DecodeWALRecord decodes the record at the head of buf, returning the
// number of bytes it consumed. It never panics on arbitrary input.
// Truncated or checksum-failing input wraps ErrCorrupt (the normal
// torn-tail signal); a checksum-valid record written by a different WAL
// format wraps ErrVersion. Key and Val alias buf.
func DecodeWALRecord(buf []byte) (*WALRecord, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: wal record shorter than its length prefix", ErrCorrupt)
	}
	blen := int(binary.LittleEndian.Uint32(buf[0:4]))
	if blen < walBodyHdr || blen > walMaxBody {
		return nil, 0, fmt.Errorf("%w: wal record body length %d out of range", ErrCorrupt, blen)
	}
	if len(buf) < 4+blen+8 {
		return nil, 0, fmt.Errorf("%w: wal record truncated (%d of %d bytes)", ErrCorrupt, len(buf), 4+blen+8)
	}
	body := buf[4 : 4+blen]
	want := binary.LittleEndian.Uint64(buf[4+blen : 4+blen+8])
	if got := checksum(body); got != want {
		return nil, 0, fmt.Errorf("%w: wal record checksum mismatch (stored %#x, computed %#x)", ErrCorrupt, want, got)
	}
	if body[0] != WALVersion {
		return nil, 0, fmt.Errorf("%w: wal record version %d, this build reads version %d", ErrVersion, body[0], WALVersion)
	}
	r := &WALRecord{
		Op:      body[1],
		Seq:     binary.LittleEndian.Uint64(body[2:10]),
		NextOrd: binary.LittleEndian.Uint64(body[10:18]),
	}
	klen := int(binary.LittleEndian.Uint32(body[18:22]))
	if klen == 0 || klen > MaxKeyLen || walBodyHdr+klen > blen {
		return nil, 0, fmt.Errorf("%w: wal record key length %d out of range", ErrCorrupt, klen)
	}
	r.Key = body[walBodyHdr : walBodyHdr+klen]
	r.Val = body[walBodyHdr+klen : blen]
	switch r.Op {
	case WALOpPut:
	case WALOpDelete:
		if len(r.Val) != 0 {
			return nil, 0, fmt.Errorf("%w: wal delete record carries a %d-byte value", ErrCorrupt, len(r.Val))
		}
	default:
		return nil, 0, fmt.Errorf("%w: unknown wal op %d", ErrCorrupt, r.Op)
	}
	return r, 4 + blen + 8, nil
}

// size is the record's encoded length in the file.
func (r *WALRecord) size() int64 { return int64(walFrame + walBodyHdr + len(r.Key) + len(r.Val)) }

// scan decodes the records after the header; end is the offset just past
// the last one. The first record that fails to decode ends the log: a
// crash can only tear the final append, so those bytes are dropped (a
// read-write open truncates them). If a checksum-valid record starts
// anywhere after them, the damage is inside the log rather than at its
// end, and the file is corrupt — never silently cut short. A valid record
// whose seq does not increase is corrupt too, and a record from a foreign
// format version is a version error.
func scan(img []byte) (recs []*WALRecord, end int64, err error) {
	off := headerLen
	for off < len(img) {
		r, n, derr := DecodeWALRecord(img[off:])
		if errors.Is(derr, ErrVersion) {
			return nil, 0, derr
		}
		if derr != nil {
			break
		}
		if r.Seq >= maxSeq || (len(recs) > 0 && r.Seq <= recs[len(recs)-1].Seq) {
			return nil, 0, fmt.Errorf("%w: record at offset %d has seq %d, not above its predecessor", ErrCorrupt, off, r.Seq)
		}
		recs = append(recs, r)
		off += n
	}
	for at := off + 1; at < len(img); at++ {
		if _, _, derr := DecodeWALRecord(img[at:]); derr == nil || errors.Is(derr, ErrVersion) {
			return nil, 0, fmt.Errorf("%w: damaged record at offset %d is followed by a valid record at offset %d", ErrCorrupt, off, at)
		}
	}
	return recs, int64(off), nil
}

// writableLocked reports why the store refuses writes, if it does.
func (s *Store) writableLocked() error {
	if s.readOnly {
		return ErrReadOnly
	}
	if s.closed {
		return fmt.Errorf("specdb: store is closed")
	}
	return nil
}

// appendRecordLocked assigns the next sequence number to one operation,
// appends its record to the file, stages it in the pending batch, and
// commits if the policy trips. Caller holds s.mu and has already advanced
// s.nextOrd for any ordinal the operation allocated.
func (s *Store) appendRecordLocked(op byte, key, val []byte) error {
	if err := s.writableLocked(); err != nil {
		return err
	}
	rec := &WALRecord{
		Op:      op,
		Seq:     s.seq + 1,
		NextOrd: s.nextOrd,
		Key:     append([]byte(nil), key...),
		Val:     append([]byte(nil), val...),
	}
	buf := EncodeWALRecord(rec)
	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		return fmt.Errorf("specdb: append record: %w", err)
	}
	s.size += int64(len(buf))
	s.seq = rec.Seq
	s.pend = append(s.pend, rec)
	if s.pendKey == nil {
		s.pendKey = make(map[string]*WALRecord)
	}
	s.pendKey[string(rec.Key)] = rec
	s.pendBytes += rec.size()
	if len(s.pend) >= s.pol.Records || s.pendBytes >= s.pol.Bytes {
		return s.commitLocked()
	}
	if s.pol.Interval > 0 && len(s.pend) == 1 {
		gen := s.pendGen
		s.flushTimer = time.AfterFunc(s.pol.Interval, func() { s.intervalCommit(gen) })
	}
	return nil
}

// pendingGet resolves key through the pending batch: the last staged
// record for a key shadows the committed snapshot. hit reports whether
// the batch says anything about the key at all.
func (s *Store) pendingGet(key []byte) (val []byte, present, hit bool) {
	rec, ok := s.pendKey[string(key)]
	if !ok {
		return nil, false, false
	}
	return rec.Val, rec.Op == WALOpPut, true
}

// intervalCommit is the commit-interval timer body: commit whatever is
// still pending, unless a policy- or flush-triggered commit already took
// the batch (the generation moved).
func (s *Store) intervalCommit(gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.pendGen != gen {
		return
	}
	// A failed commit leaves the batch staged; the next append or explicit
	// Flush retries and surfaces the error.
	_ = s.commitLocked()
}

// commitLocked makes the pending batch durable with one fsync and
// publishes the snapshot that includes it. On failure the batch stays
// pending and the published snapshot is unchanged. Caller holds s.mu.
func (s *Store) commitLocked() error {
	s.stopTimerLocked()
	if len(s.pend) == 0 {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("specdb: sync: %w", err)
	}
	s.cur.Store(s.cur.Load().apply(s.pend))
	s.durable = s.size
	s.dropPendingLocked()
	s.maybeCompactLocked()
	return nil
}

// discardLocked drops the pending batch: the file is truncated back to the
// last commit and ordinal allocation resumes from it. Commits that already
// landed stay. Sequence numbers are not reused: a reader may have pinned a
// discarded record's seq, and it must find that seq gone rather than bound
// to different records — also after a restart, which rebuilds the seq
// counter from the file. So when records were dropped, the discard commits
// one seq marker past them: a delete of the reserved seqMarkKey, which
// changes no key.
func (s *Store) discardLocked() error {
	s.stopTimerLocked()
	var err error
	if s.size > s.durable {
		if err = s.f.Truncate(s.durable); err != nil {
			err = fmt.Errorf("specdb: truncate pending records: %w", err)
		}
		s.size = s.durable
	}
	s.dropPendingLocked()
	s.nextOrd = s.cur.Load().nextOrd
	if err != nil || s.seq == s.cur.Load().seq {
		return err
	}
	if err := s.appendRecordLocked(WALOpDelete, []byte(seqMarkKey), nil); err != nil {
		return err
	}
	return s.commitLocked()
}

func (s *Store) dropPendingLocked() {
	s.pend, s.pendKey, s.pendBytes = nil, nil, 0
	s.pendGen++
}

func (s *Store) stopTimerLocked() {
	if s.flushTimer != nil {
		s.flushTimer.Stop()
		s.flushTimer = nil
	}
}

// maybeCompactLocked starts a background compaction when the published
// snapshot's dead ratio reaches the configured threshold. The goroutine
// takes the writer lock itself; snapshot readers are unaffected because
// snapshots never read the file.
func (s *Store) maybeCompactLocked() {
	if s.threshold <= 0 || s.closed || s.cur.Load().deadRatio() < s.threshold {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return // one background compaction at a time
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// A concurrent Close wins the race cleanly: Compact then reports
		// the store closed and the goroutine exits.
		if _, err := s.Compact(); err == nil {
			s.compactions.Add(1)
		}
		s.compacting.Store(false)
		// Commits that tripped the threshold while this compaction ran were
		// dropped by the CAS above; re-check so the trigger is
		// self-sustaining until the ratio falls below the threshold.
		s.mu.Lock()
		s.maybeCompactLocked()
		s.mu.Unlock()
	}()
}

// Batch is a group-commit handle: operations append to the store file
// immediately and stage in memory; the commit happens when the commit
// policy trips or Flush is called. All methods serialize on the store's
// writer lock, so concurrent batches interleave safely — they share one
// pending batch and one commit.
type Batch struct{ s *Store }

// Batch returns a group-commit handle on the store.
func (s *Store) Batch() *Batch { return &Batch{s: s} }

// Flush commits everything pending as one durable snapshot. A no-op when
// nothing is pending.
func (b *Batch) Flush() error {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	if err := b.s.writableLocked(); err != nil {
		return err
	}
	return b.s.commitLocked()
}

// Discard drops every operation still pending (not yet committed).
// Operations a policy-triggered commit already made durable stay — the
// same durability a sequence of individual upserts would have had.
func (b *Batch) Discard() error {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	if err := b.s.writableLocked(); err != nil {
		return err
	}
	return b.s.discardLocked()
}

// Pending reports how many records await the next commit.
func (b *Batch) Pending() int {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	return len(b.s.pend)
}

// put appends one raw put (spec-level wrappers add ordinal bookkeeping on
// top).
func (b *Batch) put(key, val []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	return b.s.appendRecordLocked(WALOpPut, key, val)
}

// delete appends one raw delete.
func (b *Batch) delete(key []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	return b.s.appendRecordLocked(WALOpDelete, key, nil)
}

// seqMarkKey is reserved for the records Discard commits to move the seq
// past discarded records; no other record may use it.
const seqMarkKey = "\x00seq"

// checkKey validates a key before any ordinal is allocated or record
// appended.
func checkKey(key []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("specdb: empty key")
	}
	if string(key) == seqMarkKey {
		return fmt.Errorf("specdb: key %q is reserved", key)
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrKeyTooLong, len(key), MaxKeyLen)
	}
	return nil
}
