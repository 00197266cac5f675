// Record codec, the Batch transaction and its commit. A Batch stages
// operations in memory and writes nothing; Flush turns them into records,
// appends them to the store file in one write, makes them durable with one
// fsync and publishes the snapshot that includes them, so an edit or a
// bulk import lands whole or not at all.
package specdb

import (
	"encoding/binary"
	"errors"
	"fmt"
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
)

// Options tunes a store opened with OpenOptions.
type Options struct {
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
	return appendWALRecord(make([]byte, 0, r.size()), r)
}

// appendWALRecord appends the framed record to dst.
func appendWALRecord(dst []byte, r *WALRecord) []byte {
	blen := walBodyHdr + len(r.Key) + len(r.Val)
	at := len(dst)
	dst = append(dst, make([]byte, 4+blen+8)...)
	buf := dst[at:]
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
	return dst
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

// commitLocked appends recs to the file in one write, makes them durable
// with one fsync and publishes the snapshot that includes them. Caller
// holds s.mu.
//
// Sequence numbers are never reused. A failed write or sync may still have
// put some of recs in the file, where a read-only open can see them and
// pin their seqs. So the file is cut back to the last commit and a seq
// marker past them is committed in their place: a delete of the reserved
// seqMarkKey, which changes no key. A pinned seq then finds its state gone
// rather than bound to different records, also after a restart, which
// rebuilds the seq counter from the file.
func (s *Store) commitLocked(recs []*WALRecord) error {
	err := s.appendLocked(recs)
	if err == nil {
		return nil
	}
	if terr := s.f.Truncate(s.size); terr != nil {
		return fmt.Errorf("%w; truncating the failed records: %v", err, terr)
	}
	// Best effort: if the marker fails too, this process still never
	// reuses the seqs, because appendLocked has advanced s.seq past them.
	s.appendLocked([]*WALRecord{{Op: WALOpDelete, Seq: s.seq + 1, NextOrd: s.cur.Load().nextOrd, Key: []byte(seqMarkKey)}})
	return err
}

// appendLocked is one commit attempt: write recs at the end of the last
// commit, fsync, publish. On failure nothing is published and s.size stays
// at the last commit. Caller holds s.mu.
func (s *Store) appendLocked(recs []*WALRecord) error {
	var n int64
	for _, r := range recs {
		n += r.size()
	}
	buf := make([]byte, 0, n)
	for _, r := range recs {
		buf = appendWALRecord(buf, r)
	}
	s.seq = recs[len(recs)-1].Seq
	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		return fmt.Errorf("specdb: append records: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("specdb: sync: %w", err)
	}
	s.size += n
	s.cur.Store(s.cur.Load().apply(recs))
	s.maybeCompactLocked()
	return nil
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

// Batch is a transaction on the store. Its operations stage in memory,
// each against the committed snapshot plus the batch's own earlier
// operations, and reach the file only at Flush. A Batch belongs to one
// goroutine at a time; any number of batches may stage concurrently, and
// their Flushes serialize on the store's writer lock.
type Batch struct {
	s    *Store
	ops  []stagedOp
	last map[string]int // key -> index in ops of its latest operation
}

// stagedOp is one operation awaiting Flush.
type stagedOp struct {
	op  byte // WALOpPut or WALOpDelete
	key []byte
	val []byte // a raw put's value
	// db is a spec put's one-spec DB JSON. Flush frames it with the spec's
	// ordinal, resolved against the store as it is at that moment.
	db []byte
	// ifAbsent marks an import: first wins, so Flush skips the put when
	// the key is live by then.
	ifAbsent bool
}

// Batch returns an empty transaction on the store.
func (s *Store) Batch() *Batch { return &Batch{s: s} }

func (b *Batch) stage(op stagedOp) {
	if b.last == nil {
		b.last = make(map[string]int)
	}
	b.last[string(op.key)] = len(b.ops)
	b.ops = append(b.ops, op)
}

// live reports whether key holds a value in the batch's view: the batch's
// own latest operation on it, else the committed snapshot.
func (b *Batch) live(key []byte) bool {
	if i, ok := b.last[string(key)]; ok {
		return b.ops[i].op == WALOpPut
	}
	_, ok := b.s.Current().Get(key)
	return ok
}

// Flush commits the staged operations as one transaction and empties the
// batch. Under the store's writer lock it resolves each operation against
// the store as it is now: an import of a live key is skipped (first wins),
// a delete of an absent key writes nothing, and a spec put keeps the
// ordinal of the spec it replaces or takes the next one. The records get
// the next sequence numbers, reach the file in one write and become
// durable with one fsync before the snapshot that includes them is
// published. A failed Flush publishes nothing; a Flush with nothing to
// write touches nothing.
func (b *Batch) Flush() error {
	ops := b.ops
	b.ops, b.last = nil, nil
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	sn := s.cur.Load()
	nextOrd := sn.nextOrd
	recs := make([]*WALRecord, 0, len(ops))
	written := make(map[string]*WALRecord, len(ops))
	for _, op := range ops {
		old, live := sn.Get(op.key)
		if r, ok := written[string(op.key)]; ok {
			old, live = r.Val, r.Op == WALOpPut
		}
		val := op.val
		switch {
		case op.op == WALOpDelete && !live, op.ifAbsent && live:
			continue
		case op.db != nil:
			ord := nextOrd
			if live {
				var err error
				if ord, _, err = decodeSpec(old); err != nil {
					return err
				}
			} else {
				nextOrd++
			}
			val = frameSpec(ord, op.db)
		}
		r := &WALRecord{Op: op.op, Seq: s.seq + uint64(len(recs)) + 1, NextOrd: nextOrd, Key: op.key, Val: val}
		recs = append(recs, r)
		written[string(op.key)] = r
	}
	if len(recs) == 0 {
		return nil
	}
	return s.commitLocked(recs)
}

// Discard drops the staged operations. It touches neither the file nor the
// sequence counter, and never fails; the error result keeps it
// interchangeable with Flush at call sites.
func (b *Batch) Discard() error {
	b.ops, b.last = nil, nil
	return nil
}

// put stages one raw put (spec-level operations add ordinal bookkeeping
// on top).
func (b *Batch) put(key, val []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	b.stage(stagedOp{op: WALOpPut, key: append([]byte(nil), key...), val: append([]byte(nil), val...)})
	return nil
}

// delete stages one raw delete.
func (b *Batch) delete(key []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	b.stage(stagedOp{op: WALOpDelete, key: append([]byte(nil), key...)})
	return nil
}

// seqMarkKey is reserved for the records a failed Flush commits to move
// the seq past its records; no other record may use it.
const seqMarkKey = "\x00seq"

// checkKey validates a key before it is staged.
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
