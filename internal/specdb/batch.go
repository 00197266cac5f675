// Commit records, the Batch transaction and its commit. A Batch stages
// operations in memory and writes nothing; Flush resolves them into one
// commit record, appends it to the store file in one write, makes it
// durable with one fsync and publishes the snapshot that includes it, so
// an edit or a bulk import lands whole or not at all, across a crash too:
// a torn record is dropped whole.
package specdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

const (
	// opPut and opDelete are the two operations a commit carries.
	opPut    = 1
	opDelete = 2

	// bodyHdr is the fixed body prefix: seq(8) + nextOrd(8) + count(4).
	bodyHdr = 20
	// frame is the framing around a body: length prefix plus checksum.
	frame = 12
)

// errRecord is the error of bytes that are not a whole, well-formed,
// checksum-valid record. scan tries to decode at every offset past a torn
// tail, so it is built once rather than formatted per attempt.
var errRecord = fmt.Errorf("%w: not a whole, well-formed record", ErrCorrupt)

// maxBody is the longest body the uint32 length prefix can carry; tests
// lower it.
var maxBody = uint64(math.MaxUint32)

// Options tunes a store opened with OpenOptions.
type Options struct {
	// CompactThreshold, when in (0, 1], triggers a background compaction
	// whenever a commit leaves the dead ratio (superseded op bytes over
	// committed op bytes) at or above it. 0 disables automatic
	// compaction.
	CompactThreshold float64
}

// op is one operation of a commit. A delete carries no value.
type op struct {
	kind     byte // opPut or opDelete
	key, val []byte
}

// size is the op's encoded length.
func (o *op) size() int64 {
	n := 5 + len(o.key)
	if o.kind == opPut {
		n += 4 + len(o.val)
	}
	return int64(n)
}

// commit is one record: its seq, the store's next-ordinal counter after
// it, and its operations in order.
type commit struct {
	seq, nextOrd uint64
	ops          []op
}

// appendCommit appends c to dst as one framed record. A body too long for
// the length prefix is an error, and dst comes back unchanged.
func appendCommit(dst []byte, c *commit) ([]byte, error) {
	blen := uint64(bodyHdr)
	for i := range c.ops {
		blen += uint64(c.ops[i].size())
	}
	if blen > maxBody {
		return dst, fmt.Errorf("specdb: a commit of %d operations needs a %d-byte record, over the %d-byte limit", len(c.ops), blen, maxBody)
	}
	dst = binary.LittleEndian.AppendUint32(slices.Grow(dst, frame+int(blen)), uint32(blen))
	at := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, c.seq)
	dst = binary.LittleEndian.AppendUint64(dst, c.nextOrd)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.ops)))
	for _, o := range c.ops {
		dst = append(binary.LittleEndian.AppendUint32(append(dst, o.kind), uint32(len(o.key))), o.key...)
		if o.kind == opPut {
			dst = append(binary.LittleEndian.AppendUint32(dst, uint32(len(o.val))), o.val...)
		}
	}
	return binary.LittleEndian.AppendUint64(dst, checksum(dst[at:])), nil
}

// decodeCommit decodes the record at the head of buf and returns it with
// the number of bytes it took. It never panics on arbitrary input: a
// truncated, malformed or checksum-failing record is an error wrapping
// ErrCorrupt, the torn-tail signal. Keys and values alias buf.
func decodeCommit(buf []byte) (*commit, int, error) {
	if len(buf) < 4 {
		return nil, 0, errRecord
	}
	blen := uint64(binary.LittleEndian.Uint32(buf))
	if blen < bodyHdr || blen+frame > uint64(len(buf)) {
		return nil, 0, errRecord
	}
	body := buf[4 : 4+blen]
	// The operations are walked before the checksum is computed: bytes
	// that are not a record almost always fail here at once, so scan's
	// search for records past a torn tail does not hash it over and over.
	count, d := binary.LittleEndian.Uint32(body[16:20]), body[bodyHdr:]
	var o op
	for i := uint32(0); i < count; i++ {
		if !readOp(&d, &o) {
			return nil, 0, errRecord
		}
	}
	if len(d) != 0 {
		return nil, 0, errRecord
	}
	if binary.LittleEndian.Uint64(buf[4+blen:]) != checksum(body) {
		return nil, 0, errRecord
	}
	c := &commit{seq: binary.LittleEndian.Uint64(body[0:8]), nextOrd: binary.LittleEndian.Uint64(body[8:16]), ops: make([]op, count)}
	d = body[bodyHdr:]
	for i := range c.ops {
		readOp(&d, &c.ops[i])
	}
	return c, int(blen + frame), nil
}

// readOp decodes the op at the front of *d into o and advances *d past
// it, reporting whether it was well formed.
func readOp(d *[]byte, o *op) bool {
	b := *d
	if len(b) < 5 {
		return false
	}
	o.kind = b[0]
	klen := uint64(binary.LittleEndian.Uint32(b[1:5]))
	b = b[5:]
	if (o.kind != opPut && o.kind != opDelete) || klen == 0 || klen > MaxKeyLen || klen > uint64(len(b)) {
		return false
	}
	o.key, b = b[:klen], b[klen:]
	if o.kind == opPut {
		if len(b) < 4 {
			return false
		}
		vlen := uint64(binary.LittleEndian.Uint32(b))
		if b = b[4:]; vlen > uint64(len(b)) {
			return false
		}
		o.val, b = b[:vlen], b[vlen:]
	}
	*d = b
	return true
}

// scan decodes the records after the header; end is the offset just past
// the last one. The first record that fails to decode ends the log: a
// crash can only tear the final append, so those bytes are dropped (a
// read-write open truncates them). If a decodable record starts anywhere
// after them, the damage is inside the log rather than at its end, and the
// file is corrupt — never silently cut short. A record whose seq does not
// increase is corrupt too.
func scan(img []byte) (commits []*commit, end int64, err error) {
	off := headerLen
	for off < len(img) {
		c, n, derr := decodeCommit(img[off:])
		if derr != nil {
			break
		}
		if c.seq >= maxSeq || (len(commits) > 0 && c.seq <= commits[len(commits)-1].seq) {
			return nil, 0, fmt.Errorf("%w: record at offset %d has seq %d, not above its predecessor", ErrCorrupt, off, c.seq)
		}
		commits = append(commits, c)
		off += n
	}
	for at := off + 1; at < len(img); at++ {
		if _, _, derr := decodeCommit(img[at:]); derr == nil {
			return nil, 0, fmt.Errorf("%w: damaged record at offset %d is followed by a valid record at offset %d", ErrCorrupt, off, at)
		}
	}
	return commits, int64(off), nil
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

// commitLocked appends c to the file as one record, makes it durable with
// one fsync and publishes the snapshot that includes it. A commit too long
// for one record fails with nothing written. Caller holds s.mu.
//
// Sequence numbers are never reused. A failed write or sync may still have
// put c in the file, where a read-only open can see it and report its seq.
// So the file is cut back to the last commit and an empty commit past c's
// seq is committed in its place. A restart rebuilds the seq counter from
// the file, so it never hands out c's seq again either.
func (s *Store) commitLocked(c *commit) error {
	rec, err := appendCommit(nil, c)
	if err != nil {
		return err
	}
	if err = s.appendLocked(rec, c); err == nil {
		return nil
	}
	if terr := s.f.Truncate(s.size); terr != nil {
		return fmt.Errorf("%w; truncating the failed commit: %v", err, terr)
	}
	// Best effort: if this fails too, this process still never reuses the
	// seqs, because appendLocked has advanced s.seq past them.
	mark := &commit{seq: s.seq + 1, nextOrd: s.cur.Load().nextOrd}
	rec, _ = appendCommit(nil, mark) // an empty commit always fits
	s.appendLocked(rec, mark)
	return err
}

// appendLocked is one commit attempt: write rec at the end of the last
// commit, fsync, publish c. On failure nothing is published and s.size
// stays at the last commit. Caller holds s.mu.
func (s *Store) appendLocked(rec []byte, c *commit) error {
	s.seq = c.seq
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("specdb: append commit: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("specdb: sync: %w", err)
	}
	s.size += int64(len(rec))
	s.cur.Store(s.cur.Load().apply(c))
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
	op // a raw put carries its value here
	// spec is a spec put's one-spec DB in the spec binary form. Flush
	// prefixes it with the spec's ordinal, resolved against the store as
	// it is at that moment.
	spec []byte
	// ifAbsent marks an import: first wins, so Flush skips the put when
	// the key is live by then.
	ifAbsent bool
}

// Batch returns an empty transaction on the store.
func (s *Store) Batch() *Batch { return &Batch{s: s} }

func (b *Batch) stage(so stagedOp) {
	if b.last == nil {
		b.last = make(map[string]int)
	}
	b.last[string(so.key)] = len(b.ops)
	b.ops = append(b.ops, so)
}

// live reports whether key holds a value in the batch's view: the batch's
// own latest operation on it, else the committed snapshot.
func (b *Batch) live(key []byte) bool {
	if i, ok := b.last[string(key)]; ok {
		return b.ops[i].kind == opPut
	}
	_, ok := b.s.Current().Get(key)
	return ok
}

// Flush commits the staged operations as one transaction and empties the
// batch. Under the store's writer lock it resolves each operation against
// the store as it is now: an import of a live key is skipped (first wins),
// a delete of an absent key writes nothing, and a spec put keeps the
// ordinal of the spec it replaces or takes the next one. The operations
// form one commit record with the next sequence number; it reaches the
// file in one write and becomes durable with one fsync before the snapshot
// that includes it is published. A failed Flush publishes nothing; a Flush
// with nothing to write touches nothing.
func (b *Batch) Flush() error {
	staged := b.ops
	b.ops, b.last = nil, nil
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	sn := s.cur.Load()
	c := &commit{seq: s.seq + 1, nextOrd: sn.nextOrd, ops: make([]op, 0, len(staged))}
	written := make(map[string]int, len(staged)) // key -> index in c.ops
	for _, st := range staged {
		old, live := sn.Get(st.key)
		if i, ok := written[string(st.key)]; ok {
			old, live = c.ops[i].val, c.ops[i].kind == opPut
		}
		o := st.op
		switch {
		case o.kind == opDelete && !live, st.ifAbsent && live:
			continue
		case st.spec != nil:
			ord := c.nextOrd
			if live {
				var err error
				if ord, _, err = specOrd(old); err != nil {
					return err
				}
			} else {
				c.nextOrd++
			}
			o.val = append(binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(st.spec)), ord), st.spec...)
		}
		written[string(o.key)] = len(c.ops)
		c.ops = append(c.ops, o)
	}
	if len(c.ops) == 0 {
		return nil
	}
	return s.commitLocked(c)
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
	b.stage(stagedOp{op: op{kind: opPut, key: append([]byte(nil), key...), val: append([]byte(nil), val...)}})
	return nil
}

// delete stages one raw delete.
func (b *Batch) delete(key []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	b.stage(stagedOp{op: op{kind: opDelete, key: append([]byte(nil), key...)}})
	return nil
}

// checkKey validates a key before it is staged.
func checkKey(key []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("specdb: empty key")
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrKeyTooLong, len(key), MaxKeyLen)
	}
	return nil
}
