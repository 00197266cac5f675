// Package cache is the content-addressed, on-disk analysis cache that
// makes warm seal runs approach I/O speed. Products are keyed by a stable
// fingerprint chain — source bytes → parsed-unit hash → (analysis config,
// budget limits, seal schema version) → product — so any input or
// configuration change lands on a different key and stale entries are
// simply never found.
//
// The cache is a performance layer, never a correctness layer: every entry
// carries a checksum and a schema version, and anything that fails
// verification (truncated file, flipped bit, entry written by a different
// seal schema, undecodable payload) is silently treated as a miss and
// recomputed. A nil *Cache is the disabled cache: every method is a no-op,
// so call sites need no branching.
package cache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seal/internal/fsread"
)

// SchemaVersion is baked into every fingerprint and entry header. Bump
// it whenever a cached product's shape, its encoding, or the analysis that
// produces it changes incompatibly: old entries become unreachable
// (different keys) and unreadable (header check), both of which degrade to
// misses.
const SchemaVersion = 6

// subdir is the directory the cache owns under the user-supplied root.
// Keeping our objects one level down makes Clear safe: it removes only
// this subtree, never user files that happen to share the root.
const subdir = "seal-analysis-cache"

// Product tiers. Each tier invalidates independently: its keys hash
// different inputs.
const (
	// TierInfer holds per-patch inference results (specs, relation stats
	// and the patch's solver check count).
	TierInfer = "infer"
	// TierDetectGroup holds per-region-group detection results, keyed over
	// target + the group's own spec subset — editing one spec invalidates
	// exactly the group that owns it, every other group replays.
	TierDetectGroup = "detect-group"
	// TierSpecs holds the binary form of a spec database file, keyed by the
	// SHA-256 of the file's bytes: a warm load replays the decode instead
	// of parsing the JSON again.
	TierSpecs = "specs"
)

// Stats are the cache's instrumentation counters.
type Stats struct {
	Hits        int64
	Misses      int64
	Writes      int64
	Corrupt     int64 // entries present but failing version/checksum/decode
	ReadBytes   int64
	WriteBytes  int64
	Uncacheable int64 // results not written because they were degraded/partial
	// Evictions / EvictedBytes count entries removed by the size bound
	// (OpenLimited) after this handle's writes. An evicted entry degrades
	// to a miss and a recompute — a cost, never a correctness event.
	Evictions    int64
	EvictedBytes int64
}

// Cache is an open handle on one on-disk cache. Safe for concurrent use.
// The nil *Cache is valid and disabled: Get always misses, Put does
// nothing. The counters are the handle's own; View makes another handle on
// the same cache with counters of its own.
type Cache struct {
	*disk
	stamp time.Time // the mtime a bounded handle gives its entries (see OpenLimited)

	hits, misses, writes, corrupt   atomic.Int64
	readBytes, writeBytes, uncached atomic.Int64
	evictions, evictedBytes         atomic.Int64
}

// disk is what every view of one opened cache shares: its place, its mode
// and its size bound, with the bound's running total.
type disk struct {
	root     string // <user dir>/<subdir>/v<SchemaVersion>
	readOnly bool
	// maxBytes bounds the total size of stored entries; 0 = unbounded.
	// Exceeding it after a write evicts least-recently-used entries (see
	// evict) until the cache fits again.
	maxBytes int64
	evictMu  sync.Mutex
	// stored is the running total of the entries' size: what the last
	// eviction walk left, plus every byte any view wrote since; -1 until
	// the first write walks. Guarded by evictMu.
	stored int64
}

// Open opens (creating if needed) the cache under dir. readOnly serves
// hits but never writes — for shared or archived caches.
func Open(dir string, readOnly bool) (*Cache, error) {
	return OpenLimited(dir, readOnly, 0)
}

// OpenLimited is Open with a total-size bound: whenever a write pushes the
// stored entries past maxBytes, least-recently-used entries are evicted
// until the cache fits. Recency is the mtime (access times are unreliable
// across platforms and noatime mounts), which a bounded handle sets to the
// time it was made on every entry it hits or writes, so one run's entries
// tie and fall by name whatever order its reads took. maxBytes <= 0 means
// unbounded (plain Open).
func OpenLimited(dir string, readOnly bool, maxBytes int64) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	root := filepath.Join(dir, subdir, "v"+strconv.Itoa(SchemaVersion))
	if !readOnly {
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &Cache{disk: &disk{root: root, readOnly: readOnly, maxBytes: maxBytes, stored: -1}, stamp: time.Now()}, nil
}

// Clear removes every object the cache owns under dir (the cache's own
// subtree only — never other files in dir). Missing directories are fine.
func Clear(dir string) error {
	if dir == "" {
		return fmt.Errorf("cache: empty directory")
	}
	return os.RemoveAll(filepath.Join(dir, subdir))
}

// View returns another handle on c's cache — the same directory, mode and
// size bound, and one running total for the bound across every view — with
// counters that start at zero and a recency stamp of its own. A resident
// service takes one view per request, so each request's figures are its
// own. The view of the nil (disabled) cache is nil.
func (c *Cache) View() *Cache {
	if c == nil {
		return nil
	}
	return &Cache{disk: c.disk, stamp: time.Now()}
}

// Enabled reports whether the cache is live.
func (c *Cache) Enabled() bool { return c != nil }

// magic opens every entry file.
const magic = "sealpc\x00\n"

// An entry file is a fixed header, the payload's SHA-256, and the payload:
//
//	magic | uvarint SchemaVersion | uvarint len(tier) tier | uvarint len(key) key | sha256(payload) | payload
//
// The header is fully determined by (tier, key), so Get verifies it with
// one byte comparison and the checksum before decoding any payload byte.
// A payload is the value's MarshalBinary output.
func header(tier, key string) []byte {
	h := make([]byte, 0, len(magic)+3*binary.MaxVarintLen64+len(tier)+len(key))
	h = append(h, magic...)
	h = binary.AppendUvarint(h, SchemaVersion)
	h = binary.AppendUvarint(h, uint64(len(tier)))
	h = append(h, tier...)
	h = binary.AppendUvarint(h, uint64(len(key)))
	return append(h, key...)
}

func (c *Cache) path(tier, key string) string {
	// Two-level fanout keeps directories small on big corpora. The .json
	// suffix predates the binary entry format; tools that list entries
	// glob for it.
	return filepath.Join(c.root, tier, key[:2], key+".json")
}

// Get looks up (tier, key) and decodes the payload into out, which is an
// encoding.BinaryUnmarshaler or a *json.RawMessage (which receives the
// verified payload bytes verbatim). It returns true only for a verified
// hit; every failure mode — absent, unreadable, header mismatch (version
// skew, another tier or key, an older format), checksum mismatch,
// undecodable — counts as a miss (and, when an entry existed but failed
// verification, as Corrupt).
func (c *Cache) Get(tier, key string, out any) bool {
	if c == nil || len(key) < 3 {
		return false
	}
	data, err := fsread.File(c.path(tier, key))
	if err != nil {
		c.misses.Add(1)
		return false
	}
	c.readBytes.Add(int64(len(data)))
	hdr := header(tier, key)
	if len(data) < len(hdr)+sha256.Size || !bytes.Equal(data[:len(hdr)], hdr) {
		c.miss(true)
		return false
	}
	payload := data[len(hdr)+sha256.Size:]
	if sha256.Sum256(payload) != [sha256.Size]byte(data[len(hdr):len(hdr)+sha256.Size]) {
		c.miss(true)
		return false
	}
	if decode(payload, out) != nil {
		c.miss(true)
		return false
	}
	c.hits.Add(1)
	if c.maxBytes > 0 && !c.readOnly {
		// Best-effort: a failed touch only skews LRU order.
		_ = os.Chtimes(c.path(tier, key), c.stamp, c.stamp)
	}
	return true
}

func decode(payload []byte, out any) error {
	switch v := out.(type) {
	case *json.RawMessage:
		*v = payload
		return nil
	case encoding.BinaryUnmarshaler:
		return v.UnmarshalBinary(payload)
	}
	return fmt.Errorf("cache: cannot decode into %T", out)
}

func (c *Cache) miss(corrupt bool) {
	c.misses.Add(1)
	if corrupt {
		c.corrupt.Add(1)
	}
}

// Put stores val's MarshalBinary output under (tier, key) (see header for
// the file format). Best-effort: encoding or I/O errors are swallowed (a
// cache that cannot write is merely cold), and read-only caches never
// write. The write is atomic (temp file + rename) so a
// concurrent reader sees either the old entry or the complete new one.
func (c *Cache) Put(tier, key string, val encoding.BinaryMarshaler) {
	if c == nil || c.readOnly || len(key) < 3 {
		return
	}
	payload, err := val.MarshalBinary()
	if err != nil {
		return
	}
	hdr := header(tier, key)
	sum := sha256.Sum256(payload)
	data := make([]byte, 0, len(hdr)+len(sum)+len(payload))
	data = append(data, hdr...)
	data = append(data, sum[:]...)
	data = append(data, payload...)
	path := c.path(tier, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), key+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return
	}
	c.writes.Add(1)
	c.writeBytes.Add(int64(len(data)))
	c.evict(path, int64(len(data)))
}

// evict stamps the entry just written at path and enforces the size bound
// after a write of the given size. The cache's first write walks it; later
// writes, by any view, only add to the running total (see stored), and walk
// again when it passes maxBytes. The total never falls below the true size
// while this process is the only writer (an overwrite counts in full), so a
// write that leaves it within the bound is one after which a walk would
// evict nothing: the survivors are those of a walk after every write.
// Writes by other processes are seen at the next walk.
func (c *Cache) evict(path string, written int64) {
	if c == nil || c.maxBytes <= 0 || c.readOnly {
		return
	}
	_ = os.Chtimes(path, c.stamp, c.stamp)
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	if c.stored >= 0 {
		c.stored += written
		if c.stored <= c.maxBytes {
			return
		}
	}
	c.stored = c.sweep()
}

// sweep walks every stored entry, and while the total exceeds maxBytes
// removes the least-recently-touched entries first (mtime ascending, path as
// the tie-break); it returns the total left. The entries this handle hit or
// wrote carry its stamp, newer than an earlier handle's, so a fresh write
// is never sacrificed for stale neighbors. Races with concurrent readers
// are benign: a reader either verified the entry before the unlink (hit)
// or finds it gone (miss → recompute). The caller holds evictMu.
func (c *Cache) sweep() int64 {
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []entry
	var total int64
	filepath.Walk(c.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info == nil || info.IsDir() {
			return nil
		}
		if filepath.Ext(path) != ".json" {
			return nil // skip in-flight temp files
		}
		entries = append(entries, entry{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
		return nil
	})
	if total <= c.maxBytes {
		return total
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		if total <= c.maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			continue
		}
		total -= e.size
		c.evictions.Add(1)
		c.evictedBytes.Add(e.size)
	}
	return total
}

// NoteUncacheable records a result that was deliberately not written —
// degraded, quarantined, or otherwise partial. Counted so the poisoning
// guard is observable, not silent.
func (c *Cache) NoteUncacheable() {
	if c != nil {
		c.uncached.Add(1)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Writes:       c.writes.Load(),
		Corrupt:      c.corrupt.Load(),
		ReadBytes:    c.readBytes.Load(),
		WriteBytes:   c.writeBytes.Load(),
		Uncacheable:  c.uncached.Load(),
		Evictions:    c.evictions.Load(),
		EvictedBytes: c.evictedBytes.Load(),
	}
}

// Key builds a content-addressed key from ordered parts. Each part is
// length-prefixed before hashing so part boundaries cannot alias
// ("ab","c" ≠ "a","bc"), and SchemaVersion is always the first link of
// the chain.
func Key(parts ...string) string {
	var buf [512]byte
	b := appendPart(buf[:0], schemaPart)
	for _, p := range parts {
		b = appendPart(b, p)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// schemaPart is the first link of every key chain.
var schemaPart = "schema:" + strconv.Itoa(SchemaVersion)

// appendPart is writePart for a key's in-memory chain.
func appendPart(b []byte, p string) []byte {
	b = strconv.AppendInt(b, int64(len(p)), 10)
	return append(append(b, ':'), p...)
}

// FileSetHash fingerprints a set of named sources (the "parsed-unit hash"
// link of the chain): names are sorted, and each name and body is
// length-prefixed, so the hash is order-independent and unambiguous.
// The parts stream to the hash through one buffer of at most 32 KB, so no
// source is copied into a []byte of its own.
func FileSetHash(files map[string]string) string {
	names := make([]string, 0, len(files))
	size := 0
	for n, src := range files {
		names = append(names, n)
		size += len(n) + len(src) + 2*21 // two parts, each "len:" at most 21 bytes
	}
	sort.Strings(names)
	h := sha256.New()
	w := bufio.NewWriterSize(h, min(size, 32<<10))
	for _, n := range names {
		writePart(w, n)
		writePart(w, files[n])
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// writePart writes p as "len(p):p". The writer's target is a hash, whose
// Write never fails, so neither can these writes.
func writePart(w *bufio.Writer, p string) {
	var lenbuf [20]byte
	w.Write(strconv.AppendInt(lenbuf[:0], int64(len(p)), 10))
	w.WriteByte(':')
	w.WriteString(p)
}
