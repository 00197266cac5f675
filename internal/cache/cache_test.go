package cache

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// payload is a test value with its own binary codec, as every cached
// product has: Count as a varint, then the name. An empty payload does
// not decode.
type payload struct {
	Name  string
	Count int
}

func (p payload) MarshalBinary() ([]byte, error) {
	return append(binary.AppendVarint(nil, int64(p.Count)), p.Name...), nil
}

func (p *payload) UnmarshalBinary(b []byte) error {
	v, n := binary.Varint(b)
	if n <= 0 {
		return errors.New("malformed payload")
	}
	p.Count, p.Name = int(v), string(b[n:])
	return nil
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("unit", "config")
	want := payload{Name: "x", Count: 7}
	if got := (payload{}); c.Get(TierInfer, key, &got) {
		t.Fatal("hit before any Put")
	}
	c.Put(TierInfer, key, want)
	var got payload
	if !c.Get(TierInfer, key, &got) {
		t.Fatal("miss after Put")
	}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.ReadBytes == 0 || st.WriteBytes == 0 {
		t.Fatalf("byte counters not tracked: %+v", st)
	}
}

func TestTiersAreIndependent(t *testing.T) {
	c, _ := Open(t.TempDir(), false)
	key := Key("same")
	c.Put(TierInfer, key, payload{Name: "a"})
	var got payload
	if c.Get(TierDetectGroup, key, &got) {
		t.Fatal("entry leaked across tiers")
	}
}

// entryFile locates the single on-disk entry of a one-entry cache.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".json") {
			found = path
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file under %s (err %v)", dir, err)
	}
	return found
}

// rawBin marshals to its own bytes, to plant arbitrary payloads.
type rawBin []byte

func (r rawBin) MarshalBinary() ([]byte, error) { return r, nil }

func TestBinaryPayloadRoundTrip(t *testing.T) {
	c, _ := Open(t.TempDir(), false)
	key := Key("bin")
	want := payload{Name: "x", Count: 7}
	c.Put(TierDetectGroup, key, want)
	var got payload
	if !c.Get(TierDetectGroup, key, &got) || got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
	// A *json.RawMessage receives the verified payload bytes verbatim.
	var raw json.RawMessage
	if !c.Get(TierDetectGroup, key, &raw) || string(raw) != "\x0ex" {
		t.Fatalf("raw payload %q", raw)
	}
	// Any other receiver is a decode failure: a corrupt miss.
	var plain struct{ Name string }
	if c.Get(TierDetectGroup, key, &plain) {
		t.Fatal("a value without a binary codec decoded a payload")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("undecodable receiver not counted as corrupt: %+v", st)
	}
}

// entryBytes is the entry file a Put of val under (tier, key) writes.
func entryBytes(t *testing.T, tier, key string, val encoding.BinaryMarshaler) []byte {
	t.Helper()
	dir := t.TempDir()
	c, _ := Open(dir, false)
	c.Put(tier, key, val)
	data, err := os.ReadFile(entryFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	key := Key("victim")
	want := payload{Name: "ok", Count: 1}
	for name, corrupt := range map[string]func(*testing.T, []byte) []byte{
		"bit-flip": func(_ *testing.T, b []byte) []byte {
			// Flip a byte inside the payload section.
			out := append([]byte(nil), b...)
			out[len(out)-1] ^= 0x40
			return out
		},
		"truncated": func(_ *testing.T, b []byte) []byte { return b[:len(b)/2] },
		"not-json":  func(*testing.T, []byte) []byte { return []byte("garbage") },
		"version-skew": func(t *testing.T, b []byte) []byte {
			// The version is the one-byte uvarint right after the magic.
			out := append([]byte(nil), b...)
			if out[len(magic)] != SchemaVersion {
				t.Fatal("version varint not found after the magic")
			}
			out[len(magic)]++
			return out
		},
		"tier-mismatch": func(t *testing.T, _ []byte) []byte {
			return entryBytes(t, TierInfer, key, want)
		},
		"key-mismatch": func(t *testing.T, _ []byte) []byte {
			return entryBytes(t, TierDetectGroup, Key("other"), want)
		},
		"undecodable-payload": func(t *testing.T, _ []byte) []byte {
			// Header and checksum verify; UnmarshalBinary refuses.
			return entryBytes(t, TierDetectGroup, key, rawBin{})
		},
		"schema-2-json": func(*testing.T, []byte) []byte {
			// The previous format: a JSON envelope with a hex checksum,
			// as if copied into this schema's directory.
			p := []byte(`{"Name":"ok","Count":1}`)
			sum := sha256.Sum256(p)
			out, _ := json.Marshal(map[string]any{"version": 2, "tier": TierDetectGroup, "key": key,
				"sum": hex.EncodeToString(sum[:]), "payload": json.RawMessage(p)})
			return out
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, _ := Open(dir, false)
			c.Put(TierDetectGroup, key, want)
			file := entryFile(t, dir)
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, corrupt(t, data), 0o644); err != nil {
				t.Fatal(err)
			}
			var got payload
			if c.Get(TierDetectGroup, key, &got) {
				t.Fatal("corrupted entry served as a hit")
			}
			if st := c.Stats(); st.Corrupt != 1 || st.Misses != 1 || st.Hits != 0 {
				t.Fatalf("corruption not counted once: %+v", st)
			}
			// Recovery: a rewrite restores the entry.
			c.Put(TierDetectGroup, key, want)
			if !c.Get(TierDetectGroup, key, &got) || got != want {
				t.Fatal("rewrite after corruption did not recover")
			}
			if st := c.Stats(); st.Corrupt != 1 {
				t.Fatalf("recovered read counted as corrupt: %+v", st)
			}
		})
	}
}

func TestReadOnlyNeverWrites(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, false)
	key := Key("shared")
	w.Put(TierInfer, key, payload{Count: 2})

	r, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if !r.Get(TierInfer, key, &got) || got.Count != 2 {
		t.Fatal("read-only cache should serve existing entries")
	}
	r.Put(TierInfer, Key("new"), payload{})
	if got := (payload{}); r.Get(TierInfer, Key("new"), &got) {
		t.Fatal("read-only cache wrote an entry")
	}
	if st := r.Stats(); st.Writes != 0 {
		t.Fatalf("read-only cache counted writes: %+v", st)
	}
}

func TestClearRemovesOnlyOwnSubtree(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir, false)
	c.Put(TierInfer, Key("k"), payload{})
	bystander := filepath.Join(dir, "user-file.txt")
	if err := os.WriteFile(bystander, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Clear(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatal("Clear removed a file outside the cache subtree")
	}
	c2, _ := Open(dir, false)
	var got payload
	if c2.Get(TierInfer, Key("k"), &got) {
		t.Fatal("entry survived Clear")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c.Enabled() || c.View() != nil {
		t.Fatal("nil cache claims to be live")
	}
	c.Put(TierInfer, Key("k"), payload{})
	var got payload
	if c.Get(TierInfer, Key("k"), &got) {
		t.Fatal("nil cache hit")
	}
	c.NoteUncacheable()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
}

func TestKeySeparatesParts(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal("part boundaries alias")
	}
	if Key("x") != Key("x") {
		t.Fatal("key not deterministic")
	}
	if FileSetHash(map[string]string{"a": "1", "b": "2"}) != FileSetHash(map[string]string{"b": "2", "a": "1"}) {
		t.Fatal("file-set hash depends on map order")
	}
	if FileSetHash(map[string]string{"a": "1"}) == FileSetHash(map[string]string{"a": "2"}) {
		t.Fatal("file-set hash ignores content")
	}
}
