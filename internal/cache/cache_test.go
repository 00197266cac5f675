package cache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name  string
	Count int
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

func TestCorruptEntryIsAMiss(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"bit-flip": func(b []byte) []byte {
			// Flip a byte inside the payload section.
			mid := len(b) / 2
			out := append([]byte(nil), b...)
			out[mid] ^= 0x40
			return out
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"not-json":  func([]byte) []byte { return []byte("garbage") },
		"version-skew": func(b []byte) []byte {
			var env map[string]any
			if err := json.Unmarshal(b, &env); err != nil {
				panic(err)
			}
			env["version"] = SchemaVersion + 1
			out, _ := json.Marshal(env)
			return out
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, _ := Open(dir, false)
			key := Key("victim")
			c.Put(TierDetectGroup, key, payload{Name: "ok", Count: 1})
			file := entryFile(t, dir)
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			var got payload
			if c.Get(TierDetectGroup, key, &got) {
				t.Fatal("corrupted entry served as a hit")
			}
			if st := c.Stats(); st.Corrupt != 1 {
				t.Fatalf("corruption not counted: %+v", st)
			}
			// Recovery: a rewrite restores the entry.
			c.Put(TierDetectGroup, key, payload{Name: "ok", Count: 1})
			if !c.Get(TierDetectGroup, key, &got) || got.Count != 1 {
				t.Fatal("rewrite after corruption did not recover")
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
	if c.Enabled() || c.ReadOnly() {
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
