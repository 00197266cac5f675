package cache

import (
	"encoding"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// entrySize measures the on-disk size of one cache entry with the given
// payload — all Key()-derived keys have equal length, so every entry
// written from the same payload shape is the same size.
func entrySize(t *testing.T, val encoding.BinaryMarshaler) int64 {
	t.Helper()
	c, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("probe")
	c.Put(TierInfer, key, val)
	info, err := os.Stat(c.path(TierInfer, key))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// backdate pushes an entry's mtime into the past so LRU order is
// deterministic in tests.
func backdate(t *testing.T, c *Cache, tier, key string, age time.Duration) {
	t.Helper()
	old := time.Now().Add(-age)
	if err := os.Chtimes(c.path(tier, key), old, old); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionRemovesOldestFirst(t *testing.T) {
	val := payload{Name: "same-size", Count: 1}
	size := entrySize(t, val)

	// Bound fits two entries but not three: the third Put must evict
	// exactly the least-recently-touched one.
	c, err := OpenLimited(t.TempDir(), false, 2*size+size/2)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb, kc := Key("a"), Key("b"), Key("c")
	c.Put(TierInfer, ka, val)
	c.Put(TierInfer, kb, val)
	backdate(t, c, TierInfer, ka, 2*time.Hour)
	backdate(t, c, TierInfer, kb, time.Hour)
	c.Put(TierInfer, kc, val)

	var out payload
	if c.Get(TierInfer, ka, &out) {
		t.Fatal("oldest entry survived eviction")
	}
	if !c.Get(TierInfer, kb, &out) || !c.Get(TierInfer, kc, &out) {
		t.Fatal("newer entries were evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.EvictedBytes != size {
		t.Fatalf("stats = %+v, want 1 eviction of %d bytes", st, size)
	}
}

func TestEvictionGetRefreshesRecency(t *testing.T) {
	val := payload{Name: "same-size", Count: 1}
	size := entrySize(t, val)

	c, err := OpenLimited(t.TempDir(), false, 2*size+size/2)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb, kc := Key("a"), Key("b"), Key("c")
	c.Put(TierInfer, ka, val)
	c.Put(TierInfer, kb, val)
	backdate(t, c, TierInfer, ka, 2*time.Hour)
	backdate(t, c, TierInfer, kb, time.Hour)

	// Reading a promotes it over b: the next eviction must take b.
	var out payload
	if !c.Get(TierInfer, ka, &out) {
		t.Fatal("warm read missed")
	}
	c.Put(TierInfer, kc, val)

	if !c.Get(TierInfer, ka, &out) {
		t.Fatal("recently-read entry was evicted")
	}
	if c.Get(TierInfer, kb, &out) {
		t.Fatal("stale entry survived eviction")
	}
}

func TestEvictedEntryIsARecomputableMiss(t *testing.T) {
	// The correctness contract: eviction only ever costs a recompute. A
	// bound of one byte evicts everything, yet every read-after-write
	// cycle still round-trips by recomputing and re-storing.
	val := payload{Name: "v", Count: 42}
	c, err := OpenLimited(t.TempDir(), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("only")
	c.Put(TierInfer, key, val)
	var out payload
	if c.Get(TierInfer, key, &out) {
		t.Fatal("entry survived a 1-byte bound")
	}
	// The "recompute": a fresh Put of the same product, then a read of
	// whatever state the cache is in — identical answer either way.
	c.Put(TierInfer, key, val)
	st := c.Stats()
	if st.Evictions < 1 {
		t.Fatalf("stats = %+v, want evictions", st)
	}
	if st.Corrupt != 0 {
		t.Fatalf("eviction must degrade to a clean miss, got corrupt=%d", st.Corrupt)
	}
}

func TestUnboundedAndReadOnlyNeverEvict(t *testing.T) {
	val := payload{Name: "v", Count: 1}
	dir := t.TempDir()
	c, err := OpenLimited(dir, false, 0) // 0 = unbounded
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(TierInfer, Key(k), val)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}

	// A read-only handle with a tiny bound must not delete anything.
	ro, err := OpenLimited(dir, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	for _, k := range []string{"a", "b", "c", "d"} {
		if !ro.Get(TierInfer, Key(k), &out) {
			t.Fatalf("read-only bounded cache lost entry %q", k)
		}
	}
	if st := ro.Stats(); st.Evictions != 0 {
		t.Fatalf("read-only cache evicted: %+v", st)
	}
	// And the files are genuinely still on disk.
	var files int
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() && filepath.Ext(path) == ".json" {
			files++
		}
		return nil
	})
	if files != 4 {
		t.Fatalf("entries on disk = %d, want 4", files)
	}
}

// onDiskBytes sums the sizes of the entry files under dir.
func onDiskBytes(t *testing.T, dir string) (total int64, files int) {
	t.Helper()
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() && filepath.Ext(path) == ".json" {
			total += info.Size()
			files++
		}
		return nil
	})
	return total, files
}

// TestViewsShareTheBound writes through two views of one bounded handle,
// alternating, well past the bound, then once more from two goroutines:
// the views share one running total, so each sees the other's writes and
// the cache on disk ends within the bound. (Views that each kept a total
// of their own writes would each stay under the bound and never walk.)
// Each view's counters hold only its own writes.
func TestViewsShareTheBound(t *testing.T) {
	val := payload{Name: "same-size", Count: 1}
	size := entrySize(t, val)
	dir := t.TempDir()
	bound := 10*size + size/2
	c, err := OpenLimited(dir, false, bound)
	if err != nil {
		t.Fatal(err)
	}
	views := []*Cache{c.View(), c.View()}
	const perView = 8
	put := func(v, i int) { views[v].Put(TierInfer, Key(strconv.Itoa(v), strconv.Itoa(i)), val) }
	for i := 0; i < perView; i++ {
		put(0, i)
		put(1, i)
	}
	if total, files := onDiskBytes(t, dir); total > bound {
		t.Fatalf("alternating views left %d entries (%d B) on disk under a %d B bound", files, total, bound)
	}
	var wg sync.WaitGroup
	for v := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := perView; i < 2*perView; i++ {
				put(v, i)
			}
		}()
	}
	wg.Wait()
	total, files := onDiskBytes(t, dir)
	if total > bound {
		t.Fatalf("concurrent views left %d entries (%d B) on disk under a %d B bound", files, total, bound)
	}
	var evicted int64
	for v, view := range views {
		st := view.Stats()
		if st.Writes != 2*perView || st.WriteBytes != 2*perView*size {
			t.Errorf("view %d stats = %+v, want its own %d writes", v, st, 2*perView)
		}
		evicted += st.Evictions
	}
	if want := int64(4*perView - files); evicted != want {
		t.Errorf("views evicted %d entries, want %d (%d written, %d left)", evicted, want, 4*perView, files)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("parent handle counted its views' work: %+v", st)
	}
}
