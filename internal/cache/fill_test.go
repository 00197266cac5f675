package cache

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// boundedFill drives one bounded handle through 200 writes of varied sizes
// (the last 40 overwrite earlier keys) with a read of an older key every
// seventh step, and gives every entry touched at step i the mtime base+i s,
// so LRU order does not hang on the clock's resolution. With walkEveryPut
// the handle forgets its running total before each write, so every write
// walks the cache: the eviction rule before running totals. It returns the
// surviving entry files and the handle's stats.
func boundedFill(t *testing.T, bound int64, walkEveryPut bool) ([]string, Stats) {
	t.Helper()
	dir := t.TempDir()
	c, err := OpenLimited(dir, false, bound)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	touch := func(key string, step int) {
		at := base.Add(time.Duration(step) * time.Second)
		if err := os.Chtimes(c.path(TierInfer, key), at, at); err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		key := Key(strconv.Itoa(i % 160))
		if walkEveryPut {
			c.stored = -1
		}
		c.Put(TierInfer, key, payload{Name: strings.Repeat("x", i*37%400), Count: i})
		touch(key, i)
		if i%7 == 6 {
			old := Key(strconv.Itoa(i / 2))
			var out payload
			if c.Get(TierInfer, old, &out) {
				touch(old, i)
			}
		}
	}
	var files []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			files = append(files, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files, c.Stats()
}

// TestBoundedFillMatchesWalkPerPut: a handle that walks the cache only when
// its running total passes the bound keeps exactly the entries, and counts
// exactly the evictions, of one that walks after every write.
func TestBoundedFillMatchesWalkPerPut(t *testing.T) {
	bound := 30 * entrySize(t, payload{Name: strings.Repeat("x", 200)})
	got, gotStats := boundedFill(t, bound, false)
	want, wantStats := boundedFill(t, bound, true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("survivors differ from a walk after every write:\n got %d %v\nwant %d %v", len(got), got, len(want), want)
	}
	if gotStats != wantStats {
		t.Errorf("stats %+v, walk after every write %+v", gotStats, wantStats)
	}
	if wantStats.Evictions < 50 {
		t.Errorf("only %d evictions: the bound does not bite", wantStats.Evictions)
	}
}
