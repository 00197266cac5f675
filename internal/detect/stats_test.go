package detect

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestStatsMerge(t *testing.T) {
	cases := []struct {
		name    string
		a, b    Stats
		want    Stats
		hitRate float64
	}{
		{
			name:    "zero+zero",
			hitRate: 0, // guarded: no lookups must not divide by zero
		},
		{
			name: "zero+populated",
			b: Stats{
				EnsureCalls: 10, EnsureBuilds: 3,
				PathCacheHits: 6, PathCacheMisses: 2,
				IndexLookups: 5, PathEnumerations: 2,
				PDGBuildNanos: 1e6, Truncations: 1,
				RetriedUnits: 3,
			},
			want: Stats{
				EnsureCalls: 10, EnsureBuilds: 3,
				PathCacheHits: 6, PathCacheMisses: 2,
				IndexLookups: 5, PathEnumerations: 2,
				PDGBuildNanos: 1e6, Truncations: 1,
				RetriedUnits: 3,
			},
			hitRate: 0.75,
		},
		{
			name: "field-wise sum",
			a: Stats{
				EnsureCalls: 1, EnsureBuilds: 1, PathCacheHits: 1,
				PathCacheMisses: 1, IndexLookups: 1, PathEnumerations: 1,
				PDGBuildNanos: 1, Truncations: 1, RetriedUnits: 1,
			},
			b: Stats{
				EnsureCalls: 2, EnsureBuilds: 3, PathCacheHits: 4,
				PathCacheMisses: 5, IndexLookups: 6, PathEnumerations: 7,
				PDGBuildNanos: 8, Truncations: 9, RetriedUnits: 12,
			},
			want: Stats{
				EnsureCalls: 3, EnsureBuilds: 4, PathCacheHits: 5,
				PathCacheMisses: 6, IndexLookups: 7, PathEnumerations: 8,
				PDGBuildNanos: 9, Truncations: 10, RetriedUnits: 13,
			},
			hitRate: 5.0 / 11.0,
		},
		{
			name:    "hits only",
			a:       Stats{PathCacheHits: 4},
			want:    Stats{PathCacheHits: 4},
			hitRate: 1,
		},
		{
			name:    "misses only",
			a:       Stats{PathCacheMisses: 4},
			want:    Stats{PathCacheMisses: 4},
			hitRate: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.a.Merge(tc.b)
			if got != tc.want {
				t.Fatalf("Merge = %+v, want %+v", got, tc.want)
			}
			// Merge must commute.
			if rev := tc.b.Merge(tc.a); rev != got {
				t.Fatalf("Merge not commutative: %+v vs %+v", rev, got)
			}
			hr := got.PathHitRate()
			if math.IsNaN(hr) || math.IsInf(hr, 0) {
				t.Fatalf("PathHitRate not finite: %v", hr)
			}
			if math.Abs(hr-tc.hitRate) > 1e-12 {
				t.Fatalf("PathHitRate = %v, want %v", hr, tc.hitRate)
			}
		})
	}
}

// TestStatsMergeProperty checks the algebra the coordinator's shard merge
// relies on: Merge is associative with the zero Stats as identity, so
// folding per-shard stats in any grouping gives one well-defined total.
// Fields are filled by reflection so the property keeps covering fields
// added later.
func TestStatsMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randStats := func() Stats {
		var s Stats
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() == reflect.Int64 || f.Kind() == reflect.Int {
				f.SetInt(rng.Int63n(1_000_000))
			}
		}
		return s
	}
	var zero Stats
	if got := zero.Merge(zero); got != zero {
		t.Fatalf("zero.Merge(zero) = %+v, want zero", got)
	}
	for i := 0; i < 500; i++ {
		a, b, c := randStats(), randStats(), randStats()
		left, right := a.Merge(b).Merge(c), a.Merge(b.Merge(c))
		if left != right {
			t.Fatalf("Merge not associative: (a+b)+c=%+v a+(b+c)=%+v", left, right)
		}
		if got := a.Merge(zero); got != a {
			t.Fatalf("zero not right identity: %+v != %+v", got, a)
		}
		if got := zero.Merge(a); got != a {
			t.Fatalf("zero not left identity: %+v != %+v", got, a)
		}
	}
}
