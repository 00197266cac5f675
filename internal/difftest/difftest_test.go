package difftest

import (
	"encoding/json"
	"sort"
	"strconv"
	"testing"

	"seal"
	"seal/internal/ir"
	"seal/internal/pdg"
	"seal/internal/randprog"
	"seal/internal/spec"
)

// batchSize is the number of generated patch cases the differential batch
// covers; the acceptance bar for the subsystem is ≥ 500 with zero
// sequential-vs-parallel divergence.
const batchSize = 510

// TestDifferentialBatch is the standing oracle: every generated case must
// (a) infer at least one specification from its patch, (b) produce
// byte-identical normalized results in every optimized configuration, and
// (c) flag exactly the ground-truth buggy siblings.
func TestDifferentialBatch(t *testing.T) {
	n := batchSize
	if testing.Short() {
		n = 60
	}
	kinds := make(map[randprog.MutKind]int)
	for seed := int64(0); seed < int64(n); seed++ {
		c := randprog.GenPatchCase(seed)
		kinds[c.Kind]++
		res, err := RunCase(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Specs.Specs) == 0 {
			t.Errorf("seed %d (%s): patch yielded no specifications", seed, c.Kind)
			continue
		}
		if !res.Ok() {
			t.Error(res.Report())
		}
	}
	for _, k := range randprog.AllMutKinds {
		if kinds[k] == 0 {
			t.Errorf("mutation kind %s never generated in %d seeds", k, n)
		}
	}
	t.Logf("%d cases, kind mix %v", n, kinds)
}

// TestCacheDifferentialBatch extends the oracle to the persistent analysis
// cache: over a batch of generated cases, an uncached reference run, a
// cold cached run, and a warm cached run must agree byte-for-byte on the
// inferred database and the full bug records, and the warm runs must be
// served from disk. Each case gets its own cache directory so entries
// cannot leak across seeds.
func TestCacheDifferentialBatch(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for seed := int64(0); seed < int64(n); seed++ {
		c := randprog.GenPatchCase(seed)
		divs, err := RunCacheCase(c, t.TempDir())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range divs {
			t.Errorf("seed %d (%s): %s", seed, c.Kind, d)
		}
	}
}

// TestCaseGeneratorDeterministic: the same seed renders the same case, and
// nearby seeds render different programs.
func TestCaseGeneratorDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := randprog.GenPatchCase(seed), randprog.GenPatchCase(seed)
		if a.Kind != b.Kind || len(a.Target) != len(b.Target) {
			t.Fatalf("seed %d: shape not deterministic", seed)
		}
		for f, src := range a.Target {
			if b.Target[f] != src {
				t.Fatalf("seed %d: file %s differs between runs", seed, f)
			}
		}
		if a.Patch.Pre[patchFile(a)] == a.Patch.Post[patchFile(a)] {
			t.Fatalf("seed %d: patch pre == post (no injected violation)", seed)
		}
	}
	if randprog.GenPatchCase(3).SourceDigest() == randprog.GenPatchCase(6).SourceDigest() {
		t.Error("seeds 3 and 6 (same kind) produced identical digests")
	}
}

func patchFile(c *randprog.PatchCase) string {
	for f := range c.Patch.Pre {
		return f
	}
	return ""
}

// TestMergeSpecDBsMetamorphic: over generated databases, merging is
// idempotent (merge(db, db) == db), absorbs nil/empty inputs, and is
// key-set commutative.
func TestMergeSpecDBsMetamorphic(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		res, err := RunCase(randprog.GenPatchCase(seed))
		if err != nil {
			t.Fatal(err)
		}
		db := res.Specs
		ref := NormalizeDB(db)
		if got := NormalizeDB(seal.MergeSpecDBs(db, db)); got != ref {
			t.Fatalf("seed %d: merge(db, db) != db:\n%s\nvs\n%s", seed, got, ref)
		}
		if got := NormalizeDB(seal.MergeSpecDBs(db, nil, &spec.DB{})); got != ref {
			t.Fatalf("seed %d: merge with nil/empty changed db", seed)
		}
		other, err := RunCase(randprog.GenPatchCase(seed + 100))
		if err != nil {
			t.Fatal(err)
		}
		ab := keySet(seal.MergeSpecDBs(db, other.Specs))
		ba := keySet(seal.MergeSpecDBs(other.Specs, db))
		if len(ab) != len(ba) {
			t.Fatalf("seed %d: merge not key-set commutative: %d vs %d", seed, len(ab), len(ba))
		}
		for i := range ab {
			if ab[i] != ba[i] {
				t.Fatalf("seed %d: merge key sets differ at %d: %s vs %s", seed, i, ab[i], ba[i])
			}
		}
	}
}

func keySet(db *spec.DB) []string {
	out := make([]string, 0, len(db.Specs))
	for _, s := range db.Specs {
		out = append(out, s.Key())
	}
	sort.Strings(out)
	return out
}

// TestDedupIdempotent: running Dedup twice never changes the result of
// running it once.
func TestDedupIdempotent(t *testing.T) {
	res, err := RunCase(randprog.GenPatchCase(1))
	if err != nil {
		t.Fatal(err)
	}
	db := &spec.DB{Specs: append(append([]*spec.Spec{}, res.Specs.Specs...), res.Specs.Specs...)}
	db.Dedup()
	once := NormalizeDB(db)
	db.Dedup()
	if got := NormalizeDB(db); got != once {
		t.Fatalf("Dedup not idempotent:\n%s\nvs\n%s", got, once)
	}
}

// TestSpecDBJSONRoundTrip: serialize/deserialize preserves the normalized
// database exactly (conditions included) — the on-disk spec database and
// the in-memory one must be interchangeable.
func TestSpecDBJSONRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 9; seed++ {
		res, err := RunCase(randprog.GenPatchCase(seed))
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res.Specs)
		if err != nil {
			t.Fatal(err)
		}
		var back spec.DB
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if got, want := NormalizeDB(&back), NormalizeDB(res.Specs); got != want {
			t.Fatalf("seed %d: JSON round trip changed DB:\n%s\nvs\n%s", seed, got, want)
		}
	}
}

// TestPDGBuildIdempotent: building the PDG of the same program twice, or
// materializing functions demand-driven in reversed order, yields the same
// edge sets per statement.
func TestPDGBuildIdempotent(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := randprog.GenPatchCase(seed)
		target, err := seal.LoadFiles(c.Target)
		if err != nil {
			t.Fatal(err)
		}
		full := pdg.BuildAll(target.Prog)
		again := pdg.BuildAll(target.Prog)
		reversed := pdg.New(target.Prog)
		for i := len(target.Prog.FuncList) - 1; i >= 0; i-- {
			reversed.Ensure(target.Prog.FuncList[i])
		}
		for _, fn := range target.Prog.FuncList {
			for _, s := range fn.Stmts() {
				ref := edgeKeys(full, s)
				if got := edgeKeys(again, s); !equalStrings(got, ref) {
					t.Fatalf("seed %d: rebuild changed edges of %s:%d: %v vs %v",
						seed, fn.Name, s.Line, got, ref)
				}
				if got := edgeKeys(reversed, s); !equalStrings(got, ref) {
					t.Fatalf("seed %d: reversed Ensure order changed edges of %s:%d: %v vs %v",
						seed, fn.Name, s.Line, got, ref)
				}
			}
		}
	}
}

// edgeKeys renders the outgoing data edges of a statement order-insensitively.
func edgeKeys(g *pdg.Graph, s *ir.Stmt) []string {
	edges := g.SuccEdges(s)
	out := make([]string, 0, edges.Len())
	for i := 0; i < edges.Len(); i++ {
		e := edges.At(i)
		loc := "" // return edges carry a zero Loc
		if e.Loc.Base != nil {
			loc = e.Loc.Key()
		}
		out = append(out, e.Kind.String()+"|"+e.To.Fn.Name+"|"+strconv.Itoa(e.To.Line)+"|"+loc+"|"+strconv.Itoa(e.ArgIndex))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
