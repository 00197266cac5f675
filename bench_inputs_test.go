package seal

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"seal/internal/budget"
	"seal/internal/cache"
	"seal/internal/detect"
	"seal/internal/kernelgen"
)

// warmBatchInputs writes sealbench's warm-batch corpus (kernelgen's
// evaluation config at 10 instances, seed 1: ~600 files, 316 specs) under
// a temp dir, with the specs.json `seal infer` writes for it, and returns
// the tree and the spec file.
func warmBatchInputs(b *testing.B) (tree, specFile string) {
	b.Helper()
	cfg := kernelgen.EvalConfig()
	cfg.Instances, cfg.Seed = 10, 1
	c := kernelgen.Generate(cfg)
	dir := b.TempDir()
	if err := c.WriteTo(dir); err != nil {
		b.Fatal(err)
	}
	res, err := InferSpecs(c.Patches, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	data, err := res.DB.MarshalIndent()
	if err != nil {
		b.Fatal(err)
	}
	specFile = filepath.Join(dir, "specs.json")
	if err := os.WriteFile(specFile, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return filepath.Join(dir, "tree"), specFile
}

// BenchmarkWarmDetectInputs times the inputs a warm `seal detect -specs`
// loads on the warm-batch corpus: the spec file decoded from JSON and
// replayed from a filled spec cache tier, the tree read by the WalkDir
// reference and by ReadSourceDir (fsread.Tree), and the region groups'
// persistent-cache probes (93 entries), one after another and on
// detectGroups' pool of GOMAXPROCS readers.
func BenchmarkWarmDetectInputs(b *testing.B) {
	tree, specFile := warmBatchInputs(b)
	cacheDir := b.TempDir()
	db, err := ReadSpecFile(specFile, openTestCache(b, cacheDir))
	if err != nil {
		b.Fatal(err)
	}
	files, err := ReadSourceDir(tree)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := DetectFiles(context.Background(), files, db.Specs, DetectRunOptions{Workers: 2, Cache: openTestCache(b, cacheDir)}); err != nil {
		b.Fatal(err)
	}
	pc, err := OpenCache(cacheDir, true, 0)
	if err != nil {
		b.Fatal(err)
	}
	targetHash := TargetHash(files)
	var keys []string
	for _, g := range detect.ScopeGroups(db.Specs) {
		subset := make([]*Spec, len(g))
		for k, si := range g {
			subset[k] = db.Specs[si]
		}
		keys = append(keys, detectGroupKey(targetHash, subset[0].Scope(), SpecSetHash(subset), detectConfigPart(Limits{})))
	}
	probe := func(i int) {
		var o detect.Outcome
		if !pc.Get(cache.TierDetectGroup, keys[i], &o) {
			b.Fatalf("group %d missed", i)
		}
	}
	for _, bc := range []struct {
		name string
		load func() error
	}{
		{"specs=json", func() error { _, err := ReadSpecFile(specFile, nil); return err }},
		{"specs=replay", func() error { _, err := ReadSpecFile(specFile, pc); return err }},
		{"tree=serial", func() error { _, err := serialReadSourceDir(tree); return err }},
		{"tree=fsread", func() error { _, err := ReadSourceDir(tree); return err }},
		{"groups=serial", func() error { budget.Each(1, len(keys), probe); return nil }},
		{"groups=pooled", func() error { budget.Each(runtime.GOMAXPROCS(0), len(keys), probe); return nil }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bc.load(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
