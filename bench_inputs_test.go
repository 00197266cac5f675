package seal

import (
	"os"
	"path/filepath"
	"testing"

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

// BenchmarkWarmDetectInputs times the two inputs a warm `seal detect
// -specs` loads on the warm-batch corpus: the spec file decoded from JSON
// and replayed from a filled spec cache tier, and the tree read serially
// and on the reader pool.
func BenchmarkWarmDetectInputs(b *testing.B) {
	tree, specFile := warmBatchInputs(b)
	cacheDir := b.TempDir()
	if _, _, err := ReadSpecFile(specFile, cacheDir, false, 0); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		load func() error
	}{
		{"specs=json", func() error { _, _, err := ReadSpecFile(specFile, "", false, 0); return err }},
		{"specs=replay", func() error { _, _, err := ReadSpecFile(specFile, cacheDir, true, 0); return err }},
		{"tree=serial", func() error { _, err := serialReadSourceDir(tree); return err }},
		{"tree=pooled", func() error { _, err := ReadSourceDir(tree); return err }},
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
