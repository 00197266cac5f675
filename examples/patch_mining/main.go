// Patch mining: specification databases as reusable artifacts.
//
// The paper stresses that patch processing is a one-time effort whose
// output — the specification database — is reused for every subsequent
// detection run (§8.4). This example mines a patch corpus, serializes the
// database to JSON, reloads it, and verifies the round trip preserves
// every constraint, including the solver conditions.
//
// Run with: go run ./examples/patch_mining
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"seal"
	"seal/internal/kernelgen"
	"seal/internal/solver"
	"seal/internal/spec"
)

func main() {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	fmt.Printf("mining %d patches (including %d no-op refactors)...\n",
		len(corpus.Patches), corpus.Config.NoisePatches)

	res, err := seal.InferSpecs(corpus.Patches, seal.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range res.Outcomes {
		marker := " "
		if o.Specs == 0 {
			marker = "·" // zero-relation patch
		}
		fmt.Printf(" %s %-32s specs=%-2d paths(pre=%d post=%d)\n",
			marker, o.PatchID, o.Specs, o.Stats.PrePaths, o.Stats.PostPaths)
	}

	// Serialize.
	path := filepath.Join(os.TempDir(), "seal-specs.json")
	data, err := res.DB.MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d specs (%d bytes) to %s\n", len(res.DB.Specs), len(data), path)

	// Reload and verify.
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var back spec.DB
	if err := json.Unmarshal(raw, &back); err != nil {
		log.Fatal(err)
	}
	if len(back.Specs) != len(res.DB.Specs) {
		log.Fatalf("round trip lost specs: %d vs %d", len(back.Specs), len(res.DB.Specs))
	}
	for i := range back.Specs {
		a, b := res.DB.Specs[i], back.Specs[i]
		if a.Key() != b.Key() {
			log.Fatalf("spec %d key changed: %q vs %q", i, a.Key(), b.Key())
		}
		if !solver.Equiv(a.Constraint.Rel.Cond, b.Constraint.Rel.Cond) {
			log.Fatalf("spec %d condition changed across serialization", i)
		}
	}
	fmt.Println("reloaded database verified: all constraints and conditions intact")

	// The reloaded database detects exactly like the fresh one.
	target, err := seal.LoadFiles(corpus.Files)
	if err != nil {
		log.Fatal(err)
	}
	fresh := seal.Detect(target, res.DB.Specs)
	reloaded := seal.Detect(target, back.Specs)
	fmt.Printf("detection with fresh specs: %d reports; with reloaded specs: %d reports\n",
		len(fresh), len(reloaded))
	if len(fresh) != len(reloaded) {
		log.Fatal("reloaded database diverges from fresh one")
	}
}
