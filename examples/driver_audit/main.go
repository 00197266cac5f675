// Driver audit: the paper's headline workload at corpus scale.
//
// We generate a synthetic mini-Linux tree (DESIGN.md §6) with hundreds of
// drivers and seeded bugs across the seven Table 2 bug types, learn
// specifications from the corpus's historical security patches, audit the
// whole tree, and score the reports against exact ground truth — the RQ1
// experiment as a runnable program.
//
// Run with: go run ./examples/driver_audit
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"seal"
	"seal/internal/kernelgen"
	"seal/internal/report"
)

func main() {
	cfg := kernelgen.EvalConfig()
	corpus := kernelgen.Generate(cfg)
	fmt.Printf("corpus: %d files, %d historical patches, %d seeded latent bugs\n",
		len(corpus.Files), len(corpus.Patches), len(corpus.Bugs))

	// Learn from the patch history.
	res, err := seal.InferSpecsContext(context.Background(), corpus.Patches, seal.Options{Validate: true, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	t := res.Totals()
	fmt.Printf("specs: %d inferred (P-=%d P+=%d PΨ=%d PΩ=%d); %d patches yielded no relations\n",
		len(res.DB.Specs), t.PMinus, t.PPlus, t.PPsi, t.POmega, res.ZeroRelationPatches)

	// Audit the tree.
	target, err := seal.LoadFiles(corpus.Files)
	if err != nil {
		log.Fatal(err)
	}
	bugs := seal.Detect(target, res.DB.Specs)

	// Score against ground truth.
	gt := corpus.BugByFunc()
	tp, fp := 0, 0
	foundKinds := map[string]int{}
	found := map[string]bool{}
	for _, b := range bugs {
		if g, ok := gt[b.Fn.Name]; ok {
			tp++
			if !found[g.Func] {
				found[g.Func] = true
				foundKinds[g.Kind]++
			}
		} else {
			fp++
		}
	}
	fmt.Printf("\naudit: %d reports, %d TP / %d FP (precision %.1f%%), %d/%d distinct bugs found\n",
		len(bugs), tp, fp, 100*float64(tp)/float64(len(bugs)), len(found), len(gt))

	kinds := make([]string, 0, len(foundKinds))
	for k := range foundKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Println("\nfound bugs by type:")
	for _, k := range kinds {
		fmt.Printf("  %-10s %d\n", k, foundKinds[k])
	}

	sum := report.Summarize(bugs)
	fmt.Println("\nreports by detector label:")
	for _, k := range sum.KindsSorted() {
		fmt.Printf("  %-12s %d\n", k, sum.ByKind[k])
	}
}
