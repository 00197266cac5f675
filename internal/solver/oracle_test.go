package solver_test

// Differential oracle for the solver memo: over the formulas the pipeline
// actually checks — randprog path conditions, the kernelgen detection
// formulas MkAnd(Ψ, cond), and the inference Equiv/Unsat formulas — the
// memoized Sat and SatBudget must give the reference verdicts and make the
// reference step charges, call by call, on a miss, an exact hit and a
// reordered hit, and with step failing at every charge.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"seal"
	"seal/internal/cir"
	"seal/internal/ir"
	"seal/internal/kernelgen"
	"seal/internal/pdg"
	"seal/internal/randprog"
	"seal/internal/solver"
)

type corpus struct {
	name string
	fs   []solver.Formula
	// checks is how many checks the run that asked for fs made (0 for
	// formulas not gathered from a run).
	checks int64
}

var (
	corporaOnce sync.Once
	corporaSet  []corpus
	corporaErr  error
	// coldBatchFiles and coldBatchSpecs are the cold-batch corpus's target
	// tree and inferred specs.
	coldBatchFiles map[string]string
	coldBatchSpecs []*seal.Spec
)

// oracleCorpora builds the three formula corpora once per test binary.
// The kernelgen ones come from the cold-batch benchmark corpus (kernelgen
// EvalConfig at 10 instances) and are read back from the memo after a
// cold inference and a cold one-worker detection: the memo holds every
// distinct formula checked.
func oracleCorpora(t testing.TB) []corpus {
	t.Helper()
	corporaOnce.Do(func() {
		var paths []solver.Formula
		for seed := int64(0); seed < 12; seed++ {
			f, err := cir.ParseFile("rand.c", randprog.Program(seed, 3, randprog.Default()))
			if err != nil {
				corporaErr = err
				return
			}
			prog, err := ir.NewProgram(f)
			if err != nil {
				corporaErr = err
				return
			}
			g := pdg.BuildAll(prog)
			for _, fn := range prog.FuncList {
				for _, s := range fn.Stmts() {
					paths = append(paths, g.PathCondition(s))
				}
			}
		}
		cfg := kernelgen.EvalConfig()
		cfg.Instances = 10
		kc := kernelgen.Generate(cfg)
		solver.ResetMemo()
		res, err := seal.InferSpecs(kc.Patches, seal.DefaultOptions())
		if err != nil {
			corporaErr = err
			return
		}
		inferFs := solver.MemoFormulas()
		coldBatchFiles, coldBatchSpecs = kc.Files, res.DB.Specs
		solver.ResetMemo()
		det, _, err := seal.DetectFiles(context.Background(), kc.Files, res.DB.Specs, seal.DetectRunOptions{Workers: 1})
		if err != nil {
			corporaErr = err
			return
		}
		detectFs := solver.MemoFormulas()
		solver.ResetMemo()
		corporaSet = []corpus{
			{name: "randprog-paths", fs: distinct(paths)},
			{name: "kernelgen-infer", fs: distinct(inferFs), checks: res.Solver.Checks},
			{name: "kernelgen-detect", fs: distinct(detectFs), checks: det.Solver.Checks},
		}
	})
	if corporaErr != nil {
		t.Fatal(corporaErr)
	}
	for _, c := range corporaSet {
		if len(c.fs) == 0 {
			t.Fatalf("corpus %s is empty; the oracle would be vacuous", c.name)
		}
	}
	return corporaSet
}

// distinct dedups formulas by rendering, in rendering order.
func distinct(fs []solver.Formula) []solver.Formula {
	seen := make(map[string]solver.Formula, len(fs))
	for _, f := range fs {
		seen[solver.String(f)] = f
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]solver.Formula, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// reorder reverses every And/Or operand list: the same formula up to
// conjunct/disjunct order, built without MkAnd/MkOr so nothing is
// renormalized.
func reorder(f solver.Formula) solver.Formula {
	rev := func(fs []solver.Formula) []solver.Formula {
		out := make([]solver.Formula, len(fs))
		for i, s := range fs {
			out[len(fs)-1-i] = reorder(s)
		}
		return out
	}
	switch x := f.(type) {
	case solver.Not:
		return solver.Not{F: reorder(x.F)}
	case solver.And:
		return solver.And{Fs: rev(x.Fs)}
	case solver.Or:
		return solver.Or{Fs: rev(x.Fs)}
	}
	return f
}

var errRefused = errors.New("step refused")

// stepper records every charge and refuses the failAt-th and later ones
// (never, when failAt <= 0), like a latched budget.
type stepper struct {
	failAt  int
	charges []int64
}

func (s *stepper) step(n int64) error {
	s.charges = append(s.charges, n)
	if s.failAt > 0 && len(s.charges) >= s.failAt {
		return errRefused
	}
	return nil
}

// outcome is one budgeted check: its verdict and the charges it made.
type outcome struct {
	sat     bool
	n       int
	charges string
}

func budgeted(check func(solver.Formula, func(int64) error) bool, f solver.Formula, failAt int) outcome {
	s := &stepper{failAt: failAt}
	v := check(f, s.step)
	return outcome{v, len(s.charges), fmt.Sprint(s.charges)}
}

// diffOne holds one formula's budgeted and unbudgeted checks to the
// reference, cold and warm.
func diffOne(t *testing.T, ref *refSolver, f solver.Formula) {
	t.Helper()
	name := solver.String(f)
	g := reorder(f)
	want := budgeted(ref.refSatBudget, f, 0)
	wantG := budgeted(ref.refSatBudget, g, 0)
	if v := refSatRaw(f); v != want.sat {
		t.Fatalf("%s: reference disagrees with itself (%v vs %v)", name, v, want.sat)
	}
	var tl solver.Tally
	check := func(label string, f solver.Formula, want outcome, failAt int, wantTally solver.Tally) {
		t.Helper()
		before := tl
		if got := budgeted(tl.SatBudget, f, failAt); got != want {
			t.Fatalf("%s: %s (fail at %d): got %+v, reference %+v", name, label, failAt, got, want)
		}
		if d := (solver.Tally{Checks: tl.Checks - before.Checks, MemoHits: tl.MemoHits - before.MemoHits,
			MemoMisses: tl.MemoMisses - before.MemoMisses}); d != wantTally {
			t.Fatalf("%s: %s: tally %+v, want %+v", name, label, d, wantTally)
		}
	}
	hit, miss := solver.Tally{Checks: 1, MemoHits: 1}, solver.Tally{Checks: 1, MemoMisses: 1}

	solver.ResetMemo()
	check("miss", f, want, 0, miss)
	check("exact hit", f, want, 0, hit)
	if got := tl.Sat(g); got != want.sat {
		t.Fatalf("%s: unbudgeted reordered hit = %v, want %v", name, got, want.sat)
	}
	if solver.Equal(f, g) {
		check("reordered check", g, wantG, 0, hit)
	} else {
		check("reordered check", g, wantG, 0, miss) // recomputed: charges follow g's own DNF order
		check("reordered exact hit", g, wantG, 0, hit)
		check("original kept beside it", f, want, 0, hit)
	}

	for k := 1; k <= want.n; k++ {
		if want.n > 64 && k > 8 && k < want.n-8 && k != want.n/2 {
			continue // beyond the corpora's sizes: sample both ends and the middle
		}
		wantK := budgeted(ref.refSatBudget, f, k)
		solver.ResetMemo()
		check("refused miss", f, wantK, k, miss)
		check("refused miss not stored", f, wantK, k, miss)
		check("warming miss", f, want, 0, miss)
		check("refused hit", f, wantK, k, hit)
	}
	solver.ResetMemo()
	if got, wantU := solver.Sat(f), ref.refSat(f); got != wantU {
		t.Fatalf("%s: unbudgeted Sat = %v, reference %v", name, got, wantU)
	}
}

func TestSatOracleDifferential(t *testing.T) {
	defer solver.ResetMemo()
	for _, c := range oracleCorpora(t) {
		t.Run(c.name, func(t *testing.T) {
			ref := newRefSolver()
			for _, f := range c.fs {
				diffOne(t, ref, f)
			}
			t.Logf("%d distinct formulas", len(c.fs))
		})
	}
}

// TestSatOracleConcurrent checks the same formulas from several goroutines
// through one shared memo, each in its own order and mixing exact and
// reordered forms, budgeted and not: whatever state the others left the
// memo in, every check gives the reference verdict and charges. Run it
// under -race.
func TestSatOracleConcurrent(t *testing.T) {
	defer solver.ResetMemo()
	var fs []solver.Formula
	for _, c := range oracleCorpora(t) {
		fs = append(fs, c.fs...)
	}
	ref := newRefSolver()
	type item struct {
		f    solver.Formula
		want outcome
	}
	items := make([]item, 0, 2*len(fs))
	for _, f := range fs {
		g := reorder(f)
		items = append(items,
			item{f, budgeted(ref.refSatBudget, f, 0)},
			item{g, budgeted(ref.refSatBudget, g, 0)})
	}
	solver.ResetMemo()
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tl solver.Tally
			for i := range items {
				it := items[(i*(2*w+1)+w)%len(items)]
				if got := budgeted(tl.SatBudget, it.f, 0); got != it.want {
					errs <- fmt.Errorf("worker %d: %s: got %+v, reference %+v", w, solver.String(it.f), got, it.want)
					return
				}
				if got := tl.Sat(it.f); got != it.want.sat {
					errs <- fmt.Errorf("worker %d: unbudgeted %s = %v, want %v", w, solver.String(it.f), got, it.want.sat)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStructuralEqualityMatchesFString: on every subformula of the
// corpora, exact structural equality holds exactly when the renderings
// are equal — so MkAnd/MkOr, which now dedup structurally, keep the
// operands the String-keyed dedup kept — and order-insensitive equality
// implies an equal canonical key. MkAnd/MkOr and NNF rebuild every corpus
// formula exactly as the reference builders do.
func TestStructuralEqualityMatchesFString(t *testing.T) {
	var subs []solver.Formula
	var walk func(f solver.Formula)
	walk = func(f solver.Formula) {
		subs = append(subs, f)
		switch x := f.(type) {
		case solver.Not:
			walk(x.F)
		case solver.And:
			for _, s := range x.Fs {
				walk(s)
			}
		case solver.Or:
			for _, s := range x.Fs {
				walk(s)
			}
		}
	}
	for _, c := range oracleCorpora(t) {
		for _, f := range c.fs {
			walk(f)
			walk(reorder(f))
			if got, want := solver.String(solver.NNF(f)), solver.String(refNNF(f)); got != want {
				t.Fatalf("NNF(%s) = %s, reference %s", solver.String(f), got, want)
			}
			switch x := f.(type) {
			case solver.And:
				if got, want := solver.String(solver.MkAnd(x.Fs...)), solver.String(refMkAnd(x.Fs...)); got != want {
					t.Fatalf("MkAnd rebuilt %s, reference %s", got, want)
				}
			case solver.Or:
				if got, want := solver.String(solver.MkOr(x.Fs...)), solver.String(refMkOr(x.Fs...)); got != want {
					t.Fatalf("MkOr rebuilt %s, reference %s", got, want)
				}
			}
		}
	}
	// Equal formulas share a canonical key, so comparing within key
	// buckets covers every pair that could be equal.
	buckets := make(map[uint64][]solver.Formula)
	for _, f := range subs {
		buckets[solver.CanonKey(f)] = append(buckets[solver.CanonKey(f)], f)
	}
	pairs := 0
	for _, b := range buckets {
		for i := range b {
			for j := i; j < len(b); j++ {
				pairs++
				same := solver.String(b[i]) == solver.String(b[j])
				if eq := solver.Equal(b[i], b[j]); eq != same {
					t.Fatalf("Equal(%s, %s) = %v, renderings equal = %v", solver.String(b[i]), solver.String(b[j]), eq, same)
				}
			}
		}
	}
	for _, f := range subs {
		g := reorder(f)
		if !solver.EqualUnordered(f, g) || solver.CanonKey(f) != solver.CanonKey(g) {
			t.Fatalf("%s and its reordering differ (unordered-equal %v)", solver.String(f), solver.EqualUnordered(f, g))
		}
	}
	t.Logf("%d subformulas, %d same-key pairs", len(subs), pairs)
}
