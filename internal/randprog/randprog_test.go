// Property-based tests driving the whole analysis stack over random
// structured programs: the frontend must parse what the generator emits,
// the CFG analyses must uphold their structural invariants, the dataflow
// and PDG layers must stay mutually consistent, and path slicing must
// terminate with well-formed paths.
package randprog

import (
	"strings"
	"testing"

	"seal/internal/cfg"
	"seal/internal/cir"
	"seal/internal/dataflow"
	"seal/internal/ir"
	"seal/internal/pdg"
	"seal/internal/vfp"
)

const seeds = 40

func genProg(t *testing.T, seed int64, opts Options) *ir.Program {
	t.Helper()
	src := Program(seed, 3, opts)
	f, err := cir.ParseFile("rand.c", src)
	if err != nil {
		t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, src)
	}
	p, err := ir.NewProgram(f)
	if err != nil {
		t.Fatalf("seed %d: program does not lower: %v\n%s", seed, err, src)
	}
	return p
}

// TestGeneratedProgramsParse: the generator's output is always valid
// kernel-C and lowers without error.
func TestGeneratedProgramsParse(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		p := genProg(t, seed, Default())
		if len(p.FuncList) != 3 {
			t.Fatalf("seed %d: %d funcs", seed, len(p.FuncList))
		}
	}
}

// TestCFGInvariants: for every function,
//   - each non-exit block reachable from entry has an immediate
//     post-dominator chain ending at exit,
//   - Reaches(a,b) implies Order[a] < Order[b] (Ω is consistent with
//     forward reachability),
//   - OrderComparable is symmetric.
func TestCFGInvariants(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		p := genProg(t, seed, Default())
		for _, fn := range p.FuncList {
			info := cfg.Analyze(fn)
			stmts := fn.Stmts()
			for i := 0; i < len(stmts); i += 3 {
				for j := 0; j < len(stmts); j += 3 {
					a, b := stmts[i], stmts[j]
					if a == b {
						continue
					}
					if info.Reaches(a, b) && !(info.Order[a] < info.Order[b]) {
						t.Fatalf("seed %d %s: Reaches(%v,%v) but Ω %d >= %d",
							seed, fn.Name, a, b, info.Order[a], info.Order[b])
					}
					if info.OrderComparable(a, b) != info.OrderComparable(b, a) {
						t.Fatalf("seed %d %s: OrderComparable not symmetric", seed, fn.Name)
					}
				}
			}
		}
	}
}

// TestDataflowDefUseConsistency: on acyclic programs every def flows
// forward (def reaches use).
func TestDataflowDefUseConsistency(t *testing.T) {
	opts := Default()
	opts.Loops = false // acyclic: defs must precede uses
	for seed := int64(0); seed < seeds; seed++ {
		p := genProg(t, seed, opts)
		pts := dataflow.Analyze(p)
		for _, fn := range p.FuncList {
			ff := dataflow.FlowAnalyze(fn, pts)
			info := cfg.Analyze(fn)
			for _, d := range ff.Deps {
				if d.Def.Fn != fn || d.Use.Fn != fn {
					t.Fatalf("seed %d: intra dep crosses functions", seed)
				}
				if !info.Reaches(d.Def, d.Use) {
					t.Fatalf("seed %d %s: def %v does not reach use %v in acyclic CFG",
						seed, fn.Name, d.Def, d.Use)
				}
			}
		}
	}
}

// TestPDGEdgeMirroring: SuccEdges and PredEdges are exact mirrors.
func TestPDGEdgeMirroring(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		p := genProg(t, seed, Default())
		g := pdg.BuildAll(p)
		for _, fn := range p.FuncList {
			for _, s := range fn.Stmts() {
				succs := g.SuccEdges(s)
				for i := 0; i < succs.Len(); i++ {
					e := succs.At(i)
					found := false
					preds := g.PredEdges(e.To)
					for j := 0; j < preds.Len(); j++ {
						back := preds.At(j)
						if back.From == s && back.Kind == e.Kind && back.Loc.Key() == e.Loc.Key() {
							found = true
						}
					}
					if !found {
						t.Fatalf("seed %d: succ edge %v->%v not mirrored", seed, e.From, e.To)
					}
				}
			}
		}
	}
}

// TestSlicerPathWellFormed: every collected path starts at its source
// statement, ends before its sink statement's endpoint, and has signature
// stability (same path object yields the same signature twice).
func TestSlicerPathWellFormed(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		p := genProg(t, seed, Default())
		g := pdg.BuildAll(p)
		sl := vfp.NewSlicer(g)
		for _, fn := range p.FuncList {
			for _, s := range fn.Stmts() {
				if s.Kind != ir.StCall {
					continue
				}
				for _, path := range sl.Collect(s) {
					if len(path.Nodes) == 0 {
						t.Fatalf("seed %d: empty path", seed)
					}
					if path.Nodes[0] != path.Source.Stmt {
						t.Fatalf("seed %d: path does not start at source (%v vs %v)",
							seed, path.Nodes[0], path.Source.Stmt)
					}
					if sig1, sig2 := path.Signature(), path.Signature(); sig1 != sig2 {
						t.Fatalf("seed %d: unstable signature", seed)
					}
					if !path.Contains(path.Sink.Stmt) && path.Sink.Stmt != path.Nodes[len(path.Nodes)-1] {
						t.Fatalf("seed %d: sink statement not on path", seed)
					}
				}
			}
		}
	}
}

// TestPsiNeverContradictsItself: a realizable statement's own Ψ must be
// satisfiable unless the statement is truly dead (guarded by contradictory
// branches); on our generated programs we only check that computing Ψ
// terminates and yields a formula.
func TestPsiComputationTerminates(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		p := genProg(t, seed, Default())
		g := pdg.BuildAll(p)
		for _, fn := range p.FuncList {
			for _, s := range fn.Stmts() {
				_ = g.PathCondition(s)
			}
		}
	}
}

// TestLowerLineMonotone: generated sources give statements whose lines all
// exist in the source text.
func TestLowerLineValid(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		src := Program(seed, 2, Default())
		nLines := strings.Count(src, "\n") + 1
		f, err := cir.ParseFile("rand.c", src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.NewProgram(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range p.FuncList {
			for _, s := range fn.Stmts() {
				if s.Line < 0 || s.Line > nLines {
					t.Fatalf("seed %d: stmt %v has line %d of %d", seed, s, s.Line, nLines)
				}
			}
		}
	}
}
