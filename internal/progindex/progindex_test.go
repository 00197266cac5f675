package progindex

import (
	"testing"

	"seal/internal/cir"
	"seal/internal/ir"
	"seal/internal/kernelgen"
)

func corpusProg(t *testing.T) *ir.Program {
	t.Helper()
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	var files []*cir.File
	for _, name := range corpus.SortedFileNames() {
		f, err := cir.ParseFile(name, corpus.Files[name])
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	prog, err := ir.NewProgram(files...)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestIndexMatchesScan cross-checks every index structure against the
// brute-force statement scans it replaces.
func TestIndexMatchesScan(t *testing.T) {
	prog := corpusProg(t)
	ix := Build(prog)

	for _, fn := range prog.FuncList {
		fi := ix.Func(fn)
		if fi == nil {
			t.Fatalf("no FuncIndex for %s", fn.Name)
		}

		// Calls by callee + first-occurrence callee names.
		wantCalls := make(map[string][]*ir.Stmt)
		var wantNames []string
		nameSeen := make(map[string]bool)
		var wantDefined []*ir.Func
		definedSeen := make(map[*ir.Func]bool)
		wantLits := make(map[int64][]*ir.Stmt)
		for _, s := range fn.Stmts() {
			switch s.Kind {
			case ir.StCall:
				if s.Callee == "" {
					continue
				}
				wantCalls[s.Callee] = append(wantCalls[s.Callee], s)
				if !nameSeen[s.Callee] {
					nameSeen[s.Callee] = true
					wantNames = append(wantNames, s.Callee)
				}
				if callee, ok := prog.Funcs[s.Callee]; ok && !definedSeen[callee] {
					definedSeen[callee] = true
					wantDefined = append(wantDefined, callee)
				}
			case ir.StAssign:
				if lit, ok := s.RHS.(*cir.IntLit); ok {
					wantLits[lit.Val] = append(wantLits[lit.Val], s)
				}
			case ir.StReturn:
				if lit, ok := s.X.(*cir.IntLit); ok {
					wantLits[lit.Val] = append(wantLits[lit.Val], s)
				}
			}
		}
		if len(fi.CallsByCallee) != len(wantCalls) {
			t.Errorf("%s: CallsByCallee has %d callees, want %d", fn.Name, len(fi.CallsByCallee), len(wantCalls))
		}
		for name, want := range wantCalls {
			got := fi.CallsByCallee[name]
			if len(got) != len(want) {
				t.Errorf("%s: calls to %s = %d, want %d", fn.Name, name, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: call %d to %s differs", fn.Name, i, name)
				}
			}
		}
		if len(fi.CalleeNames) != len(wantNames) {
			t.Errorf("%s: CalleeNames = %v, want %v", fn.Name, fi.CalleeNames, wantNames)
		} else {
			for i := range wantNames {
				if fi.CalleeNames[i] != wantNames[i] {
					t.Errorf("%s: CalleeNames[%d] = %s, want %s", fn.Name, i, fi.CalleeNames[i], wantNames[i])
				}
			}
		}
		if len(fi.DefinedCallees) != len(wantDefined) {
			t.Errorf("%s: DefinedCallees count = %d, want %d", fn.Name, len(fi.DefinedCallees), len(wantDefined))
		} else {
			for i := range wantDefined {
				if fi.DefinedCallees[i] != wantDefined[i] {
					t.Errorf("%s: DefinedCallees[%d] differs", fn.Name, i)
				}
			}
		}
		for val, want := range wantLits {
			got := fi.IntLits[val]
			if len(got) != len(want) {
				t.Errorf("%s: IntLits[%d] = %d stmts, want %d", fn.Name, val, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: IntLits[%d][%d] differs", fn.Name, val, i)
				}
			}
		}

		// Param defs.
		var wantParams []*ir.Stmt
		for _, ps := range fn.Entry.Stmts {
			if ps.IsParamDef() {
				wantParams = append(wantParams, ps)
			}
		}
		if len(fi.ParamDefs) != len(wantParams) {
			t.Errorf("%s: ParamDefs = %d, want %d", fn.Name, len(fi.ParamDefs), len(wantParams))
		}
	}

	// CallersOf matches Program.CallersOfAPI-style discovery (distinct
	// functions, sorted by name).
	for _, api := range []string{"kmalloc", "kfree", "dma_alloc_coherent"} {
		seen := make(map[*ir.Func]bool)
		for _, call := range prog.CallersOfAPI(api) {
			seen[call.Fn] = true
		}
		got := ix.CallersOf(api)
		if len(got) != len(seen) {
			t.Errorf("CallersOf(%s) = %d funcs, want %d", api, len(got), len(seen))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Name >= got[i].Name {
				t.Errorf("CallersOf(%s) not sorted at %d", api, i)
			}
		}
		for _, f := range got {
			if !seen[f] {
				t.Errorf("CallersOf(%s) includes %s, which has no direct call", api, f.Name)
			}
		}
	}

	var n int64
	h := ix.Counting(&n)
	h.Func(prog.FuncList[0])
	h.CallersOf("kmalloc")
	if n != 2 {
		t.Errorf("counting handle charged %d lookups, want 2", n)
	}
}

// TestReadsGlobalsPrefilter: the syntactic global-read prefilter must cover
// every function whose flow analysis can surface an unrooted global use.
func TestReadsGlobalsPrefilter(t *testing.T) {
	prog := corpusProg(t)
	ix := Build(prog)
	for _, fn := range prog.FuncList {
		fi := ix.Func(fn)
		for _, s := range fn.Stmts() {
			for _, u := range effectiveGlobalReads(fn, s) {
				if !fi.ReadsGlobals[u] {
					t.Errorf("%s reads global %s but prefilter misses it", fn.Name, u)
				}
			}
		}
	}
}

func effectiveGlobalReads(fn *ir.Func, s *ir.Stmt) []string {
	var out []string
	for _, u := range s.Uses {
		if u.Base.Kind == ir.VarGlobal && !u.HasDeref() {
			out = append(out, u.Base.Name)
		}
	}
	return out
}
