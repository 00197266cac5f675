package solver_test

import (
	"testing"

	"seal/internal/solver"
)

// BenchmarkSatBudgetColdBatch is the detector's condition-consistency
// check (detect's condConsistent minus the Ψ abstraction) over the
// cold-batch corpus's detection formulas: per op, from a cold memo, each
// distinct formula is rebuilt through MkAnd and checked under a live step
// function, as many rounds as the real one-worker run checks a formula on
// average.
func BenchmarkSatBudgetColdBatch(b *testing.B) {
	det := oracleCorpora(b)[2] // kernelgen-detect
	rounds := max(1, int(det.checks)/len(det.fs))
	step := func(int64) error { return nil }
	rebuild := func(f solver.Formula) solver.Formula {
		if x, ok := f.(solver.And); ok {
			return solver.MkAnd(x.Fs...)
		}
		return f
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.ResetMemo()
		var tl solver.Tally
		for r := 0; r < rounds; r++ {
			for _, f := range det.fs {
				tl.SatBudget(rebuild(f), step)
			}
		}
	}
	b.ReportMetric(float64(len(det.fs)*rounds), "checks/op")
}
