package dataflow

import (
	"testing"

	"seal/internal/kernelgen"
)

// benchConfig is the cold-batch corpus shape: the evaluation corpus with
// ten subsystem instances per bug family.
func benchConfig() kernelgen.Config {
	cfg := kernelgen.EvalConfig()
	cfg.Instances = 10
	cfg.Seed = 1
	return cfg
}

// Sinks keep the measured calls from being optimized away.
var (
	benchPTS  *PointsTo
	benchFlow *FuncFlow
)

// BenchmarkPointsTo measures the whole-program points-to solve.
func BenchmarkPointsTo(b *testing.B) {
	p := corpusProg(b, benchConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPTS = Analyze(p)
	}
}

// BenchmarkFlowAnalyze measures reaching definitions and def-use chains
// for every function against one frozen points-to solution.
func BenchmarkFlowAnalyze(b *testing.B) {
	p := corpusProg(b, benchConfig())
	pts := Analyze(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fn := range p.FuncList {
			benchFlow = FlowAnalyze(fn, pts)
		}
	}
}
