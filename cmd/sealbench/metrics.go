package main

// metricDef describes one reported metric. BENCHMARK.json at the repository
// root lists the same metrics; TestBenchmarkJSONMatches keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

func (d metricDef) lowerIsBetter() bool { return d.Better == "lower" }

// endToEnd are the metrics a user of seal sees, reported by every workload.
// "write" is the op of a workload that produces or changes the specs:
// `seal infer` on the batch workloads and store-large, POST /specs on
// serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"detect_p50_ms", "ms", "lower", 0.20},
	{"detect_tail_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"write_tail_ms", "ms", "lower", 0.25},
	{"detect_per_s", "1/s", "higher", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"recall", "ratio", "higher", 0.02},
	{"precision", "ratio", "higher", 0.05},
}

// perLayer are the traced pass's figures for single layers; they carry no
// bound. Names are "<module>.<figure>" after the repository's packages.
var perLayer = []metricDef{
	{Name: "bench.calibration_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.raw_setup_s", Unit: "s", Better: "lower"},
	{Name: "bench.raw_detect_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.raw_write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.spawn_ms", Unit: "ms", Better: "lower"},
	{Name: "cir.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "cir.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ir.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.funcs", Unit: "count", Better: "lower"},
	{Name: "ir.stmts", Unit: "count", Better: "lower"},
	{Name: "dataflow.pointsto_ms", Unit: "ms", Better: "lower"},
	{Name: "callgraph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "progindex.build_ms", Unit: "ms", Better: "lower"},
	{Name: "progindex.lookups", Unit: "count", Better: "lower"},
	{Name: "pdg.build_ms", Unit: "ms", Better: "lower"},
	{Name: "pdg.builds", Unit: "count", Better: "lower"},
	{Name: "pdg.ensure_calls", Unit: "count", Better: "lower"},
	{Name: "pdg.build_ratio", Unit: "ratio", Better: "lower"},
	{Name: "vfp.slice_ms", Unit: "ms", Better: "lower"},
	{Name: "vfp.path_enumerations", Unit: "count", Better: "lower"},
	{Name: "vfp.truncations", Unit: "count", Better: "lower"},
	{Name: "solver.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.sat_checks", Unit: "count", Better: "lower"},
	{Name: "solver.sat_memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "detect.run_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.units_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.groups", Unit: "count", Better: "lower"},
	{Name: "detect.reports", Unit: "count", Better: "lower"},
	{Name: "detect.parallelism", Unit: "ratio", Better: "higher"},
	{Name: "detect.path_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "detect.groups_computed", Unit: "count", Better: "lower"},
	{Name: "detect.groups_warm_ratio", Unit: "ratio", Better: "higher"},
	{Name: "patch.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "infer.run_ms", Unit: "ms", Better: "lower"},
	{Name: "infer.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "infer.pdg_ms", Unit: "ms", Better: "lower"},
	{Name: "infer.diff_ms", Unit: "ms", Better: "lower"},
	{Name: "infer.deduce_ms", Unit: "ms", Better: "lower"},
	{Name: "infer.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "infer.specs", Unit: "count", Better: "higher"},
	{Name: "infer.zero_relation_patches", Unit: "count", Better: "lower"},
	{Name: "report.render_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.get_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.get_detect_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.entries", Unit: "count", Better: "lower"},
	{Name: "cache.entry_kb", Unit: "KB", Better: "lower"},
	{Name: "cache.hits", Unit: "count", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "specdb.import_ms", Unit: "ms", Better: "lower"},
	{Name: "specdb.batch_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "specdb.snapshot_specs_ms", Unit: "ms", Better: "lower"},
	{Name: "specdb.dead_page_ratio", Unit: "ratio", Better: "lower"},
	{Name: "specdb.file_mb", Unit: "MB", Better: "lower"},
	{Name: "op.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "op.server_ms", Unit: "ms", Better: "lower"},
	{Name: "op.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "op.response_kb", Unit: "KB", Better: "lower"},
	{Name: "serve.memo_entries", Unit: "count", Better: "higher"},
	{Name: "serve.resident_pdg_funcs", Unit: "count", Better: "lower"},
	{Name: "trace.unaccounted_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.unaccounted_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// metricByName finds an end-to-end or per-layer definition.
func metricByName(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
