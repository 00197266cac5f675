package seal

import (
	"strings"

	"seal/internal/obs"
	"seal/internal/solver"
)

// RunArtifacts is the observability output of one finished run: the
// deterministic manifest and the Prometheus text metrics. It is what the
// CLI writes to -manifest-out/-metrics-out and what the serve daemon
// embeds in each response envelope — built by the same code so the two
// are byte-identical after redaction.
type RunArtifacts struct {
	Manifest *Manifest
	Metrics  string
}

// FinishInferRun derives an inference run's outcome metrics and builds its
// artifacts. Returns nil when rec is nil (observability disabled).
func FinishInferRun(rec *Recorder, res *InferenceResult, nPatches, workers int, inputs map[string]string) (*RunArtifacts, error) {
	if rec == nil {
		return nil, nil
	}
	t := res.Totals()
	reg := rec.Registry()
	reg.Counter("seal_infer_patches_total", "security patches processed").Add(int64(nPatches))
	reg.Counter("seal_infer_specs_total", "specifications inferred this run").Add(int64(len(res.DB.Specs)))
	reg.Counter("seal_infer_zero_relation_patches_total", "patches yielding no relation").Add(int64(res.ZeroRelationPatches))
	reg.Counter("seal_infer_relations_pminus_total", "P- (removed-path) relations").Add(int64(t.PMinus))
	reg.Counter("seal_infer_relations_pplus_total", "P+ (added-path) relations").Add(int64(t.PPlus))
	reg.Counter("seal_infer_relations_ppsi_total", "PΨ (order) relations").Add(int64(t.PPsi))
	reg.Counter("seal_infer_relations_pomega_total", "PΩ (condition) relations").Add(int64(t.POmega))
	return finishRun(rec, "infer", workers, inputs, res.Solver, res.PCache)
}

// FinishDetectRun derives a detection run's outcome metrics and builds its
// artifacts. renderSecs is the report-rendering wall time (zero when no
// report was rendered). Returns nil when rec is nil.
func FinishDetectRun(rec *Recorder, res *DetectResult, nSpecs, workers int, inputs map[string]string, renderSecs float64) (*RunArtifacts, error) {
	if rec == nil {
		return nil, nil
	}
	st := res.Stats
	reg := rec.Registry()
	reg.Counter("seal_detect_specs_total", "specifications checked").Add(int64(nSpecs))
	reg.Counter("seal_detect_bugs_total", "bug reports emitted").Add(int64(len(res.Recs)))
	reg.Counter("seal_pdg_ensure_calls_total", "PDG ensure calls against the shared substrate").Add(st.EnsureCalls)
	reg.Counter("seal_pdg_builds_total", "PDGs actually built (single-flight misses)").Add(st.EnsureBuilds)
	reg.Gauge("seal_pdg_build_seconds_total", "wall time spent building PDGs").Set(float64(st.PDGBuildNanos) / 1e9)
	reg.Counter("seal_path_cache_hits_total", "shared path-cache hits").Add(st.PathCacheHits)
	reg.Counter("seal_path_cache_misses_total", "shared path-cache misses").Add(st.PathCacheMisses)
	reg.Gauge("seal_path_cache_hit_ratio", "path-cache hit rate in [0,1]").Set(st.PathHitRate())
	reg.Counter("seal_index_lookups_total", "program-index lookups").Add(st.IndexLookups)
	reg.Counter("seal_path_enumerations_total", "slicer path enumerations").Add(st.PathEnumerations)
	reg.Counter("seal_truncations_total", "budget-truncated path enumerations").Add(st.Truncations)
	reg.Gauge("seal_report_render_seconds", "wall time spent rendering reports").Set(renderSecs)
	return finishRun(rec, "detect", workers, inputs, res.Solver, res.PCache)
}

// finishRun is the command-independent tail: build the manifest, derive
// the solver, persistent-cache, run-outcome and duration metrics,
// re-snapshot the registry into the manifest, and render the metrics text.
// sat is the run's solver work, summed over its units, so concurrent runs
// in one process never see each other's checks.
func finishRun(rec *Recorder, command string, workers int, inputs map[string]string, sat solver.Tally, pstats CacheStats) (*RunArtifacts, error) {
	m := rec.BuildManifest(command, workers, inputs, 10)
	reg := rec.Registry()
	reg.Counter("seal_solver_sat_checks_total", "satisfiability checks performed").Add(sat.Checks)
	reg.Counter("seal_solver_sat_memo_hits_total", "solver memo hits").Add(sat.MemoHits)
	reg.Counter("seal_solver_sat_memo_misses_total", "solver memo misses").Add(sat.MemoMisses)
	reg.Counter("seal_pcache_hits_total", "persistent analysis cache hits").Add(pstats.Hits)
	reg.Counter("seal_pcache_misses_total", "persistent analysis cache misses").Add(pstats.Misses)
	reg.Counter("seal_pcache_writes_total", "persistent analysis cache writes").Add(pstats.Writes)
	reg.Counter("seal_pcache_read_bytes_total", "bytes read from persistent analysis cache entries").Add(pstats.ReadBytes)
	reg.Counter("seal_pcache_write_bytes_total", "bytes written to persistent analysis cache entries").Add(pstats.WriteBytes)
	reg.Counter("seal_pcache_corrupt_total", "cache entries failing verification, degraded to misses").Add(pstats.Corrupt)
	reg.Counter("seal_pcache_uncacheable_total", "results not cached because they were degraded or partial").Add(pstats.Uncacheable)
	reg.Counter("seal_pcache_evictions_total", "cache entries evicted by the size bound (recompute on next miss)").Add(pstats.Evictions)
	reg.Counter("seal_pcache_evicted_bytes_total", "on-disk bytes reclaimed by eviction").Add(pstats.EvictedBytes)
	reg.Counter("seal_units_ok_total", "units of work completing normally").Add(int64(m.Outcomes.OK))
	reg.Counter("seal_units_degraded_total", "units completing with budget-truncated results").Add(int64(m.Outcomes.Degraded))
	reg.Counter("seal_units_quarantined_total", "units isolated after a panic, deadline, or error").Add(int64(m.Outcomes.Quarantined))
	reg.Counter("seal_units_skipped_total", "units never attempted because the run aborted").Add(int64(m.Outcomes.Skipped))
	h := reg.Histogram("seal_unit_duration_seconds", "wall time of one unit of work", obs.DefaultDurationBuckets)
	for _, u := range m.Units {
		h.Observe(u.DurMS / 1e3)
	}
	// Re-snapshot so the manifest sees the derived counters too.
	m.Counters = reg.Snapshot()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return nil, err
	}
	return &RunArtifacts{Manifest: m, Metrics: sb.String()}, nil
}
