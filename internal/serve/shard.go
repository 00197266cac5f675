package serve

import (
	"net/http"

	"seal"
	"seal/internal/coord"
	"seal/internal/obs"
)

// handleShard is the worker half of the scale-out tier: it executes one
// coordinator-assigned shard of a detection corpus over the resident
// snapshot and answers with the wire-form result (bug records with dedup
// keys, unit summaries, manifest spans, robustness records, substrate
// counters). The same region-group flow as /detect runs underneath — a
// shard's groups warm and read the group memo and the persistent cache
// exactly like a full /detect run's, which is what lets a restarted worker
// replay instead of recompute, and the job's worker count takes effect.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	s.reg.Counter("seal_serve_shards_total", "shard requests").Add(1)
	var job coord.ShardJob
	if st, code, msg := decodeJSON(r, &job); st != 0 {
		s.writeError(w, st, code, msg, nil)
		return
	}
	if job.Specs == nil || len(job.Specs.Specs) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad-request", "shard: specs is required", nil)
		return
	}
	snap := s.store.Current() // pin: everything below reads this epoch only
	if job.TargetHash != "" && job.TargetHash != snap.TargetHash() {
		s.writeError(w, http.StatusConflict, "target-mismatch",
			"worker target "+snap.TargetHash()+" does not match job target "+job.TargetHash, nil)
		return
	}
	workers := job.Workers
	if workers < 1 {
		workers = s.cfg.Workers
	}
	rec := obs.New()
	rec.StartRun("shard")
	res, _, runErr := snap.Resident.Detect(r.Context(), seal.PlanGroups(job.Specs.Specs), seal.DetectRunOptions{
		Workers: workers,
		Limits:  job.Limits,
		Obs:     rec,
		Cache:   s.cfg.Cache.View(),
	})
	if runErr != nil {
		var failures []*seal.FailureRecord
		if res != nil {
			failures = res.Failures
		}
		s.runError(w, runErr, failures)
		return
	}
	m := rec.BuildManifest("shard", workers, nil, 0)
	out := res.Outcome
	out.Bugs = res.ShardBugs()
	s.writeJSON(w, http.StatusOK, coord.ShardResult{
		Shard:         job.Shard,
		TargetHash:    snap.TargetHash(),
		Outcome:       out,
		ManifestUnits: m.Units,
	})
}
