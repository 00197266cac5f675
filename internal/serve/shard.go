package serve

import (
	"errors"
	"fmt"
	"net/http"

	"seal"
	"seal/internal/coord"
	"seal/internal/obs"
	"seal/internal/spec"
	"seal/internal/specdb"
)

// resolveSpecStore materializes a job's spec subset from a shared spec
// store reference: open the store pinned at exactly the referenced
// snapshot sequence, read the named scopes' specs in global ordinal
// order, and verify the resolved subset's content hash against what the
// coordinator planned. Any failure maps to a structured 409 — the
// coordinator treats it like any other shard loss and can retry or
// re-shard, but the worker never computes against a corpus the plan did
// not name.
func resolveSpecStore(ref *coord.SpecStoreRef) ([]*spec.Spec, string, string) {
	st, err := specdb.OpenAt(ref.Path, ref.Seq)
	if err != nil {
		if errors.Is(err, specdb.ErrSnapshotGone) {
			return nil, "spec-store-skew", fmt.Sprintf("shard: spec store %s: %v", ref.Path, err)
		}
		return nil, "spec-store-error", fmt.Sprintf("shard: spec store %s: %v", ref.Path, err)
	}
	defer st.Close()
	subset, err := st.Current().ScopesSpecs(ref.Scopes)
	if err != nil {
		return nil, "spec-store-error", fmt.Sprintf("shard: spec store %s: %v", ref.Path, err)
	}
	if ref.SpecsHash != "" {
		hash, err := (&spec.DB{Specs: subset}).Hash()
		if err != nil || hash != ref.SpecsHash {
			return nil, "spec-store-mismatch", fmt.Sprintf(
				"shard: spec store %s seq %d resolved a different subset than the plan (got %d specs)",
				ref.Path, ref.Seq, len(subset))
		}
	}
	return subset, "", ""
}

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
	jobSpecs := job.Specs
	if job.SpecStore != nil {
		subset, code, msg := resolveSpecStore(job.SpecStore)
		if code != "" {
			s.writeError(w, http.StatusConflict, code, msg, nil)
			return
		}
		jobSpecs = &spec.DB{Specs: subset}
	}
	if jobSpecs == nil || len(jobSpecs.Specs) == 0 {
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
	res, _, runErr := snap.Resident.Detect(r.Context(), jobSpecs.Specs, seal.DetectRunOptions{
		Workers:       workers,
		Limits:        job.Limits,
		Obs:           rec,
		CacheDir:      s.cfg.CacheDir,
		CacheReadOnly: s.cfg.CacheReadOnly,
		CacheMaxBytes: s.cfg.CacheMaxBytes,
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
	writeJSON(w, http.StatusOK, coord.ShardResult{
		Shard:         job.Shard,
		TargetHash:    snap.TargetHash(),
		Outcome:       res.Outcome,
		ManifestUnits: m.Units,
	})
}
