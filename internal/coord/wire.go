// Package coord is the coordinator side of seal's horizontal scale-out
// tier: it partitions a detection corpus into region-group shards with a
// deterministic hash, dispatches each shard to a worker process (`seal
// work`, a serve.Server exposing POST /shard), and merges the shard
// results into the byte-identical report, redacted manifest, and redacted
// metrics a single-process run over the same inputs would produce.
//
// The merge is exact, not approximate, because of how the work is split:
// shards are whole region groups (all specs sharing one detection scope),
// and a bug's dedup key embeds its spec's scope, so two bugs that could
// ever collapse into one always originate on the same shard. Cross-shard
// merging therefore only interleaves and re-sorts — it never has to
// re-run the dedup that needs live IR.
//
// Robustness is first-class: a worker that crashes, hangs past its
// dispatch deadline, or becomes unreachable quarantines exactly its
// shard's region groups (budget.ReasonShardLost, one FailureRecord per
// group), and every other shard's results are unaffected. A restarted
// worker warms from the shared persistent cache, so re-dispatch after a
// crash replays instead of recomputing.
package coord

import (
	"seal/internal/budget"
	"seal/internal/detect"
	"seal/internal/obs"
	"seal/internal/spec"
)

// ShardJob is the wire form of one shard dispatch: which slice of the
// corpus to run, pinned to a target by content hash. Specs travel as a
// *spec.DB because conditions only serialize through the DB-level JSON
// round trip (CondJSON tree form).
type ShardJob struct {
	// Shard / Shards identify this slice: shard index and total count.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// TargetHash is the content fingerprint of the sources the coordinator
	// planned against. A worker holding a different target answers 409
	// (target-mismatch) instead of silently merging results from the wrong
	// program.
	TargetHash string `json:"target_hash"`
	// Specs is this shard's spec subset, in global relative order.
	Specs *spec.DB `json:"specs"`
	// Workers is the worker's in-process detection parallelism
	// (output-invariant; 0 = the worker's default).
	Workers int `json:"workers,omitempty"`
	// Limits is the per-unit budget. The coordinator zeroes MaxFailures
	// here and enforces the global threshold itself after merging, so a
	// shard never aborts locally on a count another shard can't see.
	Limits budget.Limits `json:"limits"`
}

// ShardResult is the wire form of one shard's outcome: everything the
// coordinator needs to reassemble the single-process result, with no live
// IR. The embedded Outcome is the worker's merged region-group outcome —
// bug ordinals index this job's spec list (the coordinator translates them
// to global ordinals), units sorted by ID, robustness records in the
// shard's group order, and the substrate counters of this run.
type ShardResult struct {
	Shard      int    `json:"shard"`
	TargetHash string `json:"target_hash"`
	detect.Outcome
	// ManifestUnits are the shard's unit spans in manifest form, replayed
	// into the coordinator's recorder so the merged redacted manifest is
	// indistinguishable from a single-process run's.
	ManifestUnits []obs.UnitManifest `json:"manifest_units,omitempty"`
}
