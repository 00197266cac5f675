package coord

// Native fuzz target over the coordinator's wire envelope. Run with
//
//	go test -run='^$' -fuzz=FuzzShardWire ./internal/coord
//
// Seed corpus lives in testdata/fuzz/FuzzShardWire/ (regenerate with
// `go run ./internal/difftest/gencorpus`).

import (
	"encoding/json"
	"testing"

	"seal/internal/obs"
)

// FuzzShardWire feeds arbitrary bytes through both directions of the
// coordinator's wire format: a ShardJob decode (what a worker does to a
// request body) and a ShardResult decode followed by the full merge (what
// the coordinator does to a response body). Whatever a hostile or corrupt
// peer sends, neither side may panic, and the merged result must stay
// well-formed — bug ordinals out of the job's range are dropped, unknown
// unit names fold in without faulting, and the failure count invariants
// hold.
func FuzzShardWire(f *testing.F) {
	f.Add(`{"shard":0,"shards":2,"target_hash":"t","workers":1}`, `{"shard":0}`)
	f.Add(`{"shard":1,"shards":2}`, `{"shard":1,"bugs":[{"key":"k","spec_id":"s","ord":0,"rec":{"kind":"missing-check","fn":"f"}}]}`)
	f.Add(`{}`, `{"shard":0,"bugs":[{"ord":-1},{"ord":999}],"stats":{"EnsureCalls":3}}`)
	f.Add(`not json`, `still not json`)
	f.Add(`{"shard":-5}`, `{"shard":0,"failures":[{"Unit":"api:nope","Stage":"detect","Reason":"panic"}],"degraded":[{"Unit":"ghost"}]}`)
	f.Add(`{"specs":{"specs":[{"id":"x","api":"a"}]}}`, `{"shard":0,"units":[{"id":"api:a","specs":1}],"manifest_units":[{"id":"api:a","stage":"detect","outcome":"ok"}]}`)
	f.Fuzz(func(t *testing.T, jobJSON, resultJSON string) {
		var job ShardJob
		_ = json.Unmarshal([]byte(jobJSON), &job)

		var sr ShardResult
		if err := json.Unmarshal([]byte(resultJSON), &sr); err != nil {
			return // undecodable responses are rejected before merge
		}
		// Merge the fuzzed result as shard 0 of a fixed two-shard plan,
		// with shard 1 lost — both merge paths run on every input.
		specs := planSpecs()
		plan := PlanShards(specs, 2)
		jobs := []execJob{
			{origin: 0, target: 0, groups: plan.Jobs[0].Groups, specIdx: plan.Jobs[0].SpecIdx,
				oc: shardOutcome{res: &sr, attempts: 1}},
			{origin: 1, target: 1, groups: plan.Jobs[1].Groups, specIdx: plan.Jobs[1].SpecIdx,
				oc: shardOutcome{err: errFuzzLost, attempts: 2}},
		}
		rec := obs.New()
		rec.StartRun("detect")
		res, shards := merge(plan, Options{
			Addrs: []string{"http://a", "http://b"},
			Obs:   rec,
		}, jobs)
		if res == nil || len(shards) != 2 {
			t.Fatalf("merge returned res=%v shards=%d", res, len(shards))
		}
		// Shard 1's loss must quarantine exactly its groups, whatever the
		// fuzzed shard contributed.
		lost := 0
		for _, fr := range res.Failures {
			if fr.Reason == "shard-lost" {
				lost++
			}
		}
		if lost < len(plan.Jobs[1].Groups) {
			t.Fatalf("lost shard quarantined %d groups, owns %d", lost, len(plan.Jobs[1].Groups))
		}
		// Every merged bug ordinal was translated through the job's index
		// map; anything the bounds check let through must be in range.
		for _, r := range res.Recs {
			_ = r.String()
		}
	})
}

type fuzzLostErr struct{}

func (fuzzLostErr) Error() string { return "fuzz: worker down" }

var errFuzzLost error = fuzzLostErr{}
